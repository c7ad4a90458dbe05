import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from svkit import objectives
from svkit.errors import ContractError


def softmax_xent(logits, labels):
    """Plain cross-entropy oracle on given logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(labels)), labels].mean()


def random_instance(rng, b=4, d=8, c=5):
    emb = rng.normal(size=(b, d))
    weights = rng.normal(size=(c, d))
    labels = rng.integers(0, c, size=b)
    return emb, weights, labels


class TestSoftmax:
    """The numpy softmax and log_softmax are bitwise equal to scipy.special's."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(11)
        for _ in range(400):  # shapes up to 80 x 300, scales 1e-3 to 1e3
            shape = (int(rng.integers(1, 81)), int(rng.integers(1, 301)))
            yield rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
        x = rng.normal(size=(6, 7))
        x[1] = -np.inf  # rows and columns with a non-finite max
        x[2, 3] = x[4, :2] = -np.inf
        x[5, 4] = np.inf
        yield x
        yield x.astype(np.float32)

    @pytest.mark.parametrize("name", ["softmax", "log_softmax"])
    def test_bitwise_equal_to_scipy(self, name):
        ours, theirs = getattr(objectives, name), getattr(scipy.special, name)
        checked = 0
        with np.errstate(invalid="ignore"):  # an all -inf row gives NaN in both
            for x in self.cases():
                for axis in (None, 0, 1):
                    want = theirs(x, axis=axis)
                    got = ours(x, axis=axis)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                    checked += 1
        assert checked == 1206


class TestAamForward:
    def test_zero_margin_unit_scale_is_plain_softmax(self):
        rng = np.random.default_rng(0)
        emb, weights, labels = random_instance(rng)
        cfg = objectives.AamConfig(scale=1.0, margin=0.0)
        loss, logits = objectives.aam_forward(emb, weights, labels, cfg)
        u = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        v = weights / np.linalg.norm(weights, axis=1, keepdims=True)
        cos = u @ v.T
        np.testing.assert_allclose(logits, cos, atol=1e-12)
        assert abs(loss - softmax_xent(cos, labels)) < 1e-10

    def test_single_class_zero_loss(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(3, 4))
        weights = rng.normal(size=(1, 4))
        loss, _ = objectives.aam_forward(
            emb, weights, np.zeros(3, int), objectives.AamConfig(margin=0.3)
        )
        assert abs(loss) < 1e-12

    def test_formula_oracle(self):
        rng = np.random.default_rng(2)
        emb, weights, labels = random_instance(rng)
        cfg = objectives.AamConfig(scale=32.0, margin=0.2)
        loss, logits = objectives.aam_forward(emb, weights, labels, cfg)
        # independent direct recomputation
        u = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        v = weights / np.linalg.norm(weights, axis=1, keepdims=True)
        cos = np.clip(u @ v.T, -1, 1)
        want = cos.copy()
        for i, y in enumerate(labels):
            th = cos[i, y]
            if th > np.cos(np.pi - 0.2):
                want[i, y] = th * np.cos(0.2) - np.sqrt(1 - th * th) * np.sin(0.2)
            else:
                want[i, y] = th - 0.2 * np.sin(0.2)
        want *= 32.0
        np.testing.assert_allclose(logits, want, atol=1e-10)
        assert abs(loss - softmax_xent(want, labels)) < 1e-10

    def test_rescaling_rows_is_invariant(self):
        rng = np.random.default_rng(3)
        emb, weights, labels = random_instance(rng)
        cfg = objectives.AamConfig(scale=32.0, margin=0.2)
        base, _ = objectives.aam_forward(emb, weights, labels, cfg)
        emb2 = emb * rng.uniform(0.1, 9.0, size=(len(emb), 1))
        weights2 = weights * rng.uniform(0.1, 9.0, size=(len(weights), 1))
        scaled, _ = objectives.aam_forward(emb2, weights2, labels, cfg)
        assert abs(base - scaled) < 1e-12

    def test_margin_never_reduces_loss(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            emb, weights, labels = random_instance(rng)
            plain, _ = objectives.aam_forward(
                emb, weights, labels, objectives.AamConfig(scale=32.0, margin=0.0)
            )
            margined, _ = objectives.aam_forward(
                emb, weights, labels, objectives.AamConfig(scale=32.0, margin=0.3)
            )
            assert margined >= plain - 1e-12

    def test_zero_norm_row_errors(self):
        emb = np.array([[0.0, 0.0], [1.0, 0.0]])
        weights = np.eye(2)
        with pytest.raises(ContractError):
            objectives.aam_forward(emb, weights, [0, 1], objectives.AamConfig())
        with pytest.raises(ContractError):
            objectives.aam_forward(np.eye(2), np.array([[0.0, 0.0], [1.0, 0.0]]), [0, 1], objectives.AamConfig())

    @pytest.mark.parametrize("scale", [1e300, 1e-300, 1.7e308], ids=["1e300", "1e-300", "largest"])
    def test_extreme_finite_rows_give_the_unit_rows_loss(self, scale):
        """Each row is divided by its largest |value| before its norm is taken: the squares of
        rows of 1e300 overflowed and warned, and those of rows of 1e-300 underflowed to a
        zero norm.  The loss does not change with the rows' scale, and each gradient scales by
        1/scale; `largest` puts the largest |value| at 1.7e308."""
        rng = np.random.default_rng(5)
        emb, weights, labels = random_instance(rng)
        if scale == 1.7e308:
            scale /= max(np.abs(emb).max(), np.abs(weights).max())
        cfg = objectives.AamConfig(scale=30.0, margin=0.2)
        want = objectives.aam_forward(emb, weights, labels, cfg)[0]
        want_de, want_dw = objectives.aam_grad(emb, weights, labels, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, _ = objectives.aam_forward(emb * scale, weights * scale, labels, cfg)
            de, dw = objectives.aam_grad(emb * scale, weights * scale, labels, cfg)
        assert abs(loss - want) < 1e-12
        np.testing.assert_allclose(de * scale, want_de, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dw * scale, want_dw, rtol=0, atol=1e-12)

    def test_a_gradient_past_float64_is_refused(self):
        """1/|x| of a row of the least subnormal, 5e-324, is past float64's range."""
        emb = np.array([[5e-324, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(objectives.aam_forward(emb, np.eye(3)[:2], [0, 1], objectives.AamConfig())[0])
            with pytest.raises(ContractError, match="^AAM gradient overflows float64$"):
                objectives.aam_grad(emb, np.eye(3)[:2], [0, 1], objectives.AamConfig())

    def test_bad_labels(self):
        with pytest.raises(ContractError):
            objectives.aam_forward(np.eye(2), np.eye(2), [0, 2], objectives.AamConfig())


class TestAamGrad:
    def finite_diff(self, emb, weights, labels, cfg, h=1e-5):
        def loss_at(e, w):
            return objectives.aam_forward(e, w, labels, cfg)[0]

        de = np.zeros_like(emb, dtype=float)
        for idx in np.ndindex(emb.shape):
            ep, em = emb.astype(float).copy(), emb.astype(float).copy()
            ep[idx] += h
            em[idx] -= h
            de[idx] = (loss_at(ep, weights) - loss_at(em, weights)) / (2 * h)
        dw = np.zeros_like(weights, dtype=float)
        for idx in np.ndindex(weights.shape):
            wp, wm = weights.astype(float).copy(), weights.astype(float).copy()
            wp[idx] += h
            wm[idx] -= h
            dw[idx] = (loss_at(emb, wp) - loss_at(emb, wm)) / (2 * h)
        return de, dw

    @pytest.mark.parametrize("margin,scale", [(0.0, 1.0), (0.2, 32.0), (0.5, 32.0)])
    def test_matches_finite_differences(self, margin, scale):
        rng = np.random.default_rng(5)
        cfg = objectives.AamConfig(scale=scale, margin=margin)
        for _ in range(5):
            emb, weights, labels = random_instance(rng)
            de, dw = objectives.aam_grad(emb, weights, labels, cfg)
            fde, fdw = self.finite_diff(emb, weights, labels, cfg)
            for got, want in ((de, fde), (dw, fdw)):
                # denominator floor absorbs central-difference cancellation
                # noise (~1e-10 at h=1e-5) on effectively-zero entries
                denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-5)
                assert np.max(np.abs(got - want) / denom) < 1e-4

    def test_zero_margin_equals_normalized_softmax_gradient(self):
        rng = np.random.default_rng(6)
        emb, weights, labels = random_instance(rng)
        cfg = objectives.AamConfig(scale=7.0, margin=0.0)
        de, dw = objectives.aam_grad(emb, weights, labels, cfg)
        # independent softmax gradient through the normalization
        u = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        v = weights / np.linalg.norm(weights, axis=1, keepdims=True)
        logits = 7.0 * (u @ v.T)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        g = p.copy()
        g[np.arange(len(labels)), labels] -= 1
        g /= len(labels)
        du = 7.0 * (g @ v)
        dv = 7.0 * (g.T @ u)
        want_de = (du - (du * u).sum(1, keepdims=True) * u) / np.linalg.norm(
            emb, axis=1, keepdims=True
        )
        want_dw = (dv - (dv * v).sum(1, keepdims=True) * v) / np.linalg.norm(
            weights, axis=1, keepdims=True
        )
        np.testing.assert_allclose(de, want_de, atol=1e-12)
        np.testing.assert_allclose(dw, want_dw, atol=1e-12)

    def test_saturated_correct_sample_has_vanishing_gradient(self):
        # embedding aligned with its class weight, huge scale -> p ~ one-hot
        rng = np.random.default_rng(7)
        weights = rng.normal(size=(5, 8))
        emb = np.stack([2.0 * weights[1], rng.normal(size=8)])
        labels = np.array([1, 3])
        cfg = objectives.AamConfig(scale=1e3, margin=0.2)
        de, _ = objectives.aam_grad(emb, weights, labels, cfg)
        assert np.max(np.abs(de[0])) < 1e-8


# finite floats, the ends of float64's range drawn often
EXTREME = st.sampled_from([1e308, -1e308, 1e-308, 5e-324, 0.5]) | st.floats(allow_nan=False, allow_infinity=False)


class TestMarginSchedule:
    def test_recipe_anchor_points(self):
        sched = objectives.MarginSchedule()
        assert objectives.margin_at(10, sched) == 0.0
        assert abs(objectives.margin_at(30, sched) - 0.1) < 1e-15
        assert objectives.margin_at(100, sched) == 0.2
        assert objectives.margin_at(100, sched, lmf=True) == 0.5

    def test_boundaries(self):
        sched = objectives.MarginSchedule()
        assert objectives.margin_at(20, sched) == 0.0
        assert objectives.margin_at(40, sched) == 0.2

    def test_monotone_nondecreasing(self):
        sched = objectives.MarginSchedule()
        grid = np.linspace(0, 150, 601)
        vals = [objectives.margin_at(e, sched) for e in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert min(vals) >= 0.0 and max(vals) <= 0.2

    def test_negative_epoch(self):
        with pytest.raises(ContractError):
            objectives.margin_at(-1, objectives.MarginSchedule())

    # unchecked, a NaN or infinite epoch passes the ordering check and a NaN or
    # infinite margin is written out as the recipe's margin
    @pytest.mark.parametrize("field", ["start_epoch", "end_epoch", "final", "lmf_margin"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ContractError, match="margin epochs and margins must be finite"):
            objectives.MarginSchedule(**{field: value})

    def test_negative_final_margin_rejected(self):
        with pytest.raises(ContractError, match=r"^final margin must be >= 0, got -0\.1$"):
            objectives.MarginSchedule(final=-0.1)

    def test_a_ramp_longer_than_float64_is_rejected(self):
        with pytest.raises(ContractError, match=r"^end_epoch - start_epoch overflows float64, got -1e\+308/1e\+308$"):
            objectives.MarginSchedule(start_epoch=-1e308, end_epoch=1e308)

    @settings(max_examples=150, deadline=None)
    @given(start=EXTREME, end=EXTREME, final=EXTREME.map(abs), epoch=st.integers(0, 200) | EXTREME.map(abs))
    def test_any_accepted_ramp_gives_its_exact_margin(self, start, end, final, epoch):
        """Every margin of a schedule that is accepted is the exact ramp's value to 1e-12 of
        the final margin (a value far below that, as frac * final, may underflow to 0)."""
        try:
            sched = objectives.MarginSchedule(start_epoch=start, end_epoch=end, final=final)
        except ContractError:
            assume(False)
        want = min(max(Fraction(epoch) - Fraction(start), 0) / (Fraction(end) - Fraction(start)), 1) * Fraction(final)
        assert abs(objectives.margin_at(epoch, sched) - want) <= 1e-12 * final + 1e-320


class TestLrSchedule:
    def test_recipe_anchor_points(self):
        sched = objectives.LrSchedule()
        assert abs(objectives.lr_at(6, sched) - 0.1) < 1e-12 * 0.1
        assert abs(objectives.lr_at(150, sched) - 5e-5) < 1e-12 * 5e-5

    def test_warmup_midpoint(self):
        assert abs(objectives.lr_at(3, objectives.LrSchedule()) - 0.05) < 1e-15

    def test_starts_at_zero_and_continuous(self):
        sched = objectives.LrSchedule()
        assert objectives.lr_at(0, sched) == 0.0
        left = objectives.lr_at(6 - 1e-9, sched)
        right = objectives.lr_at(6 + 1e-9, sched)
        assert abs(left - right) < 1e-8

    def test_strictly_decreasing_after_warmup(self):
        sched = objectives.LrSchedule()
        grid = np.linspace(6, 150, 500)
        vals = [objectives.lr_at(e, sched) for e in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            objectives.lr_at(151, objectives.LrSchedule())
        with pytest.raises(ContractError):
            objectives.lr_at(-0.5, objectives.LrSchedule())

    def test_infinite_peak_rejected(self):
        with pytest.raises(ContractError, match="need 0 < final < peak < inf"):
            objectives.LrSchedule(peak=np.inf)

    @pytest.mark.parametrize("peak, final, message", [
        (1e308, 1e-308, r"peak \* warmup_epochs overflows float64, got 1e\+308/6\.0"),
        (1e307, 1e-308, r"final / peak underflows float64, got 1e-308/1e\+307"),
    ])
    def test_a_warmup_that_overflows_or_a_decay_that_underflows_is_rejected(self, peak, final, message):
        with pytest.raises(ContractError, match=f"^{message}$"):
            objectives.LrSchedule(peak=peak, final=final)

    @settings(max_examples=150, deadline=None)
    @given(warmup=st.sampled_from([5e-324, 0.5, 6]) | st.floats(0, 39, exclude_min=True),
           rates=st.tuples(EXTREME.map(abs), EXTREME.map(abs)).map(sorted), total=st.integers(40, 60))
    def test_any_accepted_schedule_warms_up_and_decays_to_final(self, warmup, rates, total):
        """Every rate of a schedule that is accepted is finite: the warmup is the exact line
        to 1e-12, the decay falls from peak to `final` at the last epoch."""
        final, peak = rates
        try:
            sched = objectives.LrSchedule(warmup_epochs=warmup, peak=peak, final=final, total_epochs=total)
        except ContractError:
            assume(False)
        lrs = [objectives.lr_at(e, sched) for e in range(total + 1)]
        for e, lr in enumerate(lrs):
            if e <= warmup:
                assert math.isclose(lr, Fraction(peak) * e / Fraction(warmup), rel_tol=1e-12, abs_tol=1e-320)
        decay = [lr for e, lr in enumerate(lrs) if e > warmup]
        assert all(a >= b for a, b in zip(decay, decay[1:])) and decay[0] <= peak
        assert math.isclose(lrs[-1], final, rel_tol=1e-12, abs_tol=1e-320)


class TestCrop:
    def test_long_utterance_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            start, idx = objectives.crop_segment(1000, 200, rng)
            assert 0 <= start <= 800
            assert len(idx) == 200
            np.testing.assert_array_equal(idx, np.arange(start, start + 200))

    def test_wrap_pad(self):
        rng = np.random.default_rng(9)
        start, idx = objectives.crop_segment(150, 400, rng)
        assert start == 0
        want = np.concatenate([np.arange(150), np.arange(150), np.arange(100)])
        np.testing.assert_array_equal(idx, want)

    def test_same_seed_same_crop(self):
        a = objectives.crop_segment(5000, 123, np.random.default_rng(42))
        b = objectives.crop_segment(5000, 123, np.random.default_rng(42))
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])

    def test_crop_spec_frames(self):
        spec = objectives.CropSpec(10.0)
        assert spec.target_frames(10.0) == 1000
        for seconds in (0.0, -1.0, np.nan, np.inf, -np.inf):  # NaN raised a bare ValueError in target_frames
            with pytest.raises(ContractError, match="target_len_s must be finite and positive"):
                objectives.CropSpec(seconds)

    def test_a_frame_count_past_float64_or_of_no_frame_shift_is_rejected(self):
        """1e308 s in 10 ms frames is past float64's range, which int(round()) raised as a
        bare OverflowError; a frame shift of 0 raised ZeroDivisionError."""
        with pytest.raises(ContractError, match=r"^1e\+308 s in frames of 10.0 ms is no finite frame count$"):
            objectives.CropSpec(1e308).target_frames(10.0)
        for shift in (0.0, -10.0, np.nan, 1e-320):
            with pytest.raises(ContractError, match=f"^10.0 s in frames of {shift} ms is no finite frame count$"):
                objectives.CropSpec(10.0).target_frames(shift)
        assert objectives.CropSpec(1e300).target_frames(10.0) == int(round(1e300 * 1000.0 / 10.0))


_AAM = objectives.AamConfig(scale=30.0, margin=0.2)


@pytest.mark.parametrize("call,message", [
    (lambda: objectives.AamConfig(scale=0.0), "scale must be positive, got 0.0"),
    (lambda: objectives.AamConfig(margin=math.pi / 2), f"margin must be in [0, pi/2), got {math.pi / 2}"),
    (lambda: objectives.aam_forward(np.ones((2, 3)), np.ones((4, 5)), [0, 1], _AAM),
     "incompatible shapes: embeddings (2, 3), weights (4, 5)"),
    (lambda: objectives.aam_forward(np.ones((0, 3)), np.ones((4, 3)), [], _AAM),
     "need at least one sample and one class"),
    (lambda: objectives.aam_grad(np.ones((2, 3)), np.ones((4, 3)), [0], _AAM), "1 labels for 2 samples"),
    (lambda: objectives.crop_segment(0, 5, np.random.default_rng(0)), "frame counts must be >= 1"),
    (lambda: objectives.crop_segment(5, 0, np.random.default_rng(0)), "frame counts must be >= 1"),
], ids=["aam-scale", "aam-margin", "aam-shapes", "aam-empty", "aam-labels", "crop-utterance", "crop-target"])
def test_an_input_the_objective_cannot_use_is_named(call, message):
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        call()
