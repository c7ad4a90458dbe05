import math
import re

import numpy as np
import pytest
import scipy.special

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
