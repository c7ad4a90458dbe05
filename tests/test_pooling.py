import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svkit import pooling
from svkit.errors import ContractError


class TestTstp:
    def test_constant_frames(self):
        out = pooling.tstp(np.full((6, 3), 2.5))
        np.testing.assert_array_equal(out[:3], 2.5)
        np.testing.assert_array_equal(out[3:], pooling.STD_FLOOR)

    def test_mean_one_std_one(self):
        frames = np.array([[0.0, 0.0], [2.0, 2.0]])
        out = pooling.tstp(frames)
        np.testing.assert_allclose(out, [1.0, 1.0, 1.0, 1.0], atol=1e-15)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        frames = rng.normal(size=(50, 8))
        perm = rng.permutation(50)
        np.testing.assert_allclose(
            pooling.tstp(frames), pooling.tstp(frames[perm]), atol=1e-12
        )

    def test_output_dim(self):
        assert pooling.tstp(np.ones((4, 7))).shape == (14,)

    def test_empty_errors(self):
        with pytest.raises(ContractError):
            pooling.tstp(np.zeros((0, 4)))


class TestAsp:
    def test_zero_score_projection_reduces_to_tstp(self):
        rng = np.random.default_rng(1)
        frames = rng.normal(size=(20, 6))
        params = pooling.AspParams(rng.normal(size=(6, 10)), np.zeros(10))
        np.testing.assert_allclose(
            pooling.asp(frames, params), pooling.tstp(frames), atol=1e-12
        )

    def test_single_frame(self):
        rng = np.random.default_rng(2)
        frame = rng.normal(size=(1, 5))
        params = pooling.AspParams.random(5, 8, rng)
        out = pooling.asp(frame, params)
        np.testing.assert_allclose(out[:5], frame[0], atol=1e-12)
        np.testing.assert_array_equal(out[5:], pooling.STD_FLOOR)

    def test_three_frame_formula_oracle(self):
        rng = np.random.default_rng(3)
        frames = rng.normal(size=(3, 4))
        params = pooling.AspParams.random(4, 6, rng)
        # direct recomputation of the stated formula
        scores = np.array([params.score @ np.tanh(params.hidden.T @ f) for f in frames])
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        mu = sum(a * f for a, f in zip(alpha, frames))
        second = sum(a * f * f for a, f in zip(alpha, frames))
        std = np.maximum(np.sqrt(np.maximum(second - mu * mu, 0.0)), pooling.STD_FLOOR)
        want = np.concatenate([mu, std])
        np.testing.assert_allclose(pooling.asp(frames, params), want, atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        frames = rng.normal(size=(30, 5))
        params = pooling.AspParams.random(5, 7, rng)
        perm = rng.permutation(30)
        np.testing.assert_allclose(
            pooling.asp(frames, params), pooling.asp(frames[perm], params), atol=1e-11
        )

    @pytest.mark.parametrize("in_dim, hidden_dim", [(0, 4), (4, 0), (4, -1)])
    def test_random_size_below_one_errors(self, in_dim, hidden_dim):
        with pytest.raises(ContractError, match="_dim must be >= 1"):
            pooling.AspParams.random(in_dim, hidden_dim, np.random.default_rng(0))

    def test_dim_mismatch(self):
        params = pooling.AspParams(np.ones((4, 3)), np.ones(3))
        with pytest.raises(ContractError):
            pooling.asp(np.ones((5, 6)), params)


class TestXiPool:
    def test_flat_prior_equal_precisions_gives_arithmetic_mean(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(10, 4))
        stats = pooling.XiFrameStats(z, np.zeros((10, 4)))
        mean, _ = pooling.xi_pool(stats, pooling.XiPrior.flat(4, -60.0))
        np.testing.assert_allclose(mean, z.mean(axis=0), atol=1e-12)

    def test_dominant_prior_returns_prior_mean(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(5, 3))
        prior_mean = np.array([1.0, -2.0, 0.5])
        prior = pooling.XiPrior(prior_mean, np.full(3, 60.0))
        stats = pooling.XiFrameStats(z, np.zeros((5, 3)))
        mean, _ = pooling.xi_pool(stats, prior)
        np.testing.assert_allclose(mean, prior_mean, atol=1e-10)

    def test_closed_form_two_frames(self):
        # z = {0, 1}, precisions {1, 3}, negligible prior: (1*0 + 3*1) / 4
        stats = pooling.XiFrameStats(
            np.array([[0.0], [1.0]]), np.log(np.array([[1.0], [3.0]]))
        )
        mean, log_prec = pooling.xi_pool(stats, pooling.XiPrior.flat(1, -60.0))
        assert abs(mean[0] - 0.75) < 1e-12
        assert abs(log_prec[0] - np.log(4.0)) < 1e-12

    def test_posterior_precision_exceeds_prior_and_grows_with_t(self):
        rng = np.random.default_rng(7)
        prior = pooling.XiPrior(rng.normal(size=3), rng.normal(size=3))
        prev = None
        for t in range(1, 6):
            stats = pooling.XiFrameStats(rng.normal(size=(t, 3)), np.zeros((t, 3)))
            _, log_prec = pooling.xi_pool(stats, prior)
            assert np.all(log_prec >= prior.prior_log_precision)
            if prev is not None:
                assert np.all(log_prec > prev)
            prev = log_prec

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            t, d = rng.integers(1, 8), rng.integers(1, 5)
            z = rng.normal(size=(t, d)) * 3
            lp = rng.uniform(-60, 60, size=(t, d))
            prior = pooling.XiPrior(rng.normal(size=d), rng.uniform(-60, 60, size=d))
            mean, _ = pooling.xi_pool(pooling.XiFrameStats(z, lp), prior)
            lo = np.minimum(z.min(axis=0), prior.prior_mean)
            hi = np.maximum(z.max(axis=0), prior.prior_mean)
            assert np.all(mean >= lo - 1e-9) and np.all(mean <= hi + 1e-9)

    def test_extreme_log_precisions_stay_finite(self):
        stats = pooling.XiFrameStats(
            np.array([[1.0, -1.0], [2.0, 3.0]]), np.array([[60.0, -60.0], [-60.0, 60.0]])
        )
        prior = pooling.XiPrior(np.zeros(2), np.array([-60.0, 60.0]))
        mean, log_prec = pooling.xi_pool(stats, prior)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(log_prec))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(12, 4))
        lp = rng.normal(size=(12, 4))
        prior = pooling.XiPrior(rng.normal(size=4), rng.normal(size=4))
        perm = rng.permutation(12)
        a, pa = pooling.xi_pool(pooling.XiFrameStats(z, lp), prior)
        b, pb = pooling.xi_pool(pooling.XiFrameStats(z[perm], lp[perm]), prior)
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(pa, pb, atol=1e-12)


class TestMhfa:
    def _params(self, rng, n_layers=3, in_dim=8):
        return pooling.MhfaParams.random(
            n_layers, in_dim, rng, num_heads=4, key_dim=5, embed_dim=16
        )

    def test_output_dim_default(self):
        rng = np.random.default_rng(10)
        params = pooling.MhfaParams.random(2, 12, rng)  # 64 heads, 256-dim
        out = pooling.mhfa(rng.normal(size=(2, 9, 12)), params)
        assert out.shape == (256,)

    def test_frame_permutation_invariant(self):
        rng = np.random.default_rng(11)
        params = self._params(rng)
        stack = rng.normal(size=(3, 20, 8))
        perm = rng.permutation(20)
        np.testing.assert_allclose(
            pooling.mhfa(stack, params), pooling.mhfa(stack[:, perm, :], params), atol=1e-11
        )

    def test_single_frame_ignores_queries(self):
        rng = np.random.default_rng(12)
        params = self._params(rng)
        stack = rng.normal(size=(3, 1, 8))
        out = pooling.mhfa(stack, params)
        other = pooling.MhfaParams(
            params.layer_weights_k,
            params.layer_weights_v,
            params.key_proj,
            params.value_proj,
            rng.normal(size=params.queries.shape) * 100,
            params.out_proj,
        )
        np.testing.assert_allclose(out, pooling.mhfa(stack, other), atol=1e-12)
        # degenerate softmax: the single frame is projected straight through
        wv = np.exp(params.layer_weights_v - params.layer_weights_v.max())
        wv /= wv.sum()
        mixed = np.einsum("l,ld->d", wv, stack[:, 0, :])
        want = (mixed @ params.value_proj) @ params.out_proj
        np.testing.assert_allclose(out, want, atol=1e-10)

    def test_single_layer_ignores_layer_weights(self):
        rng = np.random.default_rng(13)
        params = pooling.MhfaParams.random(1, 8, rng, num_heads=4, key_dim=5, embed_dim=16)
        stack = rng.normal(size=(1, 7, 8))
        out = pooling.mhfa(stack, params)
        other = pooling.MhfaParams(
            params.layer_weights_k + 123.0,
            params.layer_weights_v - 45.0,
            params.key_proj,
            params.value_proj,
            params.queries,
            params.out_proj,
        )
        np.testing.assert_allclose(out, pooling.mhfa(stack, other), atol=1e-12)

    @pytest.mark.parametrize("size", ["num_layers", "in_dim", "num_heads", "key_dim", "embed_dim"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_random_size_below_one_errors(self, size, value):
        sizes = {"num_layers": 2, "in_dim": 8, "num_heads": 4, "key_dim": 5, "embed_dim": 16, size: value}
        with pytest.raises(ContractError, match=f"^{size} must be >= 1, got {value}$"):
            pooling.MhfaParams.random(sizes.pop("num_layers"), sizes.pop("in_dim"),
                                      np.random.default_rng(0), **sizes)

    def test_shape_mismatch_errors(self):
        rng = np.random.default_rng(14)
        params = self._params(rng, n_layers=3, in_dim=8)
        with pytest.raises(ContractError):
            pooling.mhfa(rng.normal(size=(2, 5, 8)), params)
        with pytest.raises(ContractError):
            pooling.mhfa(rng.normal(size=(3, 5, 9)), params)


def _valid_params():
    rng = np.random.default_rng(20)
    return [pooling.AspParams.random(4, 3, rng), pooling.XiPrior.flat(4),
            pooling.XiFrameStats(rng.normal(size=(5, 4)), np.zeros((5, 4))),
            pooling.MhfaParams.random(2, 8, rng, num_heads=4, key_dim=5, embed_dim=16)]


@pytest.mark.parametrize("params", _valid_params(), ids=lambda p: type(p).__name__)
def test_a_bad_array_field_is_a_contract_error_that_names_it(params):
    for field in dataclasses.fields(params):
        good = getattr(params, field.name)
        if isinstance(params, pooling.AspParams) and field.name == "score":  # any shape is flattened
            assert dataclasses.replace(params, score=good[None, :]).score.shape == good.shape
        else:
            for wrong in (good[0], good[None]):  # one dimension fewer, one more
                with pytest.raises(ContractError, match=f"^{field.name} must be {good.ndim}-D, got shape"):
                    dataclasses.replace(params, **{field.name: wrong})
        bad = good.copy()
        bad.flat[-1] = np.nan
        with pytest.raises(ContractError, match=f"^non-finite values in {field.name}$"):
            dataclasses.replace(params, **{field.name: bad})


_MH = pooling.MhfaParams.random(2, 8, np.random.default_rng(21), num_heads=4, key_dim=5, embed_dim=16)


@pytest.mark.parametrize("call,message", [
    (lambda: pooling.tstp(np.ones(4)), "frames must be T x D, got shape (4,)"),
    (lambda: pooling.tstp([[1.0, np.nan]]), "non-finite frame values"),
    (lambda: pooling.AspParams(np.ones((4, 3)), np.ones(2)), "hidden (4, 3) incompatible with score (2,)"),
    (lambda: pooling.XiPrior(np.zeros(3), np.zeros(4)), "prior mean and log precision must be matching D-vectors"),
    (lambda: pooling.XiFrameStats(np.zeros((5, 4)), np.zeros((5, 3))),
     "point estimates (5, 4) and log precisions (5, 3) must be matching T x D"),
    (lambda: pooling.xi_pool(pooling.XiFrameStats(np.zeros((5, 4)), np.zeros((5, 4))), pooling.XiPrior.flat(3)),
     "frame dim 4 != prior dim 3"),
    (lambda: dataclasses.replace(_MH, layer_weights_v=np.zeros(3)), "layer weights must be matching L-vectors"),
    (lambda: dataclasses.replace(_MH, queries=np.zeros((0, 5))), "need at least one head"),
    (lambda: dataclasses.replace(_MH, queries=np.zeros((4, 6))),
     "key projection (8, 5) incompatible with queries (4, 6)"),
    (lambda: dataclasses.replace(_MH, key_proj=np.zeros((9, 5))), "key and value projections disagree on input dim"),
    (lambda: dataclasses.replace(_MH, out_proj=np.zeros((12, 16))),
     "output projection rows must equal value projection width"),
    (lambda: pooling.mhfa(np.ones((5, 8)), _MH), "stack must be L x T x D, got shape (5, 8)"),
    (lambda: pooling.mhfa(np.ones((2, 0, 8)), _MH), "need at least one frame"),
    (lambda: pooling.mhfa(np.full((2, 3, 8), np.inf), _MH), "non-finite stack values"),
], ids=["frames-rank", "frames-non-finite", "asp-score", "xi-prior", "xi-stats", "xi-pool-dim", "mhfa-layers",
        "mhfa-no-head", "mhfa-queries", "mhfa-input-dim", "mhfa-out-proj", "mhfa-rank", "mhfa-no-frame",
        "mhfa-non-finite"])
def test_a_shape_or_value_the_operator_cannot_use_is_named(call, message):
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        call()


_POOL = {  # each operator on T x D frames, with parameters drawn for D
    "tstp": lambda x: pooling.tstp(x),
    "asp": lambda x: pooling.asp(x, pooling.AspParams.random(x.shape[1], 8, np.random.default_rng(1))),
    "mhfa": lambda x: pooling.mhfa(x[None], pooling.MhfaParams.random(1, x.shape[1], np.random.default_rng(1))),
    "xi_pool": lambda x: pooling.xi_pool(pooling.XiFrameStats(x, x[::-1]), pooling.XiPrior.flat(x.shape[1])),
}


@pytest.mark.parametrize("method", _POOL)
@settings(max_examples=60, deadline=None)
@given(x=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 3)),
                elements=st.sampled_from([1e308, -1e308, 1e200, -1e200, 1.0])
                | st.floats(allow_nan=False, allow_infinity=False)))
@example(x=np.full((2, 2), 1e308))
@example(x=np.array([[1e200, 1.0], [-1e200, 2.0]]))
@example(x=np.array([[1e308, -1e308], [-1e308, 1e308]]))
def test_finite_frames_pool_to_a_finite_vector_or_a_contract_error(method, x):
    """Finite frames whose float64 statistics overflow are refused by name: no inf or nan
    is returned and numpy warns nothing (the "error" warning filter would fail the test).
    xi_pool takes the frames, in reverse, as log precisions too."""
    try:
        vec = _POOL[method](x)
    except ContractError as e:
        assert str(e) == f"{method} statistics overflow float64"
    else:
        assert np.all(np.isfinite(vec))
