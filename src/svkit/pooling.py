"""Frame-to-utterance pooling operators.

Forward-only numerics on T x D frame representations: plain mean/std
statistics pooling, attentive statistics pooling, precision-weighted
Bayesian (xi-style) pooling, and a multi-head factorized attention head
over a stack of encoder layers.  All operators are permutation-invariant
over frames.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .objectives import log_softmax, softmax

STD_FLOOR = 1e-7


def _as_frames(frames) -> np.ndarray:
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 2:
        raise ContractError(f"frames must be T x D, got shape {x.shape}")
    if x.shape[0] < 1:
        raise ContractError("need at least one frame")
    if not np.all(np.isfinite(x)):
        raise ContractError("non-finite frame values")
    return x


def _check_sizes(**sizes) -> None:
    """A parameter size below 1 is a ContractError that names it."""
    for name, size in sizes.items():
        if size < 1:
            raise ContractError(f"{name} must be >= 1, got {size}")


def _set_arrays(params, **ranks) -> None:
    """Store each named field of the frozen `params` as a float64 array of the stated
    rank; a wrong rank or a non-finite value is a ContractError that names the field."""
    for name, ndim in ranks.items():
        a = np.asarray(getattr(params, name), dtype=np.float64)
        if a.ndim != ndim:
            raise ContractError(f"{name} must be {ndim}-D, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ContractError(f"non-finite values in {name}")
        object.__setattr__(params, name, a)


def _finite(pool):
    """`pool` with numpy's overflow warnings off: a pooled vector whose float64
    arithmetic overflowed is a ContractError, never a returned inf or nan."""
    @functools.wraps(pool)
    def pooled(*args):
        with np.errstate(over="ignore", invalid="ignore"):
            vec = pool(*args)
        if not np.all(np.isfinite(vec)):
            raise ContractError(f"{pool.__name__} statistics overflow float64")
        return vec
    return pooled


@_finite
def tstp(frames) -> np.ndarray:
    """Temporal statistics pooling: concat of per-channel mean and std (2D)."""
    x = _as_frames(frames)
    mean = x.mean(axis=0)
    var = (x * x).mean(axis=0) - mean * mean  # population variance
    std = np.maximum(np.sqrt(np.maximum(var, 0.0)), STD_FLOOR)
    return np.concatenate([mean, std])


@dataclass(frozen=True)
class AspParams:
    """Single-head attention: D x H hidden projection, H score projection."""

    hidden: np.ndarray  # (D, H)
    score: np.ndarray  # (H,)

    def __post_init__(self):
        object.__setattr__(self, "score", np.ravel(self.score))
        _set_arrays(self, hidden=2, score=1)
        if self.hidden.shape[1] != self.score.shape[0]:
            raise ContractError(f"hidden {self.hidden.shape} incompatible with score {self.score.shape}")

    @classmethod
    def random(cls, in_dim: int, hidden_dim: int, rng: np.random.Generator) -> "AspParams":
        _check_sizes(in_dim=in_dim, hidden_dim=hidden_dim)
        scale = 1.0 / np.sqrt(in_dim)
        return cls(
            hidden=rng.normal(0.0, scale, size=(in_dim, hidden_dim)),
            score=rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), size=hidden_dim),
        )


@_finite
def asp(frames, params: AspParams) -> np.ndarray:
    """Attentive statistics pooling: attention-weighted mean and std (2D).

    Frame scores vT tanh(x W) feed a softmax over frames; the weighted std
    uses sum(a * x^2) - mu^2 with the same floor as tstp.
    """
    x = _as_frames(frames)
    if x.shape[1] != params.hidden.shape[0]:
        raise ContractError(
            f"frame dim {x.shape[1]} != attention input dim {params.hidden.shape[0]}"
        )
    scores = np.tanh(x @ params.hidden) @ params.score
    alpha = softmax(scores)
    mean = alpha @ x
    second = alpha @ (x * x)
    std = np.maximum(np.sqrt(np.maximum(second - mean * mean, 0.0)), STD_FLOOR)
    return np.concatenate([mean, std])


@dataclass(frozen=True)
class XiPrior:
    """Diagonal Gaussian prior: mean and log precision per dimension."""

    prior_mean: np.ndarray
    prior_log_precision: np.ndarray

    def __post_init__(self):
        _set_arrays(self, prior_mean=1, prior_log_precision=1)
        if self.prior_mean.shape != self.prior_log_precision.shape:
            raise ContractError("prior mean and log precision must be matching D-vectors")

    @classmethod
    def flat(cls, dim: int, log_precision: float = -60.0) -> "XiPrior":
        """Negligible-precision prior: posterior reduces to frame weighting."""
        return cls(np.zeros(dim), np.full(dim, log_precision))


@dataclass(frozen=True)
class XiFrameStats:
    """Per-frame point estimates z_t and diagonal log precisions, both T x D."""

    point_estimates: np.ndarray
    log_precisions: np.ndarray

    def __post_init__(self):
        _set_arrays(self, point_estimates=2, log_precisions=2)
        if self.point_estimates.shape != self.log_precisions.shape:
            raise ContractError(
                f"point estimates {self.point_estimates.shape} and log precisions "
                f"{self.log_precisions.shape} must be matching T x D"
            )
        if self.point_estimates.shape[0] < 1:
            raise ContractError("need at least one frame")


@_finite
def xi_pool(stats: XiFrameStats, prior: XiPrior) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian posterior over the utterance mean.

    Per dimension, frames and prior are combined with precision weights
    exp(l) / (exp(p) + sum exp(l)); the posterior log precision is
    ln(exp(p) + sum exp(l)).  Computed via log-sum-exp so log precisions at
    +-60 stay finite.  Returns (posterior_mean, posterior_log_precision).
    """
    if stats.point_estimates.shape[1] != prior.prior_mean.shape[0]:
        raise ContractError(
            f"frame dim {stats.point_estimates.shape[1]} != prior dim {prior.prior_mean.shape[0]}"
        )
    log_prec = np.vstack([prior.prior_log_precision[None, :], stats.log_precisions])
    locs = np.vstack([prior.prior_mean[None, :], stats.point_estimates])
    log_w = log_softmax(log_prec, axis=0)
    posterior_mean = (np.exp(log_w) * locs).sum(axis=0)
    shift = log_prec.max(axis=0)
    posterior_log_precision = shift + np.log(np.exp(log_prec - shift).sum(axis=0))
    return posterior_mean, posterior_log_precision


@dataclass(frozen=True)
class MhfaParams:
    """Multi-head factorized attention over an L-layer stack.

    Layer softmax weights select key/value streams; a shared key projection
    and a shared value projection (sliced per head) feed H attention heads
    whose contexts are concatenated and projected to the embedding size.
    """

    layer_weights_k: np.ndarray  # (L,)
    layer_weights_v: np.ndarray  # (L,)
    key_proj: np.ndarray  # (D, Dk)
    value_proj: np.ndarray  # (D, H * Dv)
    queries: np.ndarray  # (H, Dk)
    out_proj: np.ndarray  # (H * Dv, E)

    def __post_init__(self):
        _set_arrays(self, layer_weights_k=1, layer_weights_v=1, key_proj=2, value_proj=2, queries=2, out_proj=2)
        if self.layer_weights_k.shape != self.layer_weights_v.shape:
            raise ContractError("layer weights must be matching L-vectors")
        h, dk = self.queries.shape
        if h < 1:
            raise ContractError("need at least one head")
        if self.key_proj.shape[1] != dk:
            raise ContractError(
                f"key projection {self.key_proj.shape} incompatible with queries {self.queries.shape}"
            )
        if self.key_proj.shape[0] != self.value_proj.shape[0]:
            raise ContractError("key and value projections disagree on input dim")
        if self.value_proj.shape[1] % h != 0:
            raise ContractError(
                f"value projection width {self.value_proj.shape[1]} not divisible by {h} heads"
            )
        if self.out_proj.shape[0] != self.value_proj.shape[1]:
            raise ContractError("output projection rows must equal value projection width")

    @classmethod
    def random(
        cls,
        num_layers: int,
        in_dim: int,
        rng: np.random.Generator,
        num_heads: int = 64,
        key_dim: int = 64,
        embed_dim: int = 256,
    ) -> "MhfaParams":
        """Random parameters whose heads split embed_dim evenly."""
        _check_sizes(num_layers=num_layers, in_dim=in_dim, num_heads=num_heads, key_dim=key_dim,
                     embed_dim=embed_dim)
        if embed_dim % num_heads:
            raise ContractError(f"embed_dim {embed_dim} not divisible by {num_heads} heads")
        s = 1.0 / np.sqrt(in_dim)
        return cls(
            layer_weights_k=rng.normal(size=num_layers),
            layer_weights_v=rng.normal(size=num_layers),
            key_proj=rng.normal(0.0, s, size=(in_dim, key_dim)),
            value_proj=rng.normal(0.0, s, size=(in_dim, embed_dim)),
            queries=rng.normal(0.0, 1.0 / np.sqrt(key_dim), size=(num_heads, key_dim)),
            out_proj=rng.normal(0.0, 1.0 / np.sqrt(embed_dim), size=(embed_dim, embed_dim)),
        )


@_finite
def mhfa(stack, params: MhfaParams) -> np.ndarray:
    """Pool an L x T x D layer stack into an E-dim embedding."""
    x = np.asarray(stack, dtype=np.float64)
    if x.ndim != 3:
        raise ContractError(f"stack must be L x T x D, got shape {x.shape}")
    n_layers, t, d = x.shape
    if n_layers != len(params.layer_weights_k):
        raise ContractError(f"stack has {n_layers} layers, params expect {len(params.layer_weights_k)}")
    if d != params.key_proj.shape[0]:
        raise ContractError(f"stack dim {d} != projection input dim {params.key_proj.shape[0]}")
    if t < 1:
        raise ContractError("need at least one frame")
    if not np.all(np.isfinite(x)):
        raise ContractError("non-finite stack values")

    wk = softmax(params.layer_weights_k)
    wv = softmax(params.layer_weights_v)
    k_stream = np.einsum("l,ltd->td", wk, x)
    v_stream = np.einsum("l,ltd->td", wv, x)

    keys = k_stream @ params.key_proj  # (T, Dk)
    h = len(params.queries)
    values = (v_stream @ params.value_proj).reshape(t, h, -1)  # (T, H, Dv)
    alpha = softmax(keys @ params.queries.T, axis=0)  # (T, H), sums to 1 over T
    context = np.einsum("th,thd->hd", alpha, values).reshape(-1)
    return context @ params.out_proj
