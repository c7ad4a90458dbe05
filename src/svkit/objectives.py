"""Training-recipe math: additive angular margin softmax (forward and
analytic gradient), the margin ramp, the warmup/exponential-decay learning
rate curve, and random segment cropping.

Pure functions only; no optimizer or parameter state lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

_SINE_FLOOR = 1e-12  # keeps the margin-derivative finite at cos = +-1


def softmax(x, axis=None) -> np.ndarray:
    """scipy.special.softmax in its operation order, so bitwise equal to it."""
    x = np.asarray(x)
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x, axis=None) -> np.ndarray:
    """scipy.special.log_softmax in its operation order, so bitwise equal to it."""
    x = np.asarray(x)
    m = np.max(x, axis=axis, keepdims=True)
    tmp = x - np.where(np.isfinite(m), m, 0)
    with np.errstate(divide="ignore"):  # log(0) = -inf is the right answer
        return tmp - np.log(np.sum(np.exp(tmp), axis=axis, keepdims=True))


@dataclass(frozen=True)
class AamConfig:
    scale: float = 32.0
    margin: float = 0.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ContractError(f"scale must be positive, got {self.scale}")
        if not 0 <= self.margin < math.pi / 2:
            raise ContractError(f"margin must be in [0, pi/2), got {self.margin}")


def _normalize_rows(m: np.ndarray, what: str) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The unit rows of m, and each row's norm as (norm of the row over its largest |value|,
    that value): a row scaled to a largest |value| of 1 takes its norm without overflow."""
    scale = np.abs(m).max(axis=1, keepdims=True)
    if np.any(scale == 0):
        raise ContractError(f"zero-norm {what} row")
    m = m / scale
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / norms, (norms, scale)


def _aam_pieces(embeddings, class_weights, labels, cfg: AamConfig):
    e = np.asarray(embeddings, dtype=np.float64)
    w = np.asarray(class_weights, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if e.ndim != 2 or w.ndim != 2 or e.shape[1] != w.shape[1]:
        raise ContractError(f"incompatible shapes: embeddings {e.shape}, weights {w.shape}")
    b, c = e.shape[0], w.shape[0]
    if b < 1 or c < 1:
        raise ContractError("need at least one sample and one class")
    if y.shape[0] != b:
        raise ContractError(f"{y.shape[0]} labels for {b} samples")
    if np.any(y < 0) or np.any(y >= c):
        raise ContractError(f"labels must lie in [0, {c})")

    u, e_norms = _normalize_rows(e, "embedding")
    v, w_norms = _normalize_rows(w, "class weight")
    cos = np.clip(u @ v.T, -1.0, 1.0)
    rows = np.arange(b)
    target_cos = cos[rows, y]

    cos_m, sin_m = math.cos(cfg.margin), math.sin(cfg.margin)
    sine = np.sqrt(np.maximum(1.0 - target_cos * target_cos, 0.0))
    shifted = target_cos * cos_m - sine * sin_m  # cos(theta + m)
    ok = target_cos > math.cos(math.pi - cfg.margin)
    phi = np.where(ok, shifted, target_cos - cfg.margin * sin_m)

    logits = cos.copy()
    logits[rows, y] = phi
    logits *= cfg.scale
    return u, v, e_norms, w_norms, cos, target_cos, sine, ok, logits, y, rows


def aam_forward(embeddings, class_weights, labels, cfg: AamConfig) -> tuple[float, np.ndarray]:
    """AAM-softmax loss and scaled logits.

    Rows of both matrices are L2-normalized internally; the target logit is
    cos(theta + m), replaced by cos(theta) - m*sin(m) when theta + m would
    pass pi (standard stabilization); all logits are scaled by cfg.scale.
    Returns (mean cross-entropy, B x C logits).
    """
    *_, logits, y, rows = _aam_pieces(embeddings, class_weights, labels, cfg)
    loss = float(-log_softmax(logits, axis=1)[rows, y].mean())
    return loss, logits


def aam_grad(embeddings, class_weights, labels, cfg: AamConfig) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of the AAM loss w.r.t. embeddings and class weights.

    The chain runs through the internal row normalization, so the gradients
    are w.r.t. the raw (unnormalized) inputs.
    """
    u, v, e_norms, w_norms, cos, target_cos, sine, ok, logits, y, rows = _aam_pieces(
        embeddings, class_weights, labels, cfg
    )
    b = u.shape[0]
    g = softmax(logits, axis=1)
    g[rows, y] -= 1.0
    g /= b  # dL/dlogits

    cos_m, sin_m = math.cos(cfg.margin), math.sin(cfg.margin)
    dphi = np.where(
        ok, cos_m + target_cos / np.maximum(sine, _SINE_FLOOR) * sin_m, 1.0
    )
    dcos = g * cfg.scale
    dcos[rows, y] *= dphi

    du = dcos @ v
    dv = dcos.T @ u
    # back through x -> x/|x|: (I - u u^T)/|x|, with |x| as its two factors
    with np.errstate(over="ignore"):  # past float64, as 1/|x| of a subnormal row can be: refused below
        de = (du - (du * u).sum(axis=1, keepdims=True) * u) / e_norms[0] / e_norms[1]
        dw = (dv - (dv * v).sum(axis=1, keepdims=True) * v) / w_norms[0] / w_norms[1]
    if not (np.all(np.isfinite(de)) and np.all(np.isfinite(dw))):
        raise ContractError("AAM gradient overflows float64")
    return de, dw


@dataclass(frozen=True)
class MarginSchedule:
    start_epoch: float = 20.0
    end_epoch: float = 40.0
    final: float = 0.2
    lmf_margin: float = 0.5

    def __post_init__(self):
        if not all(map(math.isfinite, (self.start_epoch, self.end_epoch, self.final, self.lmf_margin))):
            raise ContractError(f"margin epochs and margins must be finite, got {self}")
        if self.start_epoch >= self.end_epoch:
            raise ContractError("start_epoch must precede end_epoch")
        if not math.isfinite(self.end_epoch - self.start_epoch):  # else every ramp fraction reads 0
            raise ContractError(f"end_epoch - start_epoch overflows float64, got {self.start_epoch}/{self.end_epoch}")
        if self.final < 0:
            raise ContractError(f"final margin must be >= 0, got {self.final}")


def margin_at(epoch: float, sched: MarginSchedule = MarginSchedule(), lmf: bool = False) -> float:
    """Margin for a training epoch: 0, linear ramp, final; lmf overrides.

    A ramp margin is the exact one to within 1e-12 * final, absolute: on a ramp near 1e308
    epochs long the ramp fraction may underflow, so a far smaller margin may read 0."""
    if epoch < 0:
        raise ContractError(f"epoch must be >= 0, got {epoch}")
    if lmf:
        return sched.lmf_margin
    if epoch <= sched.start_epoch:
        return 0.0
    if epoch >= sched.end_epoch:
        return sched.final
    frac = (epoch - sched.start_epoch) / (sched.end_epoch - sched.start_epoch)
    return frac * sched.final


@dataclass(frozen=True)
class LrSchedule:
    warmup_epochs: float = 6.0
    peak: float = 0.1
    final: float = 5e-5
    total_epochs: float = 150.0

    def __post_init__(self):
        if not 0 < self.warmup_epochs < self.total_epochs:
            raise ContractError("need 0 < warmup_epochs < total_epochs")
        if not 0 < self.final < self.peak < math.inf:
            raise ContractError("need 0 < final < peak < inf")
        if not math.isfinite(self.peak * self.warmup_epochs):  # else the warmup rate overflows
            raise ContractError(f"peak * warmup_epochs overflows float64, got {self.peak}/{self.warmup_epochs}")
        if self.final / self.peak < np.finfo(np.float64).tiny:  # a subnormal decay base loses `final`
            raise ContractError(f"final / peak underflows float64, got {self.final}/{self.peak}")


def lr_at(epoch: float, sched: LrSchedule = LrSchedule()) -> float:
    """Learning rate at real-valued epoch progress.

    Linear 0 -> peak over the warmup, then exponential decay hitting
    `final` exactly at total_epochs.
    """
    if not 0 <= epoch <= sched.total_epochs:
        raise ContractError(f"epoch {epoch} outside [0, {sched.total_epochs}]")
    if epoch <= sched.warmup_epochs:
        return sched.peak * epoch / sched.warmup_epochs
    frac = (epoch - sched.warmup_epochs) / (sched.total_epochs - sched.warmup_epochs)
    return sched.peak * (sched.final / sched.peak) ** frac


@dataclass(frozen=True)
class CropSpec:
    """Fine-tuning segment length in seconds; short utterances wrap-pad."""

    target_len_s: float

    def __post_init__(self):
        if not 0 < self.target_len_s < math.inf:
            raise ContractError(f"target_len_s must be finite and positive, got {self.target_len_s}")

    def target_frames(self, frame_shift_ms: float) -> int:
        frames = self.target_len_s * 1000.0 / frame_shift_ms if frame_shift_ms > 0 else math.nan
        if not math.isfinite(frames):
            raise ContractError(f"{self.target_len_s} s in frames of {frame_shift_ms} ms is no finite frame count")
        return max(1, int(round(frames)))


def crop_segment(
    utterance_frames: int, target_frames: int, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Pick a training crop: uniform random contiguous window, or wrap-pad.

    Returns (start, frame indices).  When the utterance is shorter than the
    target it is repeated from the beginning until the target length is
    reached (start is then 0).
    """
    if utterance_frames < 1 or target_frames < 1:
        raise ContractError("frame counts must be >= 1")
    if utterance_frames >= target_frames:
        start = int(rng.integers(0, utterance_frames - target_frames + 1))
        return start, np.arange(start, start + target_frames)
    return 0, np.arange(target_frames) % utterance_frames
