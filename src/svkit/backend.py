"""Embedding post-processing pipeline: centering, LDA, length normalization.

Each stage is optional; the apply order is fixed center -> LDA ->
length-norm.  Fitted stage parameters are stored as float32 so that a
saved and reloaded pipeline applies bitwise identically.

No stage casts a whole set to float64: apply_pipeline works on row blocks of
APPLY_BLOCK float64 values, which change no output bit as rows are
independent, and fit_lda casts one class's rows at a time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ContractError, FormatError
from .store import ByteReader, EmbeddingSet, record_errors, sorted_codes

PIPELINE_MAGIC = b"SVPL"
PIPELINE_VERSION = 1
APPLY_BLOCK = 1 << 18  # float64 values per block of rows in apply_pipeline: 1024 rows at 256-d


@dataclass(frozen=True)
class CenterStage:
    mean: np.ndarray  # (D,) float32

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=np.float32)
        if m.ndim != 1 or not np.all(np.isfinite(m)):
            raise ContractError("center mean must be a finite D-vector")
        object.__setattr__(self, "mean", m)


@dataclass(frozen=True)
class LdaStage:
    projection: np.ndarray  # (D, k) float32

    def __post_init__(self):
        p = np.asarray(self.projection, dtype=np.float32)
        if p.ndim != 2 or p.shape[1] < 1 or not np.all(np.isfinite(p)):
            raise ContractError("LDA projection must be a finite D x k matrix")
        object.__setattr__(self, "projection", p)


@dataclass(frozen=True)
class Pipeline:
    center: CenterStage | None = None
    lda: LdaStage | None = None
    length_norm: bool = False

    def __post_init__(self):
        if self.center is not None and self.lda is not None:
            if self.center.mean.shape[0] != self.lda.projection.shape[0]:
                raise ContractError(
                    f"center dim {self.center.mean.shape[0]} != LDA input dim "
                    f"{self.lda.projection.shape[0]}"
                )


def fit_center(s: EmbeddingSet) -> CenterStage:
    """Arithmetic mean of the set's vectors."""
    if len(s) == 0:
        raise ContractError("cannot fit centering on an empty set")
    return CenterStage(s.vectors.mean(axis=0, dtype=np.float64))


def fit_lda(s: EmbeddingSet, labels: Mapping[str, str] | None, k: int | None = None) -> LdaStage:
    """Fit an LDA projection from the speaker label of each id of the set.

    Solves the generalized eigenproblem of between-class scatter against
    ridge-regularized pooled within-class scatter (ridge 1e-6 * trace / D)
    and keeps the top-k eigenvectors, unit-normalized, with the sign fixed
    so each column's first nonzero component is positive.  The scatters are
    invariant under a shift of the set, so no centered copy is needed.
    """
    if len(s) == 0:
        raise ContractError("cannot fit LDA on an empty set")
    if labels is None:
        raise ContractError("embedding set has no labels")
    try:
        classes, codes = sorted_codes([labels[i] for i in s.ids])
    except KeyError as exc:
        raise ContractError(f"id {exc.args[0]!r} has no label") from None
    if len(classes) < 2:
        raise ContractError(f"LDA needs at least 2 classes, got {len(classes)}")
    d = s.dim
    max_k = min(d, len(classes) - 1)
    if k is None:
        k = max_k
    if not 1 <= k <= max_k:
        raise ContractError(f"k must be in [1, {max_k}], got {k}")

    mean = s.vectors.mean(axis=0, dtype=np.float64)
    sw = np.zeros((d, d))
    sb = np.zeros((d, d))
    # each class's rows in ascending order, as a boolean mask would pick them
    for rows in np.split(np.argsort(codes, kind="stable"), np.cumsum(np.bincount(codes))[:-1]):
        diff = s.vectors[rows].astype(np.float64)
        mc = diff.mean(axis=0)
        diff -= mc
        sw += diff.T @ diff
        gap = mc - mean
        sb += len(rows) * np.outer(gap, gap)

    eps = 1e-6 * np.trace(sw) / d
    if eps <= 0:
        eps = 1e-12  # degenerate within-class scatter: any positive ridge works
    # sb v = lambda (L L^T) v as LAPACK's sygvd reduces it: eigh(L^-1 sb L^-T), v = L^-T y
    inv = np.linalg.inv(np.linalg.cholesky(sw + eps * np.eye(d)))
    vals, y = np.linalg.eigh(inv @ sb @ inv.T)
    proj = (inv.T @ y)[:, np.argsort(vals)[::-1][:k]]
    proj /= np.linalg.norm(proj, axis=0, keepdims=True)
    first = np.argmax(np.abs(proj) > 1e-12, axis=0)  # a unit column has a component above 1e-12
    proj[:, proj[first, np.arange(proj.shape[1])] < 0] *= -1
    return LdaStage(proj)


def apply_pipeline(p: Pipeline, s: EmbeddingSet) -> EmbeddingSet:
    """Apply present stages in order center -> LDA -> length-norm, a block of rows at a time."""
    d = s.dim
    if p.center is not None and p.center.mean.shape[0] != d:
        raise ContractError(f"center dim {p.center.mean.shape[0]} != embedding dim {d}")
    if p.lda is not None and p.lda.projection.shape[0] != d:
        raise ContractError(f"LDA input dim {p.lda.projection.shape[0]} != embedding dim {d}")
    mean = None if p.center is None else p.center.mean.astype(np.float64)
    proj = None if p.lda is None else p.lda.projection.astype(np.float64)
    out = np.empty((len(s), d if proj is None else proj.shape[1]), np.float32)
    step = max(1, APPLY_BLOCK // max(d, 1))  # LDA keeps at most d dims
    for lo in range(0, len(s), step):
        x = s.vectors[lo : lo + step].astype(np.float64)
        if mean is not None:
            x -= mean
        if proj is not None:
            x = x @ proj
        if p.length_norm:
            norms = np.linalg.norm(x, axis=1)
            if np.any(norms == 0):
                raise ContractError("cannot length-normalize a zero vector")
            x /= norms[:, None]
        out[lo : lo + step] = x
    return EmbeddingSet(s.ids, out)


def _write_mat(f, m: np.ndarray) -> None:
    f.write(struct.pack("<II", m.shape[0], m.shape[1]))
    f.write(m.astype("<f4", copy=False).tobytes())


def save_pipeline(p: Pipeline, path) -> None:
    with open(path, "wb") as f:
        f.write(PIPELINE_MAGIC)
        f.write(struct.pack("<H", PIPELINE_VERSION))
        f.write(struct.pack("<B", p.center is not None))
        if p.center is not None:
            _write_mat(f, p.center.mean[None, :])
        f.write(struct.pack("<B", p.lda is not None))
        if p.lda is not None:
            _write_mat(f, p.lda.projection)
        f.write(struct.pack("<B", bool(p.length_norm)))


def load_pipeline(path) -> Pipeline:
    r = ByteReader(path, PIPELINE_MAGIC, PIPELINE_VERSION, "pipeline")
    with record_errors(path):  # a non-finite stage, or stages of different dims
        center = None
        if r.flag():
            mean = r.mat()
            if mean.shape[0] != 1:
                raise FormatError(f"{path}: center mean has {mean.shape[0]} rows, not 1")
            center = CenterStage(mean[0])
        lda = LdaStage(r.mat()) if r.flag() else None
        length_norm = r.flag()
        r.end()
        return Pipeline(center=center, lda=lda, length_norm=length_norm)
