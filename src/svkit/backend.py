"""Embedding post-processing pipeline: centering, LDA, length normalization.

Each stage is optional; the apply order is fixed center -> LDA ->
length-norm.  fit_center and fit_lda return float64 arrays; Pipeline stores
them as float32, so that a saved and reloaded pipeline applies bitwise
identically.

No stage casts a whole set to float64: apply_blocks works on row blocks of
APPLY_BLOCK float64 values, which change no output bit as rows are
independent, and fit_lda casts blocks of whole classes under the same budget.
apply_blocks takes its input as the blocks that store.embedding_blocks reads,
so that it holds its output and one block of its input at a time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import ContractError, FormatError
from .store import ByteReader, EmbeddingSet, _open_binary, read_once, record_errors, sorted_codes

PIPELINE_MAGIC = b"SVPL"
PIPELINE_VERSION = 1
APPLY_BLOCK = 1 << 18  # float64 values per block of rows in apply_pipeline: 1024 rows at 256-d


@dataclass(frozen=True)
class Pipeline:
    """The stage parameters, each None (stage off) or a finite float32 array."""

    center: np.ndarray | None = None  # (D,) mean
    lda: np.ndarray | None = None  # (D, k) projection
    length_norm: bool = False

    def __post_init__(self):
        for name, ndim, message in (("center", 1, "center mean must be a finite D-vector"),
                                    ("lda", 2, "LDA projection must be a finite D x k matrix")):
            if getattr(self, name) is not None:
                with np.errstate(over="ignore"):  # past float32's range is an infinity, refused below
                    a = np.asarray(getattr(self, name), dtype=np.float32)
                if a.ndim != ndim or 0 in a.shape[1:] or not np.all(np.isfinite(a)):
                    raise ContractError(message)
                object.__setattr__(self, name, a)
        if self.center is not None and self.lda is not None and len(self.center) != len(self.lda):
            raise ContractError(f"center dim {len(self.center)} != LDA input dim {len(self.lda)}")


def fit_center(s: EmbeddingSet) -> np.ndarray:
    """Arithmetic mean of the set's vectors, in float64."""
    if len(s) == 0:
        raise ContractError("cannot fit centering on an empty set")
    return s.vectors.mean(axis=0, dtype=np.float64)


def fit_lda(s: EmbeddingSet, labels: Mapping[str, str] | None, k: int | None = None) -> np.ndarray:
    """Fit a float64 (D, k) LDA projection from the speaker label of each id of the set.

    Solves the generalized eigenproblem of between-class scatter against
    ridge-regularized pooled within-class scatter (ridge 1e-6 * trace / D)
    and keeps the top-k eigenvectors, unit-normalized, with the sign fixed
    so each column's first nonzero component is positive.  The scatters are
    invariant under a shift of the set, so no centered copy is needed.  They
    are summed over blocks of whole classes, one product per block each: a
    block's rows and the class mean of each row fit in APPLY_BLOCK float64
    values, 512 rows at 256-d (a larger class is a block of its own).
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
    sizes = np.bincount(codes)
    ends = np.cumsum(sizes)
    order = np.argsort(codes, kind="stable")  # each class's rows in ascending order
    sw, sb = np.zeros((2, d, d))
    c = 0
    while c < len(sizes):  # whole classes whose rows and row means fit APPLY_BLOCK, or one class
        lo = ends[c] - sizes[c]
        stop = max(c + 1, np.searchsorted(ends, lo + APPLY_BLOCK // (2 * d), side="right"))
        n = sizes[c:stop]
        x = s.vectors[order[lo : ends[stop - 1]]].astype(np.float64)
        mc = np.add.reduceat(x, np.cumsum(n) - n, axis=0) / n[:, None]
        x -= np.repeat(mc, n, axis=0)
        sw += x.T @ x
        g = mc - mean
        sb += (g * n[:, None]).T @ g
        c = stop
        del x  # before the next block is gathered

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
    return proj


def apply_pipeline(p: Pipeline, s: EmbeddingSet) -> EmbeddingSet:
    """Apply present stages in order center -> LDA -> length-norm, a block of rows at a time."""
    return apply_blocks(p, iter([(len(s), s.dim), (s.ids, s.vectors)]))


def apply_blocks(p: Pipeline, blocks: Iterator) -> EmbeddingSet:
    """apply_pipeline on a set given as store.embedding_blocks gives it: (count, dim), then
    (ids, vectors) blocks, each applied into one output array as it arrives, APPLY_BLOCK
    float64 values at a time.  A stage of another dim, a zero vector to length-normalize and
    a non-finite output are raised once the blocks are spent: an input error comes first."""
    count, d = next(blocks)
    error = next((ContractError(f"{name} dim {len(a)} != embedding dim {d}")
                  for name, a in (("center", p.center), ("LDA input", p.lda)) if a is not None and len(a) != d), None)
    out = np.empty((count, d if p.lda is None else p.lda.shape[1]), np.float32) if error is None else None
    ids, step = [], max(1, APPLY_BLOCK // max(d, 1))  # LDA keeps at most d dims
    for block_ids, vectors in blocks:
        for lo in range(0, len(block_ids) if error is None else 0, step):
            x = vectors[lo : lo + step].astype(np.float64)
            if p.center is not None:
                x -= p.center  # in float64, as every product below
            if p.lda is not None:
                x = x @ p.lda
            if p.length_norm:
                norms = np.linalg.norm(x, axis=1)
                if np.any(norms == 0):
                    error = ContractError("cannot length-normalize a zero vector")
                    break
                x /= norms[:, None]
            with np.errstate(over="ignore"):  # past float32 is inf, which EmbeddingSet refuses: no warning
                out[len(ids) + lo : len(ids) + lo + len(x)] = x
        ids += block_ids
    if error is not None:
        raise error
    return EmbeddingSet(ids, out)


def save_pipeline(p: Pipeline, path) -> None:
    with open(path, "wb") as f:
        f.write(PIPELINE_MAGIC)
        f.write(struct.pack("<H", PIPELINE_VERSION))
        for m in (None if p.center is None else p.center[None, :], p.lda):
            f.write(struct.pack("<B", m is not None))
            if m is not None:  # u32 rows, u32 cols, then the float32 values
                f.write(struct.pack("<II", *m.shape) + m.astype("<f4", copy=False).tobytes())
        f.write(struct.pack("<B", bool(p.length_norm)))


def load_pipeline(path) -> Pipeline:
    with _open_binary(read_once(path)) as f, record_errors(path):  # a non-finite stage, or stages of different dims
        r = ByteReader(f, path, PIPELINE_MAGIC, PIPELINE_VERSION, "pipeline")
        center = None
        if r.flag():
            mean = r.mat()
            if mean.shape[0] != 1:
                raise FormatError(f"{path}: center mean has {mean.shape[0]} rows, not 1")
            center = Pipeline(center=mean[0]).center  # each stage is checked before the next is read
        lda = Pipeline(lda=r.mat()).lda if r.flag() else None
        length_norm = r.flag()
        r.end()
        return Pipeline(center=center, lda=lda, length_norm=length_norm)
