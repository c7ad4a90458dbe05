"""Embedding post-processing pipeline: centering, LDA, length normalization.

Each stage is optional; the apply order is fixed center -> LDA ->
length-norm.  fit_center and fit_lda return float64 arrays; Pipeline stores
them as float32, so that a saved and reloaded pipeline applies bitwise
identically.

No stage casts a whole set to float64.  Each reads its set, an EmbeddingSet
or a store.EmbeddingFile, in blocks(rows) of a row count fixed by
APPLY_BLOCK, so no byte depends on how the file is read.  apply_blocks
applies blocks of APPLY_BLOCK float64 values, which change no output bit as
rows are independent, and holds its output and one block of its input.  The
fit holds no copy of its set: fit_center and fit_lda read a TrainingSet in
passes of blocks whose rows and row means fit APPLY_BLOCK values.  An SVEB
file is read once to center (TrainingSet's first pass) and three times to
fit LDA (that pass, then the class sums, then the within-class scatter).  A
TSV file is parsed once, when it is opened; a pipe is read once into memory.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import ContractError, FormatError
from .store import ByteReader, EmbeddingFile, EmbeddingSet, _open_binary, read_once, record_errors, sorted_codes

PIPELINE_MAGIC = b"SVPL"
PIPELINE_VERSION = 1
APPLY_BLOCK = 1 << 18  # float64 values per block of rows: 1024 rows at 256-d to apply, 512 and their means to fit


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


class TrainingSet:
    """An EmbeddingSet, or the store.EmbeddingFile of a path, that fit_center and fit_lda read
    in passes.  The first pass, made here, raises every read error, keeps the ids and sums
    the rows in float64 one after another, as mean(axis=0) does."""

    def __init__(self, source):
        self.source = source if isinstance(source, EmbeddingSet) else EmbeddingFile(source)
        self.dim, self.sum = self.source.dim, np.zeros(self.source.dim)
        with np.errstate(invalid="ignore"):  # a NaN or an infinity, which the read refuses at its end
            for _, x in self.rows():
                self.sum = np.add.reduce(np.concatenate((self.sum[None], x)), axis=0)
        self.ids = self.source.ids

    def __len__(self) -> int:
        return len(self.source)

    def rows(self) -> Iterator[tuple[int, np.ndarray]]:
        """A pass: (first row, float64 rows) blocks whose rows and row means fit APPLY_BLOCK
        values.  A file whose count, dim or ids changed since the first pass is a FormatError."""
        lo = 0
        for _, vectors in self.source.blocks(max(1, APPLY_BLOCK // (2 * max(self.dim, 1)))):
            yield lo, vectors.astype(np.float64)
            lo += len(vectors)


def fit_center(s: EmbeddingSet | TrainingSet) -> np.ndarray:
    """Arithmetic mean of the set's vectors, in float64: the sum of its first pass."""
    s = s if isinstance(s, TrainingSet) else TrainingSet(s)
    if len(s) == 0:
        raise ContractError("cannot fit centering on an empty set")
    return s.sum / len(s)


def fit_lda(s: EmbeddingSet | TrainingSet, labels: Mapping[str, str] | None, k: int | None = None) -> np.ndarray:
    """Fit a float64 (D, k) LDA projection from the speaker label of each id of the set.

    Solves the generalized eigenproblem of between-class scatter against
    ridge-regularized pooled within-class scatter (ridge 1e-6 * trace / D)
    and keeps the top-k eigenvectors, unit-normalized, with the sign fixed
    so each column's first nonzero component is positive.

    After the first pass (TrainingSet), one pass sums each class and one sums
    the within-class scatter about the exact class means.  Besides the ids and
    their class codes, the fit holds the class sums, two d x d float64
    matrices and one block of TrainingSet.rows() (512 rows at 256-d).
    """
    s = s if isinstance(s, TrainingSet) else TrainingSet(s)
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

    means = np.zeros((len(classes), d))
    for lo, x in s.rows():  # the sums of the block's classes, as one bincount of its values
        present, row_class = np.unique(codes[lo : lo + len(x)], return_inverse=True)
        at = (row_class[:, None] * d + np.arange(d)).ravel()
        means[present] += np.bincount(at, x.ravel(), len(present) * d).reshape(-1, d)
    sizes = np.bincount(codes)
    means /= sizes[:, None]
    sw, sb = np.zeros((2, d, d))
    for lo, x in s.rows():
        x -= means[codes[lo : lo + len(x)]]
        sw += x.T @ x
    mean, step = s.sum / len(s), max(1, APPLY_BLOCK // (2 * d))
    for lo in range(0, len(classes), step):  # as many class means at a time
        g = means[lo : lo + step] - mean
        sb += (g * sizes[lo : lo + step, None]).T @ g

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
    return apply_blocks(p, s)


def apply_blocks(p: Pipeline, s: EmbeddingSet | EmbeddingFile) -> EmbeddingSet:
    """apply_pipeline on a set read in blocks of APPLY_BLOCK float64 values, each applied into
    one output array as it arrives.  A stage of another dim, a zero vector to length-normalize
    and a non-finite output are raised once the blocks are spent: an input error comes first."""
    d, lo = s.dim, 0
    error = next((ContractError(f"{name} dim {len(a)} != embedding dim {d}")
                  for name, a in (("center", p.center), ("LDA input", p.lda)) if a is not None and len(a) != d), None)
    out = np.empty((len(s), d if p.lda is None else p.lda.shape[1]), np.float32) if error is None else None
    # each stage in float64 once, not once a block: the products below are in float64
    center, lda = (None if a is None else a.astype(np.float64) for a in (p.center, p.lda))
    # no warning: a NaN or an infinity of the input is refused once the blocks are spent, a
    # zero vector below, and an output past float32, an infinity, by EmbeddingSet
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for _, vectors in s.blocks(max(1, APPLY_BLOCK // max(d, 1))):  # LDA keeps at most d dims
            if error is None:
                x = vectors.astype(np.float64)
                if center is not None:
                    x -= center
                if lda is not None:
                    x = x @ lda
                if p.length_norm:
                    norms = np.linalg.norm(x, axis=1)
                    if np.any(norms == 0):
                        error = ContractError("cannot length-normalize a zero vector")
                    x /= norms[:, None]
                out[lo : lo + len(x)] = x
            lo += len(vectors)
            if lo == len(s):  # freed before the reader's end checks and the output set's index
                center = lda = None
    if error is not None:
        raise error
    return EmbeddingSet(s.ids, out)


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
