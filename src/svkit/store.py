"""Id-indexed embedding sets and their on-disk formats.

Two interchangeable formats:
  * SVEB binary: magic ``SVEB``, version u16, count u64, dim u32, then per
    record a u16 id length, the UTF-8 id bytes, and ``dim`` little-endian
    float32 values.  Roundtrips bit-exactly.
  * TSV text: one record per line, ``id<TAB>v1<TAB>v2...`` with decimal
    floats (9 significant digits on write, which roundtrips float32).

Speaker labels live in a sidecar TSV (``id<TAB>label``), keeping the binary
format label-agnostic.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ContractError, FormatError

MAGIC = b"SVEB"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<HQI")  # version, count, dim


class EmbeddingSet:
    """Ordered set of (id, float32 vector) records with uniform dimension."""

    def __init__(
        self,
        ids: Sequence[str],
        vectors: np.ndarray,
        labels: Mapping[str, str] | None = None,
    ):
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise ContractError(f"vectors must be 2-D, got shape {vectors.shape}")
        if len(ids) != vectors.shape[0]:
            raise ContractError(
                f"{len(ids)} ids but {vectors.shape[0]} vectors"
            )
        for i in ids:
            if not i or any(c.isspace() for c in i):
                raise ContractError(f"invalid id {i!r}: must be non-empty, no whitespace")
        if len(set(ids)) != len(ids):
            seen = set()
            dup = next(i for i in ids if i in seen or seen.add(i))
            raise ContractError(f"duplicate id {dup!r}")
        if vectors.size and not np.all(np.isfinite(vectors)):
            raise ContractError("non-finite embedding values")
        self.ids = list(ids)
        self.vectors = vectors
        self.labels = dict(labels) if labels is not None else None
        self._index = {i: k for k, i in enumerate(self.ids)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, id_: str) -> bool:
        return id_ in self._index

    def vector(self, id_: str) -> np.ndarray:
        try:
            return self.vectors[self._index[id_]]
        except KeyError:
            raise ContractError(f"unknown id {id_!r}") from None

    def select(self, ids: Iterable[str]) -> "EmbeddingSet":
        """Subset in the requested order; unknown ids are an error."""
        ids = list(ids)
        rows = []
        for i in ids:
            if i not in self._index:
                raise ContractError(f"unknown id {i!r}")
            rows.append(self._index[i])
        vecs = self.vectors[rows] if rows else np.zeros((0, self.dim), np.float32)
        labels = None
        if self.labels is not None:
            labels = {i: self.labels[i] for i in ids if i in self.labels}
        return EmbeddingSet(ids, vecs, labels)

    def label_array(self) -> list[str]:
        """Per-record labels in set order; every id must be labeled."""
        if self.labels is None:
            raise ContractError("embedding set has no labels")
        out = []
        for i in self.ids:
            if i not in self.labels:
                raise ContractError(f"id {i!r} has no label")
            out.append(self.labels[i])
        return out


def write_embeddings(s: EmbeddingSet, path) -> None:
    """Write the SVEB binary format (bit-exact roundtrip)."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(_HEADER.pack(FORMAT_VERSION, len(s), s.dim))
        for id_, vec in zip(s.ids, s.vectors):
            raw = id_.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise ContractError(f"id longer than 65535 bytes: {id_[:32]!r}...")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(vec.astype("<f4", copy=False).tobytes())


def write_embeddings_tsv(s: EmbeddingSet, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for id_, vec in zip(s.ids, s.vectors):
            f.write(id_ + "\t" + "\t".join(f"{v:.9g}" for v in vec) + "\n")


def _parse_sveb(data: bytes, path) -> EmbeddingSet:
    off = len(MAGIC)
    if len(data) < off + _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    version, count, dim = _HEADER.unpack_from(data, off)
    off += _HEADER.size
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    vec_bytes = 4 * dim
    # every record takes at least its id length and vector: check before allocating
    if count * (2 + vec_bytes) > len(data) - off:
        raise FormatError(f"{path}: header claims {count} records of dim {dim}, "
                          f"more than the {len(data) - off} bytes that follow")
    ids = []
    vecs = np.empty((count, dim), dtype=np.float32)
    for k in range(count):
        if off + 2 > len(data):
            raise FormatError(f"{path}: truncated at record {k}")
        (id_len,) = struct.unpack_from("<H", data, off)
        off += 2
        if off + id_len + vec_bytes > len(data):
            raise FormatError(f"{path}: truncated at record {k}")
        try:
            ids.append(data[off : off + id_len].decode("utf-8"))
        except UnicodeDecodeError:
            raise FormatError(f"{path}: record {k}: id is not UTF-8") from None
        off += id_len
        vecs[k] = np.frombuffer(data, dtype="<f4", count=dim, offset=off)
        off += vec_bytes
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes")
    try:
        return EmbeddingSet(ids, vecs)
    except ContractError as e:  # empty, blank or duplicate id, or a non-finite value
        raise FormatError(f"{path}: {e}") from None


def _parse_tsv(text: str, path) -> EmbeddingSet:
    ids = []
    rows = []
    dim = None
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise FormatError(f"{path}:{ln}: expected id and at least one value")
        try:
            row = [float(v) for v in fields[1:]]
        except ValueError:
            raise FormatError(f"{path}:{ln}: non-numeric value") from None
        if dim is None:
            dim = len(row)
        elif len(row) != dim:
            raise FormatError(
                f"{path}:{ln}: dimension {len(row)} != {dim} of first record"
            )
        ids.append(fields[0])
        rows.append(row)
    if dim is None:
        raise FormatError(f"{path}: no records")
    return EmbeddingSet(ids, np.asarray(rows, dtype=np.float32))


def read_embeddings(path) -> EmbeddingSet:
    """Read SVEB or TSV embeddings, auto-detected by the magic bytes."""
    data = Path(path).read_bytes()
    if data[:4] == MAGIC:
        return _parse_sveb(data, path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not SVEB and not UTF-8 text") from None
    return _parse_tsv(text, path)


def write_labels(labels: Mapping[str, str], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for id_, lab in labels.items():
            f.write(f"{id_}\t{lab}\n")


def read_labels(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for ln, line in enumerate(f, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 2:
                raise FormatError(f"{path}:{ln}: expected 'id<TAB>label'")
            if fields[0] in out:
                raise FormatError(f"{path}:{ln}: duplicate id {fields[0]!r}")
            out[fields[0]] = fields[1]
    return out


def write_matrix(values: np.ndarray, path) -> None:
    """Dump a T x F matrix reusing the SVEB record encoding (frame-index ids)."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ContractError(f"matrix must be 2-D, got shape {values.shape}")
    s = EmbeddingSet([str(t) for t in range(values.shape[0])], values)
    write_embeddings(s, path)


def write_matrix_tsv(values: np.ndarray, path) -> None:
    """Plain-text matrix dump: one row per line, tab-separated values."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ContractError(f"matrix must be 2-D, got shape {values.shape}")
    with open(path, "w", encoding="utf-8") as f:
        for row in values:
            f.write("\t".join(f"{v:.9g}" for v in row) + "\n")


def read_matrix(path) -> np.ndarray:
    """Read a matrix: SVEB, id-prefixed TSV, or plain numeric TSV."""
    data = Path(path).read_bytes()
    if data[:4] == MAGIC:
        return _parse_sveb(data, path).vectors.astype(np.float64)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not SVEB and not UTF-8 text") from None
    rows = []
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        try:
            rows.append([float(v) for v in fields])
        except ValueError:
            # first column is an id, not a number: fall back to record layout
            return _parse_tsv(text, path).vectors.astype(np.float64)
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise FormatError(f"{path}:{ln}: inconsistent row length")
    if not rows:
        raise FormatError(f"{path}: no rows")
    return np.asarray(rows, dtype=np.float64)
