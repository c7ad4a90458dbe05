"""Id-indexed embedding sets and their on-disk formats.

Two interchangeable formats:
  * SVEB binary: magic ``SVEB``, version u16, count u64, dim u32 (at least
    1), then per record a u16 id length, the UTF-8 id bytes, and ``dim``
    little-endian float32 values.  Roundtrips bit-exactly.  A set or file whose
    ids share one byte length is written or read whole as one record array; any
    other goes one record at a time, which is where every read error comes from.
  * TSV text: one record per line, ``id<TAB>v1<TAB>v2...`` with decimal
    floats (9 significant digits on write, which roundtrips float32).

Speaker labels live in a sidecar TSV (``id<TAB>label``), keeping the binary
format label-agnostic.
"""

from __future__ import annotations

import io
import itertools
import os
import struct
import sys
from contextlib import contextmanager, nullcontext, suppress
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ContractError, FormatError

MAGIC = b"SVEB"
FORMAT_VERSION = 1
_U16 = struct.Struct("<H")  # a format version or an SVEB id length
_COUNT_DIM = struct.Struct("<QI")  # the SVEB header after its version


def _sveb_record(id_len: int, dim: int) -> np.dtype:  # ids as bytes: an S dtype drops a trailing NUL
    return np.dtype([("n", "<u2"), ("id", "u1", (id_len,)), ("vec", "<f4", (dim,))])


class _ReadOnce:
    """A path that is not a regular file, such as a pipe, read once: _open_binary opens its
    bytes in memory however often a reader asks.  It prints as the path."""

    def __init__(self, path):
        self.path, self.data = path, Path(path).read_bytes()

    def __str__(self) -> str:
        return str(self.path)


def read_once(path):
    """`path` if it is a regular file, else a _ReadOnce of it, for a reader that opens it twice."""
    return path if os.path.isfile(path) else _ReadOnce(path)


def _open_binary(path) -> BinaryIO:
    return io.BytesIO(path.data) if isinstance(path, _ReadOnce) else open(path, "rb")


def text_lines(path) -> Iterator[tuple[int, str]]:
    """Stream (line number from 1, line) pairs from a UTF-8 text file.

    Lines split where a text-mode file splits them (unlike str.splitlines,
    at no other control character), which keeps ``path:ln`` in error
    messages stable.  Bytes that are not UTF-8 raise FormatError.
    """
    with io.TextIOWrapper(_open_binary(path), encoding="utf-8") as f:
        try:
            yield from enumerate(f, start=1)
        except UnicodeDecodeError:
            raise FormatError(f"{path}: not UTF-8 text") from None


def records(path, expect, *, fields, sep="\t", comment=False) -> Iterator[tuple[int, list[str]]]:
    """Stream (line number, fields) for each non-blank line of text_lines(path).

    Fields are the line, minus its newline, split at ``sep``; ``sep=None``
    splits at any run of whitespace.  ``comment=True`` first drops
    everything from the first ``#``.  A record with fewer than ``lo`` or
    more than ``hi`` fields (``fields=(lo, hi)``, ``hi=None``: no upper
    bound) is a FormatError ``path:ln: expected <expect>``.
    """
    lo, hi = fields
    for ln, line in text_lines(path):
        if comment:
            line = line.split("#", 1)[0]
        if line.strip():
            values = line.split() if sep is None else line.rstrip("\n").split(sep)
            if len(values) < lo or (hi is not None and len(values) > hi):
                raise FormatError(f"{path}:{ln}: expected {expect}")
            yield ln, values


def byte_fields(path, fields, sep) -> list[np.ndarray] | None:
    """The records of a file as one zero-padded uint8 matrix per field, a row per record,
    when a check over its bytes proves that ``records(path, ..., fields=fields, sep=sep)``
    yields the same fields: every byte is an ASCII graphic character other than ``#``, a
    separator (``sep``, or space and tab for ``sep=None``) or ``\n``; every non-blank line
    has the same field count, within ``fields``; a ``sep`` sits between two field bytes; and
    no matrix is larger than the file.  None for any other file, which the caller then reads
    with ``records``: so pass a pipe as ``read_once(path)``.
    """
    with _open_binary(path) as f:
        data = np.frombuffer(f.read(), np.uint8)
    in_field = np.zeros(len(data) + 2, bool)  # byte i is in_field[i + 1]
    field = in_field[1:-1]
    np.less(data - np.uint8(0x21), 0x7F - 0x21, out=field)  # ASCII graphic: 0x21 to 0x7E
    field &= data != ord("#")
    at_sep = data == ord(sep) if sep is not None else (data == ord(" ")) | (data == ord("\t"))
    at_end = data == ord("\n")
    if sum(map(np.count_nonzero, (field, at_sep, at_end))) != len(data):  # three disjoint sets
        return None
    edges = np.flatnonzero(in_field[1:] != in_field[:-1])
    starts, lengths = edges[0::2], edges[1::2] - edges[0::2]
    if sep is not None:
        at = np.flatnonzero(at_sep)
        if not (in_field[at] & in_field[at + 2]).all():
            return None  # an empty field
    per_line = np.diff(np.searchsorted(starts, np.append(np.flatnonzero(at_end), len(data))), prepend=0)
    k = int(per_line.max(initial=0))
    lo, hi = fields
    if k == 0 or k < lo or (hi is not None and k > hi) or ((per_line != 0) & (per_line != k)).any():
        return None
    rows = len(starts) // k
    widths = lengths.reshape(rows, k).max(axis=0).tolist()
    if rows * max(widths) > len(data):
        return None
    cols = []
    for j, width in enumerate(widths):
        col = np.empty((rows, width), np.uint8)
        at = starts[j::k].copy()
        for p in range(width):  # one byte position at a time: no (rows, width) index matrix
            col[:, p] = data.take(at, mode="clip")
            at += 1
        col[lengths[j::k, None] <= np.arange(width)] = 0
        cols.append(col)
    return cols


_GRAPHIC = bytes(c for c in range(0x21, 0x7F) if c != 0x5F)  # ASCII graphic characters but `_`


def plain_number(text: str) -> str:
    """`text` if it holds only ASCII graphic characters other than `_`, else ValueError: a
    number field is a plain decimal, though float() and int() also read `1_0`, `١`, and a
    number inside spaces, form feeds or other ASCII whitespace."""
    if text.isascii() and not text.encode().translate(None, _GRAPHIC):
        return text
    raise ValueError(f"not a plain decimal: {text!r}")


def write_text(path, lines: Iterable[str]) -> None:
    """Write newline-terminated strings as UTF-8 to `path`, or to stdout when `path` is
    None: every text output of svkit goes through here."""
    with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


@contextmanager
def record_errors(path):
    """Report a record that its constructor rejects (ContractError) as a
    FormatError of the file it came from."""
    try:
        yield
    except ContractError as e:
        raise FormatError(f"{path}: {e}") from None


def _is_sveb(path) -> bool:
    # the magic, then a u16 version below 256: a TSV id may start with the magic letters
    with _open_binary(path) as f:
        head = f.read(6)
    return head[:4] == MAGIC and head[5:] == b"\x00"


class EmbeddingSet:
    """Ordered set of (id, float32 vector) records with uniform dimension."""

    def __init__(self, ids: Sequence[str], vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise ContractError(f"vectors must be 2-D, got shape {vectors.shape}")
        if len(ids) != vectors.shape[0]:
            raise ContractError(
                f"{len(ids)} ids but {vectors.shape[0]} vectors"
            )
        for i in ids:
            if i.split() != [i]:  # empty, or any character that str.isspace() accepts
                raise ContractError(f"invalid id {i!r}: must be non-empty, no whitespace")
        if len(set(ids)) != len(ids):
            seen = set()
            dup = next(i for i in ids if i in seen or seen.add(i))
            raise ContractError(f"duplicate id {dup!r}")
        if vectors.size and not np.all(np.isfinite(vectors)):
            raise ContractError("non-finite embedding values")
        self.ids = list(ids)
        self.vectors = vectors
        self._index = {i: k for k, i in enumerate(self.ids)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, ids: Iterable[str], what: str = "id") -> np.ndarray:
        """Row index of each id, in order; an unknown id is a ContractError
        that names it as `what`."""
        try:
            return np.fromiter(map(self._index.__getitem__, ids), np.intp)
        except KeyError as exc:
            raise ContractError(f"unknown {what} {exc.args[0]!r}") from None

    def vector(self, id_: str) -> np.ndarray:
        return self.vectors[self.rows([id_])[0]]

    def select(self, ids: Iterable[str]) -> "EmbeddingSet":
        """Subset in the requested order; unknown ids are an error."""
        ids = list(ids)
        return EmbeddingSet(ids, self.vectors[self.rows(ids)])


def write_embeddings(s: EmbeddingSet, path) -> None:
    """Write SVEB (bit-exact roundtrip); a set it cannot hold is refused before open."""
    if s.dim == 0:
        raise ContractError("SVEB records need at least one value, got dimension 0")
    raws = [id_.encode("utf-8") for id_ in s.ids]
    for id_, raw in zip(s.ids, raws):
        if len(raw) > 0xFFFF:
            raise ContractError(f"id longer than 65535 bytes: {id_[:32]!r}...")
    with open(path, "wb") as f:
        f.write(MAGIC + _U16.pack(FORMAT_VERSION) + _COUNT_DIM.pack(len(s), s.dim))
        if len(set(map(len, raws))) == 1:
            recs = np.empty(len(s), _sveb_record(len(raws[0]), s.dim))
            id_bytes = np.frombuffer(b"".join(raws), np.uint8).reshape(len(s), -1)
            recs["n"], recs["id"], recs["vec"] = len(raws[0]), id_bytes, s.vectors
            f.write(recs)
        else:
            for raw, vec in zip(raws, s.vectors):
                f.write(_U16.pack(len(raw)) + raw + vec.astype("<f4", copy=False).tobytes())


def write_embeddings_tsv(s: EmbeddingSet, path) -> None:
    fmt = "%s\t" + "\t".join(["%.9g"] * s.dim) + "\n"
    write_text(path, (fmt % (i, *r) for i, r in zip(s.ids, map(np.ndarray.tolist, s.vectors))))


class ByteReader:
    """Bounded little-endian cursor over a whole SVEB or SVPL file: opening it checks the
    magic and u16 version, and a read past the end or a byte left at end() is a FormatError."""

    def __init__(self, path, magic: bytes, version: int, kind: str):
        with _open_binary(path) as f:
            self.path, self.data, self.off = path, memoryview(f.read()), 0
        if self.take(len(magic)) != magic:
            raise FormatError(f"{path}: not a {kind} file")
        (v,) = self.unpack(_U16)
        if v != version:
            raise FormatError(f"{path}: unsupported {kind} version {v}")

    def take(self, n: int) -> memoryview:
        end = self.off + n
        if end > len(self.data):
            raise FormatError(f"{self.path}: truncated: {n} bytes needed at byte {self.off}")
        self.off = end
        return self.data[end - n : end]

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def mat(self) -> np.ndarray:  # u32 rows, u32 cols, then rows x cols float32
        rows, cols = struct.unpack("<II", self.take(8))
        return np.frombuffer(self.take(4 * rows * cols), dtype="<f4").reshape(rows, cols).copy()

    def flag(self) -> bool:
        (b,) = self.take(1)
        if b > 1:
            raise FormatError(f"{self.path}: flag byte {b} is neither 0 nor 1")
        return bool(b)

    def end(self) -> None:
        if self.off < len(self.data):
            raise FormatError(f"{self.path}: {len(self.data) - self.off} trailing bytes")


def _parse_sveb(path) -> EmbeddingSet:
    r = ByteReader(path, MAGIC, FORMAT_VERSION, "SVEB")
    count, dim = r.unpack(_COUNT_DIM)
    if dim == 0:
        raise FormatError(f"{path}: dimension 0: a record needs at least one value")
    vec_bytes = 4 * dim
    left = len(r.data) - r.off
    # every record takes at least its id length and vector: check before allocating
    if count * (2 + vec_bytes) > left:
        raise FormatError(f"{path}: header claims {count} records of dim {dim}, "
                          f"more than the {left} bytes that follow")
    # when the records fill the rest of the file at one stride, and every id has the first
    # one's byte length and is UTF-8, one record array holds what the loop below would read
    id_len = int.from_bytes(r.data[r.off : r.off + 2], "little")
    size = 2 + id_len + vec_bytes
    if count * size == left and size < 1 << 31:  # numpy has no larger record dtype
        recs = np.frombuffer(r.data[r.off :], _sveb_record(id_len, dim))
        with suppress(UnicodeDecodeError):  # the loop names the record
            if (recs["n"] == id_len).all():
                ids = [str(r.data[at : at + id_len], "utf-8") for at in range(r.off + 2, len(r.data), size)]
                with record_errors(path):
                    return EmbeddingSet(ids, recs["vec"].copy())
    ids = []
    vecs = np.empty((count, dim), dtype=np.float32)
    for k in range(count):
        (id_len,) = r.unpack(_U16)
        record = r.take(id_len + vec_bytes)
        try:
            ids.append(str(record[:id_len], "utf-8"))
        except UnicodeDecodeError:
            raise FormatError(f"{path}: record {k}: id is not UTF-8") from None
        vecs[k] = np.frombuffer(record[id_len:], "<f4")
    r.end()
    with record_errors(path):  # empty, blank or duplicate id, or a non-finite value
        return EmbeddingSet(ids, vecs)


def _numeric_rows(path, first: int, dtype) -> tuple[list[str], np.ndarray]:
    """Field 0 of every record, and the floats from field ``first`` on as a
    ``dtype`` matrix with every row as wide as the first: an id-prefixed
    (first=1, each record an id and at least one value) or plain (first=0) TSV.
    A value beyond the range of ``dtype`` reads as an infinity."""
    ids = []

    def rows():
        for ln, fields in records(path, "id and at least one value", fields=(first + 1, None)):
            try:
                plain_number(",".join(fields[first:]))  # one check per row; "," passes, so only a bad field fails
                row = [float(v) for v in fields[first:]]
            except ValueError:
                raise FormatError(f"{path}:{ln}: non-numeric value") from None
            if ids and len(row) != width:  # width: the first row's, set below
                raise FormatError(
                    f"{path}:{ln}: dimension {len(row)} != {width} of first record"
                )
            ids.append(fields[0])
            yield row

    checked = rows()
    row = next(checked, None)
    if row is None:
        raise FormatError(f"{path}: no records")
    width = len(row)
    with np.errstate(over="ignore"):  # past float32 is inf, which the callers reject: no warning
        return ids, np.fromiter(itertools.chain([row], checked), np.dtype((dtype, width)))


def _parse_tsv(path) -> EmbeddingSet:
    ids, vectors = _numeric_rows(path, 1, np.float32)
    with record_errors(path):  # a bad or duplicate id, or a non-finite value, as in SVEB
        return EmbeddingSet(ids, vectors)


def read_embeddings(path) -> EmbeddingSet:
    """Read SVEB or TSV embeddings, auto-detected by the magic bytes."""
    path = read_once(path)
    return _parse_sveb(path) if _is_sveb(path) else _parse_tsv(path)


def sorted_codes(values: list[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct values, and each value's index among them: trial ids and
    speaker labels are encoded this way."""
    distinct = sorted(set(values))
    index = {v: k for k, v in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, values), np.intp, len(values))


def write_labels(labels: Mapping[str, str], path) -> None:
    write_text(path, (f"{id_}\t{lab}\n" for id_, lab in labels.items()))


def read_labels(path) -> dict[str, str]:
    out: dict[str, str] = {}
    for ln, fields in records(path, "'id<TAB>label'", fields=(2, 2)):
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
    fmt = "\t".join(["%.9g"] * values.shape[1]) + "\n"
    write_text(path, (fmt % tuple(r) for r in map(np.ndarray.tolist, values)))


def read_matrix(path) -> np.ndarray:
    """Read a float64 matrix: SVEB, id-prefixed TSV (read as float32
    embeddings), or plain numeric TSV when the first field of the first
    record is a number."""
    path = read_once(path)
    if _is_sveb(path):
        return _parse_sveb(path).vectors.astype(np.float64)
    for _, fields in records(path, "a value", fields=(1, None)):
        try:
            float(plain_number(fields[0]))
        except ValueError:  # the first record starts with an id
            return _parse_tsv(path).vectors.astype(np.float64)
        break  # the first record alone picks the layout
    _, m = _numeric_rows(path, 0, np.float64)
    if not np.all(np.isfinite(m)):  # as the SVEB and id-prefixed layouts reject
        raise FormatError(f"{path}: non-finite matrix values")
    return m
