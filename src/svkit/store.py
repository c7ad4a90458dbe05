"""Id-indexed embedding sets and their on-disk formats.

Two interchangeable formats:
  * SVEB binary: magic ``SVEB``, version u16, count u64, dim u32 (at least
    1), then per record a u16 id length, the UTF-8 id bytes, and ``dim``
    little-endian float32 values.  Roundtrips bit-exactly.  Records are read from
    the open file and written in _RECORD_BLOCK blocks, each one record array.
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
_FIELD_BLOCK = 1 << 20  # bytes per block of whole lines that byte_fields checks and gathers
_RECORD_BLOCK = 1 << 20  # bytes per block of SVEB records read or written


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
    """`path` if it is a regular file or a _ReadOnce, else a _ReadOnce of it, for a reader
    that opens it twice."""
    return path if isinstance(path, _ReadOnce) or os.path.isfile(path) else _ReadOnce(path)


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


def _line_blocks(f, size: int) -> Iterator[memoryview]:
    """The `size` bytes of an open binary file in blocks of whole lines, each at most
    _FIELD_BLOCK bytes or one line longer than that; the last may lack its newline."""
    pos = 0
    while pos < size:
        f.seek(pos)
        block = f.read(min(_FIELD_BLOCK, size - pos))  # a small file allocates no whole block
        if not block:  # the file shrank
            return
        end = len(block) if pos + len(block) >= size else block.rfind(b"\n") + 1
        if end == 0:  # a line longer than a block is a block of its own, read once
            del block
            f.seek(pos)
            block = f.readline()
            end = len(block)
        yield memoryview(block)[:end]
        pos += end


def _gather(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The fields of `data` at `starts` as the rows of a zero-padded uint8 matrix."""
    width = int(lengths.max())
    col = np.empty((len(starts), width), np.uint8)
    at = starts.copy()
    for p in range(width):  # one byte position at a time: no (rows, width) index matrix
        col[:, p] = data.take(at, mode="clip")
        at += 1
    col[lengths[:, None] <= np.arange(width)] = 0
    return col


def byte_fields(path, fields, sep) -> list[np.ndarray] | None:
    """The records of a file as one zero-padded uint8 matrix per field, a row per record,
    when a check over its bytes proves that ``records(path, ..., fields=fields, sep=sep)``
    yields the same fields: every byte is an ASCII graphic character other than ``#``, a
    separator (``sep``, or space and tab for ``sep=None``) or ``\n``; every non-blank line
    has the same field count, within ``fields``; a ``sep`` sits between two field bytes; and
    no matrix is larger than the file.  None for any other file, which the caller then reads
    with ``records``: so pass a pipe as ``read_once(path)``.

    The file is read, checked and gathered in blocks of whole lines, _FIELD_BLOCK bytes or
    one longer line, so the check's masks and edges follow the block, not the file; the
    columns of the blocks are then joined, padded to the widest field of any block.  The
    size check holds the rows and widths so far against the whole file, so no block gathers
    a matrix that the whole file would refuse.
    """
    lo, hi = fields
    k, rows, widths, pieces = 0, 0, 0, []
    with _open_binary(path) as f:
        size = f.seek(0, io.SEEK_END)
        for block in _line_blocks(f, size):
            data = np.frombuffer(block, np.uint8)
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
            n = int(per_line.max(initial=0))
            if n == 0:  # blank lines only
                continue
            if n < lo or (hi is not None and n > hi) or k not in (0, n) or ((per_line != 0) & (per_line != n)).any():
                return None
            k = n
            widths = np.maximum(widths, lengths.reshape(-1, k).max(axis=0))
            rows += len(starts) // k
            if rows * int(widths.max()) > size:
                return None
            pieces.append([_gather(data, starts[j::k], lengths[j::k]) for j in range(k)])
    if k == 0:
        return None
    cols = []
    for j, width in enumerate(widths.tolist()):
        col, at = np.zeros((rows, width), np.uint8), 0
        for piece in pieces:
            part, piece[j] = piece[j], None  # freed as it is copied
            col[at : at + len(part), : part.shape[1]] = part
            at += len(part)
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


def _finite(a: np.ndarray) -> bool:  # min and max propagate NaN and ±inf
    return not a.size or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _check_set(ids: Sequence[str], finite: bool) -> None:
    """Raise a set's first error: an invalid id, a duplicate id, a non-finite value."""
    for i in ids:
        if i.split() != [i]:  # empty, or any character that str.isspace() accepts
            raise ContractError(f"invalid id {i!r}: must be non-empty, no whitespace")
    if len(set(ids)) != len(ids):
        seen = set()
        dup = next(i for i in ids if i in seen or seen.add(i))
        raise ContractError(f"duplicate id {dup!r}")
    if not finite:
        raise ContractError("non-finite embedding values")


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
        _check_set(ids, _finite(vectors))
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
    _write_sveb(path, s.vectors, s.ids)


def _write_sveb(path, vectors: np.ndarray, ids: Sequence[str] | None = None) -> None:
    """SVEB of the rows of `vectors` under `ids`, or their row numbers, a block at a time:
    its ids are padded to the longest, and the padding is dropped on write."""
    count, dim = vectors.shape
    if dim == 0:
        raise ContractError("SVEB records need at least one value, got dimension 0")
    for id_ in ids or ():
        if len(id_) > 0xFFFF // 4 and len(id_.encode("utf-8")) > 0xFFFF:  # at most 4 bytes a character
            raise ContractError(f"id longer than 65535 bytes: {id_[:32]!r}...")
    raws = (b"%d" % k for k in range(count)) if ids is None else map(str.encode, ids)
    step = max(1, _RECORD_BLOCK // (4 * dim))
    with open(path, "wb") as f:
        f.write(MAGIC + _U16.pack(FORMAT_VERSION) + _COUNT_DIM.pack(count, dim))
        for lo in range(0, count, step):
            block = list(itertools.islice(raws, step))
            lengths = np.fromiter(map(len, block), np.intp, len(block))
            width = int(lengths.max())
            recs = np.empty(len(block), _sveb_record(width, dim))
            recs["n"], recs["vec"] = lengths, vectors[lo : lo + step]
            real = np.arange(width) < lengths[:, None]  # each id's bytes, then its padding
            recs["id"][real] = np.frombuffer(b"".join(block), np.uint8)
            if real.all():
                f.write(recs)
            else:
                keep = np.ones((len(block), recs.itemsize), bool)
                keep[:, 2 : 2 + width] = real
                f.write(recs.view(np.uint8).reshape(len(block), -1)[keep])


def write_embeddings_tsv(s: EmbeddingSet, path) -> None:
    fmt = "%s\t" + "\t".join(["%.9g"] * s.dim) + "\n"
    write_text(path, (fmt % (i, *r) for i, r in zip(s.ids, map(np.ndarray.tolist, s.vectors))))


class ByteReader:
    """Bounded little-endian cursor over an open SVEB or SVPL file: opening it checks the
    magic and u16 version, and a read past the end or a byte left at end() is a FormatError."""

    def __init__(self, f: BinaryIO, path, magic: bytes, version: int, kind: str):
        self.f, self.path, self.off = f, path, 0
        self.size = f.seek(0, io.SEEK_END)
        f.seek(0)
        if self.take(len(magic)) != magic:
            raise FormatError(f"{path}: not a {kind} file")
        (v,) = self.unpack(_U16)
        if v != version:
            raise FormatError(f"{path}: unsupported {kind} version {v}")

    def take(self, n: int) -> bytes:
        data = self.f.read(n) if n <= self.size - self.off else b""
        if len(data) < n:  # past the size, or the file shrank
            raise FormatError(f"{self.path}: truncated: {n} bytes needed at byte {self.off}")
        self.off += n
        return data

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
        if self.off < self.size:
            raise FormatError(f"{self.path}: {self.size - self.off} trailing bytes")


def embedding_blocks(path) -> Iterator:
    """What read_embeddings(path) reads, as (count, dim) and then (ids, float32 vectors)
    blocks, one of a TSV file; each error is raised after the blocks before it.

    An SVEB file is read a block of records at a time while they fill the rest of the file
    at the first one's stride; from a block with another id length or an id that is not
    UTF-8 on, one record at a time, which is where every FormatError is raised."""
    path = read_once(path)
    if not _is_sveb(path):
        s = _parse_tsv(path)
        yield len(s), s.dim
        yield s.ids, s.vectors
        return
    with _open_binary(path) as f:
        r = ByteReader(f, path, MAGIC, FORMAT_VERSION, "SVEB")
        count, dim = r.unpack(_COUNT_DIM)
        if dim == 0:
            raise FormatError(f"{path}: dimension 0: a record needs at least one value")
        vec_bytes = 4 * dim
        left = r.size - r.off
        # every record takes at least its id length and vector: check before allocating
        if count * (2 + vec_bytes) > left:
            raise FormatError(f"{path}: header claims {count} records of dim {dim}, "
                              f"more than the {left} bytes that follow")
        yield count, dim
        id_len = int.from_bytes(f.read(2), "little")  # the first record's, read again below
        f.seek(r.off)
        size = 2 + id_len + vec_bytes
        strided = count * size == left and size < 1 << 31  # numpy has no larger record dtype
        ids, finite = [], True
        while len(ids) < count:
            k = len(ids)
            if strided:
                data = r.take(min(count - k, max(1, _RECORD_BLOCK // size)) * size)
                recs, block_ids = np.frombuffer(data, _sveb_record(id_len, dim)), None
                if (recs["n"] == id_len).all():
                    with suppress(UnicodeDecodeError):  # the record loop names the record
                        block_ids = [str(data[at : at + id_len], "utf-8") for at in range(2, len(data), size)]
                if block_ids is None:
                    r.off = f.seek(r.off - len(data))  # read the block again one record at a time
                    strided = False
                    continue
                vecs = recs["vec"]
            else:
                block_ids = []
                vecs = np.empty((min(count - k, max(1, _RECORD_BLOCK // vec_bytes)), dim), np.float32)
                for j in range(len(vecs)):
                    (n,) = r.unpack(_U16)
                    record = r.take(n + vec_bytes)
                    try:
                        block_ids.append(str(record[:n], "utf-8"))
                    except UnicodeDecodeError:
                        raise FormatError(f"{path}: record {k + j}: id is not UTF-8") from None
                    vecs[j] = np.frombuffer(record, "<f4", offset=n)
            finite = finite and _finite(vecs)
            ids += block_ids
            yield block_ids, vecs
        r.end()
        with record_errors(path):  # an empty, blank or duplicate id, or a non-finite value
            _check_set(ids, finite)


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
    if not _is_sveb(path):
        return _parse_tsv(path)
    blocks = embedding_blocks(path)
    count, dim = next(blocks)
    ids, vectors = [], np.empty((count, dim), np.float32)
    for block_ids, block in blocks:
        vectors[len(ids) : len(ids) + len(block_ids)] = block
        ids += block_ids
    return EmbeddingSet(ids, vectors)


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
    """Dump a T x F matrix as SVEB records, each under its row number as id."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ContractError(f"matrix must be 2-D, got shape {values.shape}")
    # rounding keeps order: all values are finite in float32 if both extremes are
    if values.size and not _finite(np.float32([values.min(), values.max()])):
        raise ContractError("non-finite embedding values")
    _write_sveb(path, values)


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
        return read_embeddings(path).vectors.astype(np.float64)
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
