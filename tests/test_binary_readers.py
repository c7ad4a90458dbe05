"""The SVEB and SVPL readers against the earlier hand-written readers in
oracles.py, on arbitrary bytes after each magic and on single-byte
mutations and truncations of valid files.  Both must return the same ids,
vector bytes and stages, or both raise FormatError; messages may differ
only as REWORDED lists.  The one deliberate difference: an SVEB
header of dimension 0, which the earlier reader accepted, is a FormatError.
The SVEB writer must write the bytes of the earlier one-record-at-a-time
writer.  SVEB reads must also equal, message and byte offset included, the
record loop that read every file before records were read in blocks, at any
block size.  A file whose ids share one byte length is read a block of
records at a time, so the drawn files often have such ids."""

import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from svkit import backend, store
from svkit.errors import FormatError

SVEB_READERS = [  # (new, old): both as read_embeddings and read_matrix reach SVEB
    (store.read_embeddings,
     lambda p: oracles.oracle_parse_sveb(p) if store._is_sveb(p) else oracles.oracle_parse_tsv(p)),
    (store.read_matrix, oracles.oracle_read_matrix),
]

# (old message, what the new reader says instead), each after "<path>: "
REWORDED = [
    # one truncation message for every read past the end
    (r"truncated header|truncated at record \d+|truncated pipeline file",
     r"truncated: \d+ bytes needed at byte \d+"),
    # a header cut short after its version: the version is checked first
    (r"truncated header", r"unsupported SVEB version \d+"),
    # the version message names the format, as SVPL's did
    (r"unsupported version \d+", r"unsupported SVEB version \d+"),
]

FLOAT32 = st.one_of(st.sampled_from([0.0, -0.0, 1e-45, 3.4028235e38, float("nan")]),
                    st.floats(width=32))
ID_BYTES = st.sampled_from([b"", b"a", b"b", b"a b", b"\xff\xfe", "ä".encode(), b"\x85", b"c\x00"])


def _u16(n: int) -> bytes:
    return struct.pack("<H", n)


def _records(dim: int):
    """SVEB records of dimension dim: any id bytes, any float32 values."""
    record = st.builds(lambda i, v: _u16(len(i)) + i + struct.pack(f"<{dim}f", *v),
                       ID_BYTES, st.lists(FLOAT32, min_size=dim, max_size=dim))
    return st.lists(record, max_size=4)


# an SVEB body after the magic: raw bytes, a header and raw bytes, or a header
# and records, their count mostly the header's, so every check is reached
SVEB_BODIES = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda version, count, dim, rest: struct.pack("<HQI", version, count, dim) + rest,
              st.sampled_from([1, 1, 1, 0, 2]),
              st.one_of(st.integers(0, 4), st.integers(0, 2**64 - 1)),
              st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1)),
              st.binary(max_size=32)),
    st.integers(0, 3).flatmap(lambda dim: st.builds(
        lambda recs, extra, tail: (struct.pack("<HQI", 1, max(len(recs) + extra, 0), dim)
                                   + b"".join(recs) + tail),
        _records(dim), st.sampled_from([0, 0, 0, 1, -1]), st.sampled_from([b"", b"", b"\x00"]))),
)

# an SVPL matrix: rows, cols and rows x cols float32 values
MATRICES = st.tuples(st.integers(0, 2), st.integers(0, 3)).flatmap(
    lambda rc: st.lists(FLOAT32, min_size=rc[0] * rc[1], max_size=rc[0] * rc[1])
    .map(lambda v: struct.pack("<II", *rc) + struct.pack(f"<{len(v)}f", *v)))
STAGE = st.one_of(st.just(b"\x00"), MATRICES.map(lambda m: b"\x01" + m))

# an SVPL body after the magic and version: raw bytes; flag bytes, matrix
# headers and float32 values; or two stages, a length-norm byte and a tail
SVPL_BODIES = st.one_of(
    st.binary(max_size=48),
    st.lists(st.one_of(
        st.sampled_from([b"\x00", b"\x01", b"\x02"]),
        st.builds(lambda r, c: struct.pack("<II", r, c),
                  st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1)),
                  st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1))),
        FLOAT32.map(lambda v: struct.pack("<f", v)),
    ), max_size=12).map(b"".join),
    st.builds(lambda center, lda, norm, tail: center + lda + norm + tail, STAGE, STAGE,
              st.sampled_from([b"\x00", b"\x01", b"\x02"]), st.sampled_from([b"", b"", b"\x00"])),
)

FINITE = st.floats(width=32, allow_nan=False, allow_infinity=False)


ID_POOLS = [
    ["a", "b", "ä", "id7", "x" * 9],  # ids of 1, 2, 3 and 9 bytes: one record at a time
    ["ab", "cd", "ä", "é", "e\x00", "\x00f"],  # 2 bytes each, ASCII, UTF-8 or NUL-ended: one record array
    ["id1", "€", "g\x00\x00"],  # 3 bytes each
]


@st.composite
def sveb_files(draw):
    vecs = draw(arrays(np.float32, st.tuples(st.integers(0, 3), st.integers(1, 3)), elements=FINITE))
    ids = draw(st.lists(st.sampled_from(draw(st.sampled_from(ID_POOLS))),
                        min_size=len(vecs), max_size=len(vecs), unique=True))
    return store.EmbeddingSet(ids, vecs)


@st.composite
def svpl_files(draw):
    d = draw(st.integers(1, 3))
    center = draw(st.none() | arrays(np.float32, d, elements=FINITE))
    lda = draw(st.none() | arrays(np.float32, (d, draw(st.integers(1, 2))), elements=FINITE))
    return backend.Pipeline(center=center, lda=lda, length_norm=draw(st.booleans()))


def _mutate(draw, raw: bytes) -> bytes:
    """raw with one byte replaced, or cut short."""
    at = draw(st.integers(0, len(raw) - 1))
    if draw(st.booleans()):
        return raw[:at]
    return raw[:at] + bytes([draw(st.integers(0, 255))]) + raw[at + 1 :]


def _array(a):
    return a.dtype.str, a.shape, a.tobytes()


def _outcome(read, path):
    """What read(path) returns, in a form that == compares (NaN included),
    or the type and message of what it raises."""
    try:
        value = read(path)
    except FormatError as e:  # the only exception either reader may raise
        return type(e), str(e)
    if isinstance(value, store.EmbeddingSet):
        return value.ids, _array(value.vectors)
    if isinstance(value, np.ndarray):
        return _array(value)
    return (None if value.center is None else _array(value.center),
            None if value.lda is None else _array(value.lda), value.length_norm)


def _sveb_dim_zero(data: bytes) -> bool:
    if not data.startswith(store.MAGIC) or len(data) < 18:
        return False
    version, _, dim = struct.unpack_from("<HQI", data, 4)
    return version == 1 and dim == 0


def _check(new, old, path):
    want, got = _outcome(old, path), _outcome(new, path)
    if got == want:
        return
    assert want[0] is got[0] is FormatError, (want, got)
    prefix = re.escape(f"{path}: ")
    assert any(re.fullmatch(f"{prefix}(?:{was})", want[1]) and re.fullmatch(f"{prefix}(?:{now})", got[1])
               for was, now in REWORDED), (want, got)


def _loop_matrix(path):
    return oracles.oracle_sveb_record_loop(path).vectors.astype(np.float64)


def check_sveb(path, data: bytes):
    path.write_bytes(data)
    if not store._is_sveb(path):
        return  # read as TSV, which test_text_readers compares with the earlier readers
    for new, old in SVEB_READERS:
        if _sveb_dim_zero(data):
            assert _outcome(new, path) == (FormatError, f"{path}: dimension 0: a record needs "
                                                         "at least one value")
        else:
            _check(new, old, path)
    assert _outcome(store.read_embeddings, path) == _outcome(oracles.oracle_sveb_record_loop, path)
    assert _outcome(store.read_matrix, path) == _outcome(_loop_matrix, path)


def _check_svpl(path, data: bytes):
    path.write_bytes(data)
    _check(backend.load_pipeline, oracles.oracle_load_pipeline, path)


SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@SETTINGS
@given(body=SVEB_BODIES)
def test_sveb_arbitrary_bytes_match_earlier_reader(tmp_path, body):
    check_sveb(tmp_path / "fuzz.sveb", store.MAGIC + body)


@SETTINGS
@given(s=sveb_files(), data=st.data())
def test_sveb_mutations_match_earlier_reader(tmp_path, s, data):
    path = tmp_path / "m.sveb"
    store.write_embeddings(s, path)
    check_sveb(path, _mutate(data.draw, path.read_bytes()))


@SETTINGS
@given(s=sveb_files())
def test_sveb_writer_matches_earlier_writer(tmp_path, s):
    store.write_embeddings(s, tmp_path / "new.sveb")
    oracles.oracle_write_embeddings(s, tmp_path / "old.sveb")
    assert (tmp_path / "new.sveb").read_bytes() == (tmp_path / "old.sveb").read_bytes()
    got = store.read_embeddings(tmp_path / "new.sveb")
    assert (got.ids, got.vectors.tobytes()) == (s.ids, s.vectors.tobytes())


def _variants(s: store.EmbeddingSet, raw: bytes) -> list[bytes]:
    """The SVEB file `raw` of `s`; it cut short by one byte and by a vector and an id length;
    with a trailing byte; and with its last record's first id byte, or its id length's low
    byte, replaced by 0xff (not UTF-8, or a wrong stride)."""
    out = [raw, raw[:-1], raw[: -4 * s.dim - 2], raw + b"\x00"]
    if len(s):
        at = len(raw) - 2 - len(s.ids[-1].encode()) - 4 * s.dim
        out += [raw[: at + 2] + b"\xff" + raw[at + 3 :], raw[:at] + b"\xff" + raw[at + 1 :]]
    return out


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(s=sveb_files(), data=st.data())
def test_any_record_block_reads_and_writes_as_the_earlier_code(tmp_path, s, data):
    """_RECORD_BLOCK from one byte (one record a block) up to past the whole file, over files
    of one stride and of several (ids of 1, 2, 3 and 9 bytes), cut short, with a trailing
    byte, an id that is not UTF-8, a wrong id length, or one drawn byte changed: the writer
    writes the earlier writer's bytes, each read equals the record loop's, message and byte
    offset included, and the earlier reader's up to REWORDED, and SVPL reads as before.
    Read as EmbeddingFile(path).blocks(rows) and EmbeddingSet.blocks(rows), for rows from 1
    up to past the record count, every block but the last has `rows` rows, and the joined
    blocks equal the record loop's read, message and byte offset included."""
    oracles.oracle_write_embeddings(s, tmp_path / "old.sveb")
    raw = (tmp_path / "old.sveb").read_bytes()
    files = [*_variants(s, raw), _mutate(data.draw, raw)]
    pipe = tmp_path / "p.svpl"
    backend.save_pipeline(data.draw(svpl_files()), pipe)
    rows = data.draw(st.integers(1, len(s) + 2), label="rows")
    assert _outcome(_joined(rows), s) == (s.ids, _array(s.vectors))
    for k, body in enumerate(files):
        (tmp_path / f"b{k}.sveb").write_bytes(body)
        if store._is_sveb(tmp_path / f"b{k}.sveb"):
            assert (_outcome(_joined(rows), tmp_path / f"b{k}.sveb")
                    == _outcome(oracles.oracle_sveb_record_loop, tmp_path / f"b{k}.sveb"))
    for block in sorted({1, 2 + s.dim * 4, 2 * (3 + s.dim * 4) + 1, len(raw) - 1, len(raw), len(raw) + 1, 1 << 20}):
        with mock.patch.object(store, "_RECORD_BLOCK", block):
            store.write_embeddings(s, tmp_path / "new.sveb")
            assert (tmp_path / "new.sveb").read_bytes() == raw, block
            for k, body in enumerate(files):
                check_sveb(tmp_path / f"v{k}.sveb", body)
            _check_svpl(pipe, pipe.read_bytes())


def _joined(rows: int):
    """A reader that joins the blocks(rows) of an EmbeddingSet, or of the EmbeddingFile of a
    path, into one set, after asserting that every block but the last has `rows` rows."""
    def read(source):
        f = source if isinstance(source, store.EmbeddingSet) else store.EmbeddingFile(source)
        blocks = list(f.blocks(rows))
        sizes = [len(v) for _, v in blocks]
        assert sizes[:-1] == [rows] * (len(sizes) - 1) and all(0 < n <= rows for n in sizes[-1:])
        assert [len(i) for i, _ in blocks] == sizes
        ids = [i for block_ids, _ in blocks for i in block_ids]
        return store.EmbeddingSet(ids, np.concatenate([v for _, v in blocks] or [np.empty((0, f.dim), np.float32)]))
    return read


@pytest.mark.parametrize("ids", [["ab", "c", "def", "gh"], ["ab", "cd", "e", "fgh"], ["a", "bc", "d"]],
                         ids=["one-stride-total", "stride-change", "mixed"])
@pytest.mark.parametrize("block", [1, 30, 60, 1 << 20])
def test_a_stride_change_after_a_block_reads_as_the_record_loop(tmp_path, ids, block):
    """Ids of 2, 1, 3 and 2 bytes take as many bytes as four ids of 2, so the reader starts
    with record blocks and meets another id length inside or after its first block."""
    s = store.EmbeddingSet(ids, np.arange(4 * len(ids), dtype=np.float32).reshape(len(ids), 4))
    oracles.oracle_write_embeddings(s, tmp_path / "e.sveb")
    with mock.patch.object(store, "_RECORD_BLOCK", block):
        got = store.read_embeddings(tmp_path / "e.sveb")
        assert (got.ids, got.vectors.tobytes()) == (ids, s.vectors.tobytes())
        raw = (tmp_path / "e.sveb").read_bytes()
        for k, body in enumerate(_variants(s, raw)):
            check_sveb(tmp_path / f"v{k}.sveb", body)


@pytest.mark.parametrize("ids, looped", [
    (["ab", "ä", "c\x00"], 0),  # one byte length: one block of three 12-byte records
    (["a", "ä", "c\x00"], 3),  # 1, 2 and 2 bytes: the record loop
])
def test_uniform_ids_skip_the_record_loop(tmp_path, monkeypatch, ids, looped):
    """The magic, the version and the header are read when the file is opened and again by
    the pass; then a file of one stride is read in one take a block, and the record loop
    takes an id length and then the rest of each record."""
    s = store.EmbeddingSet(ids, np.arange(6, dtype=np.float32).reshape(3, 2))
    store.write_embeddings(s, tmp_path / "new.sveb")
    oracles.oracle_write_embeddings(s, tmp_path / "old.sveb")
    assert (tmp_path / "new.sveb").read_bytes() == (tmp_path / "old.sveb").read_bytes()
    reads = []
    take = store.ByteReader.take
    monkeypatch.setattr(store.ByteReader, "take", lambda r, n: reads.append(n) or take(r, n))
    got = store.read_embeddings(tmp_path / "new.sveb")
    assert (got.ids, got.vectors.tobytes()) == (ids, s.vectors.tobytes())
    loop = [n for i in ids[len(ids) - looped :] for n in (2, len(i.encode()) + 8)]
    assert reads == [4, 2, 12, 4, 2, 12, *([] if looped else [36]), *loop]


@pytest.mark.parametrize("form", ["one-stride", "mixed", "tsv"])
@pytest.mark.parametrize("rows", [1, 3, 1 << 20])
def test_known_ids_are_checked_and_not_kept(tmp_path, monkeypatch, form, rows):
    """The first pass of an EmbeddingFile keeps its ids; a second pass gives the same blocks
    and keeps no ids of its own: the end checks see none.  A file rewritten with other ids,
    or another count, is a FormatError on the next pass; a TSV file is parsed at open and
    not read again."""
    ids = {"one-stride": ["ab", "cd", "ef", "gh"], "mixed": ["a", "bc", "d", "ef"], "tsv": ["a", "bc", "d", "ef"]}[form]
    s = store.EmbeddingSet(ids, np.arange(12, dtype=np.float32).reshape(4, 3))
    path = tmp_path / "e"
    write = store.write_embeddings_tsv if form == "tsv" else store.write_embeddings
    write(s, path)
    f = store.EmbeddingFile(path)
    plain = [(list(i), v.tobytes()) for i, v in f.blocks(rows)]
    assert f.ids == ids
    checked = []
    monkeypatch.setattr(store, "_check_set", lambda i, finite: checked.append(list(i)))
    assert [(list(i), v.tobytes()) for i, v in f.blocks(rows)] == plain
    assert checked == ([] if form == "tsv" else [[]])
    monkeypatch.undo()
    for other in (["x", *ids[1:]], [*ids[:-1], "x"], ids[:-1], [*ids, "x"]):
        write(store.EmbeddingSet(other, np.arange(3 * len(other), dtype=np.float32).reshape(-1, 3)), path)
        if form == "tsv":
            assert [(list(i), v.tobytes()) for i, v in f.blocks(rows)] == plain
            continue
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: changed since it was first read$"):
            list(f.blocks(rows))
        assert f.ids == ids


@SETTINGS
@given(body=SVPL_BODIES)
def test_svpl_arbitrary_bytes_match_earlier_reader(tmp_path, body):
    _check_svpl(tmp_path / "fuzz.svpl",
                backend.PIPELINE_MAGIC + _u16(backend.PIPELINE_VERSION) + body)


@SETTINGS
@given(pipe=svpl_files(), data=st.data())
def test_svpl_mutations_match_earlier_reader(tmp_path, pipe, data):
    path = tmp_path / "m.svpl"
    backend.save_pipeline(pipe, path)
    _check_svpl(path, _mutate(data.draw, path.read_bytes()))


@pytest.mark.parametrize("dim", [1, 2**29, 2**31, 2**32 - 1])
def test_no_records_of_any_dim(tmp_path, dim):
    """A header of 0 records reads as the empty set of its dimension, though numpy
    has no record dtype of 2**31 bytes or more."""
    check_sveb(tmp_path / "e.sveb", store.MAGIC + struct.pack("<HQI", 1, 0, dim))
    assert store.read_embeddings(tmp_path / "e.sveb").vectors.shape == (0, dim)


def test_every_rewording_is_reached(tmp_path):
    """One input per REWORDED entry, so that no entry is dead."""
    header = store.MAGIC + struct.pack("<HQI", 1, 1, 1)
    svpl = backend.PIPELINE_MAGIC + _u16(1)
    cases = [
        (store.MAGIC + _u16(1), "truncated header", "truncated: 12 bytes needed at byte 6"),
        (header + _u16(3) + b"abcd", "truncated at record 0", "truncated: 7 bytes needed at byte 20"),
        (store.MAGIC + _u16(2), "truncated header", "unsupported SVEB version 2"),
        (store.MAGIC + struct.pack("<HQI", 2, 0, 1), "unsupported version 2",
         "unsupported SVEB version 2"),
    ]
    for k, (data, old, new) in enumerate(cases):
        path = tmp_path / f"{k}.sveb"
        path.write_bytes(data)
        assert _outcome(SVEB_READERS[0][1], path) == (FormatError, f"{path}: {old}")
        assert _outcome(store.read_embeddings, path) == (FormatError, f"{path}: {new}")
        check_sveb(path, data)
    path = tmp_path / "t.svpl"
    path.write_bytes(svpl + b"\x01" + struct.pack("<II", 1, 2))
    assert _outcome(oracles.oracle_load_pipeline, path) == (
        FormatError, f"{path}: truncated pipeline file")
    assert _outcome(backend.load_pipeline, path) == (
        FormatError, f"{path}: truncated: 8 bytes needed at byte 15")
    _check_svpl(path, path.read_bytes())
