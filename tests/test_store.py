import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unittest import mock

from oracles import oracle_write_embeddings, oracle_write_embeddings_tsv, oracle_write_matrix_tsv
from svkit import store
from svkit.errors import ContractError, FormatError

# finite float32 values; the edge values are drawn often, not left to chance
FLOAT32 = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, 3.4028235e38]),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)
# non-empty unicode ids without whitespace (surrogates cannot be UTF-8 encoded)
IDS = st.text(st.characters(exclude_categories=["Cs"]), min_size=1, max_size=6).filter(
    lambda i: not any(c.isspace() for c in i))


@st.composite
def embedding_sets(draw):
    """Sets that SVEB can hold: 0-5 records of dimension 1-5."""
    vecs = draw(arrays(np.float32, st.tuples(st.integers(0, 5), st.integers(1, 5)), elements=FLOAT32))
    ids = draw(st.lists(IDS, min_size=len(vecs), max_size=len(vecs), unique=True))
    return store.EmbeddingSet(ids, vecs)


def random_set(rng, n=10, d=8):
    ids = [f"spk{k // 2}-utt{k}" for k in range(n)]
    return store.EmbeddingSet(ids, rng.normal(size=(n, d)).astype(np.float32))


class TestEmbeddingSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ContractError):
            store.EmbeddingSet(["a", "a"], np.zeros((2, 3), np.float32))

    def test_whitespace_id_rejected(self):
        with pytest.raises(ContractError):
            store.EmbeddingSet(["a b"], np.zeros((1, 3), np.float32))
        with pytest.raises(ContractError):
            store.EmbeddingSet([""], np.zeros((1, 3), np.float32))

    @given(st.text(st.sampled_from(["\x1c", "\x85", "\xa0", "\u3000", "\t", " ", "\u200b", "a"]), max_size=4))
    def test_id_rejected_exactly_when_empty_or_any_char_isspace(self, id_):
        if not id_ or any(c.isspace() for c in id_):
            with pytest.raises(ContractError, match="invalid id"):
                store.EmbeddingSet([id_], np.zeros((1, 1), np.float32))
        else:
            assert store.EmbeddingSet([id_], np.zeros((1, 1), np.float32)).ids == [id_]

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractError):
            store.EmbeddingSet(["a"], np.array([[np.nan, 0.0]], np.float32))

    @given(vecs=arrays(np.float32, st.tuples(st.integers(0, 6), st.integers(0, 6)), elements=FLOAT32),
           value=st.sampled_from([np.nan, np.inf, -np.inf, 3.4028235e38, -0.0]), at=st.integers(0, 35))
    def test_finite_check_equals_the_whole_mask(self, vecs, value, at):
        """The set is checked from its min and max, which propagate NaN and ±inf, without a
        bool array of its size: it refuses exactly the sets that np.isfinite finds."""
        if vecs.size:
            vecs.flat[at % vecs.size] = value
        ids = [f"u{k}" for k in range(len(vecs))]
        if not vecs.size or np.all(np.isfinite(vecs)):
            assert store.EmbeddingSet(ids, vecs).vectors is not None
        else:
            with pytest.raises(ContractError, match="^non-finite embedding values$"):
                store.EmbeddingSet(ids, vecs)

    def test_select_identity_and_order(self):
        s = random_set(np.random.default_rng(0))
        same = s.select(s.ids)
        assert same.ids == s.ids
        np.testing.assert_array_equal(same.vectors, s.vectors)
        rev = s.select(s.ids[::-1])
        np.testing.assert_array_equal(rev.vectors, s.vectors[::-1])

    def test_select_empty_keeps_dim(self):
        s = random_set(np.random.default_rng(1), d=5)
        empty = s.select([])
        assert len(empty) == 0
        assert empty.dim == 5

    def test_rows_in_order_and_unknown_named(self):
        s = random_set(np.random.default_rng(2))
        rows = s.rows([s.ids[3], s.ids[0], s.ids[3]])
        assert rows.dtype == np.intp and rows.tolist() == [3, 0, 3]
        assert s.rows([]).shape == (0,)
        with pytest.raises(ContractError, match="unknown test id 'nosuch'"):
            s.rows([s.ids[0], "nosuch"], "test id")

    def test_select_unknown_names_id(self):
        s = random_set(np.random.default_rng(2))
        with pytest.raises(ContractError, match="nosuch"):
            s.select([s.ids[0], "nosuch"])


class TestSvebFormat:
    def test_empty_set_header_only(self, tmp_path):
        path = tmp_path / "e.sveb"
        store.write_embeddings(store.EmbeddingSet([], np.zeros((0, 4), np.float32)), path)
        # magic 4 + version 2 + count 8 + dim 4
        assert path.stat().st_size == 18
        back = store.read_embeddings(path)
        assert len(back) == 0
        assert back.dim == 4

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n, d = int(rng.integers(0, 30)), int(rng.integers(1, 64))
            ids = [f"id{trial}_{k}" for k in range(n)]
            s = store.EmbeddingSet(ids, rng.normal(size=(n, d)).astype(np.float32))
            path = tmp_path / f"r{trial}.sveb"
            store.write_embeddings(s, path)
            back = store.read_embeddings(path)
            assert back.ids == s.ids
            assert back.vectors.tobytes() == s.vectors.tobytes()

    def test_order_preserved(self, tmp_path):
        s = random_set(np.random.default_rng(4))
        path = tmp_path / "o.sveb"
        store.write_embeddings(s, path)
        assert store.read_embeddings(path).ids == s.ids

    def test_truncated_file(self, tmp_path):
        s = random_set(np.random.default_rng(5))
        path = tmp_path / "t.sveb"
        store.write_embeddings(s, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(FormatError, match="truncated"):
            store.read_embeddings(path)

    def test_trailing_bytes(self, tmp_path):
        s = random_set(np.random.default_rng(6))
        path = tmp_path / "tr.sveb"
        store.write_embeddings(s, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            store.read_embeddings(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.sveb"
        path.write_bytes(b"SVEB" + b"\x09\x00" + bytes(12))
        with pytest.raises(FormatError, match="version"):
            store.read_embeddings(path)

    def test_unicode_ids(self, tmp_path):
        s = store.EmbeddingSet(["spk-ä-1", "spk-ß-2"], np.eye(2, dtype=np.float32))
        path = tmp_path / "u.sveb"
        store.write_embeddings(s, path)
        assert store.read_embeddings(path).ids == s.ids

    def test_header_count_beyond_file_size(self, tmp_path):
        # 18 bytes claiming 2**40 records: rejected before any allocation
        path = tmp_path / "huge.sveb"
        path.write_bytes(b"SVEB" + struct.pack("<HQI", 1, 2**40, 1))
        with pytest.raises(FormatError, match="claims"):
            store.read_embeddings(path)

    def test_id_not_utf8(self, tmp_path):
        path = tmp_path / "id.sveb"
        path.write_bytes(b"SVEB" + struct.pack("<HQIH", 1, 1, 1, 2) + b"\xff\xfe"
                         + struct.pack("<f", 1.0))
        with pytest.raises(FormatError, match="UTF-8"):
            store.read_embeddings(path)

    def test_dimension_zero_is_format_error(self, tmp_path):
        path = tmp_path / "d0.sveb"
        path.write_bytes(b"SVEB" + struct.pack("<HQI", 1, 2, 0) + b"\x01\x00a\x01\x00b")
        for read in (store.read_embeddings, store.read_matrix):
            with pytest.raises(FormatError, match="d0.sveb: dimension 0"):
                read(path)

    @pytest.mark.parametrize("s, message", [
        (store.EmbeddingSet(["a", "b" * 70000], np.ones((2, 1), np.float32)),
         "id longer than 65535 bytes"),
        (store.EmbeddingSet(["a", "b"], np.zeros((2, 0), np.float32)), "dimension 0"),
    ], ids=["long-id", "dimension-0"])
    def test_unwritable_set_creates_no_file(self, tmp_path, s, message):
        path = tmp_path / "out.sveb"
        with pytest.raises(ContractError, match=message):
            store.write_embeddings(s, path)
        assert not path.exists()

    def test_bytes_as_documented(self, tmp_path):
        path = tmp_path / "doc.sveb"
        store.write_embeddings(store.EmbeddingSet(["a", "ä"], [[1.0, -0.0], [2.5, 1e-45]]), path)
        assert path.read_bytes() == (
            b"SVEB" + struct.pack("<HQI", 1, 2, 2) + struct.pack("<H", 1) + b"a"
            + struct.pack("<2f", 1.0, -0.0) + struct.pack("<H", 2) + "ä".encode()
            + struct.pack("<2f", 2.5, 1e-45))

    def test_invalid_record_is_format_error(self, tmp_path):
        path = tmp_path / "nan.sveb"
        path.write_bytes(b"SVEB" + struct.pack("<HQIH", 1, 1, 1, 1) + b"a"
                         + struct.pack("<f", float("nan")))
        with pytest.raises(FormatError, match="non-finite"):
            store.read_embeddings(path)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(s=embedding_sets())
    def test_roundtrip_property_bit_exact(self, tmp_path, s):
        path, again = tmp_path / "p.sveb", tmp_path / "q.sveb"
        store.write_embeddings(s, path)
        back = store.read_embeddings(path)
        store.write_embeddings(back, again)
        assert back.ids == s.ids
        assert back.vectors.shape == s.vectors.shape
        assert back.vectors.tobytes() == s.vectors.tobytes()
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=st.one_of(
        st.binary(max_size=64),
        # a version-1 header, so the record loop is reached
        st.builds(lambda count, dim, rest: struct.pack("<HQI", 1, count, dim) + rest,
                  st.one_of(st.integers(0, 4), st.integers(0, 2**64 - 1)),
                  st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1)),
                  st.binary(max_size=64)),
    ))
    def test_arbitrary_bytes_only_format_error(self, tmp_path, body):
        path = tmp_path / "fuzz.sveb"
        path.write_bytes(store.MAGIC + body)
        for read in (store.read_embeddings, store.read_matrix):
            try:
                read(path)
            except FormatError:
                pass


class TestTsvFormat:
    def test_parse_single_line(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("spkA-utt1\t1.0\t0.0\n")
        s = store.read_embeddings(path)
        assert s.ids == ["spkA-utt1"]
        np.testing.assert_array_equal(s.vectors, [[1.0, 0.0]])

    def test_mixed_dims_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\t1.0\t2.0\nb\t1.0\n")
        with pytest.raises(FormatError, match="dimension"):
            store.read_embeddings(path)

    def test_write_read_within_tolerance(self, tmp_path):
        rng = np.random.default_rng(7)
        s = random_set(rng, n=15, d=6)
        path = tmp_path / "w.tsv"
        store.write_embeddings_tsv(s, path)
        back = store.read_embeddings(path)
        assert back.ids == s.ids
        np.testing.assert_allclose(back.vectors, s.vectors, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("first_id", ["SVEB", "SVEBx", "SVEB\x01\x02"])
    def test_first_id_with_the_magic_letters_is_tsv(self, tmp_path, first_id):
        s = store.EmbeddingSet([first_id, "b"], [[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "magic.tsv"
        store.write_embeddings_tsv(s, path)
        assert store.read_embeddings(path).ids == s.ids
        assert store.read_matrix(path).tolist() == s.vectors.tolist()

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "n.tsv"
        path.write_text("a\t1.0\tbogus\n")
        with pytest.raises(FormatError):
            store.read_embeddings(path)


# values whose .9g form has an exponent, and -max float32, drawn often
WRITE_FLOAT32 = st.one_of(st.sampled_from([-3.4028235e38, 1e-5, -1.5e-7, 123456789.0, 1.2345678e12]),
                          FLOAT32)
# every float64, NaN and infinities included, with its extremes drawn often
FLOAT64 = st.one_of(st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                                     -1.7976931348623157e308, 1e16, 1e-5]), st.floats())
SHAPES = st.tuples(st.integers(0, 9), st.integers(0, 6))  # dim 0 included


@st.composite
def writable_sets(draw):
    vecs = draw(arrays(np.float32, SHAPES, elements=WRITE_FLOAT32))
    ids = draw(st.lists(IDS, min_size=len(vecs), max_size=len(vecs), unique=True))
    return store.EmbeddingSet(ids, vecs)


class TestTsvWriters:
    """The row-format writers are byte-equal to the per-value f-string
    writers they replaced (oracles.py), and hold one row at a time."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(s=writable_sets())
    def test_embeddings_byte_equal(self, tmp_path, s):
        """An empty set, or one of dimension 0, which the oracle wrote as a file that no reader
        accepts, is refused."""
        (tmp_path / "got.tsv").unlink(missing_ok=True)
        if 0 in s.vectors.shape:
            message = ("a TSV embedding file needs at least one record, got an empty set" if len(s) == 0
                       else "TSV embedding records need at least one value, got dimension 0")
            with pytest.raises(ContractError, match=f"^{message}$"):
                store.write_embeddings_tsv(s, tmp_path / "got.tsv")
            assert not (tmp_path / "got.tsv").exists()
            return
        store.write_embeddings_tsv(s, tmp_path / "got.tsv")
        oracle_write_embeddings_tsv(s, tmp_path / "want.tsv")
        assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m=st.one_of(arrays(np.float32, SHAPES, elements=WRITE_FLOAT32),
                       arrays(np.float64, SHAPES, elements=FLOAT64)))
    def test_matrix_byte_equal(self, tmp_path, m):
        """A matrix of no row or no column, which the oracle wrote as a file that no reader
        accepts, is refused."""
        (tmp_path / "got.tsv").unlink(missing_ok=True)
        if 0 in m.shape:
            with pytest.raises(ContractError) as raised:
                store.write_matrix_tsv(m, tmp_path / "got.tsv")
            assert str(raised.value) == f"a TSV matrix needs at least one row and one column, got shape {m.shape}"
            assert not (tmp_path / "got.tsv").exists()
            return
        store.write_matrix_tsv(m, tmp_path / "got.tsv")
        oracle_write_matrix_tsv(m, tmp_path / "want.tsv")
        assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()

    @pytest.mark.parametrize("old", [None, b"old bytes"], ids=["absent", "existing"])
    def test_dim_zero_is_refused_before_open(self, tmp_path, old):
        """`a<TAB>` lines, which every reader refuses as a non-numeric value, are not written:
        the file is left as it was."""
        if old is not None:
            (tmp_path / "e.tsv").write_bytes(old)
        with pytest.raises(ContractError, match="^TSV embedding records need at least one value, got dimension 0$"):
            store.write_embeddings_tsv(store.EmbeddingSet(["a", "b"], np.zeros((2, 0))), tmp_path / "e.tsv")
        assert ((tmp_path / "e.tsv").read_bytes() if (tmp_path / "e.tsv").exists() else None) == old
        (tmp_path / "d0.tsv").write_bytes(b"a\t\nb\t\n")
        with pytest.raises(FormatError, match="d0.tsv:1: non-numeric value$"):
            store.read_embeddings(tmp_path / "d0.tsv")

    def test_more_rows_than_one_block(self, tmp_path):
        rng = np.random.default_rng(12)
        s = random_set(rng, n=5000, d=3)
        for write, oracle, obj in ((store.write_embeddings_tsv, oracle_write_embeddings_tsv, s),
                                   (store.write_matrix_tsv, oracle_write_matrix_tsv, s.vectors)):
            write(obj, tmp_path / "got.tsv")
            oracle(obj, tmp_path / "want.tsv")
            assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()

    @pytest.mark.parametrize("write", [lambda s, p: store.write_embeddings_tsv(s, p),
                                       lambda s, p: store.write_matrix_tsv(s.vectors, p)],
                             ids=["embeddings", "matrix"])
    def test_transient_peak_is_a_few_rows(self, tmp_path, write):
        # a block of 16384 values as Python floats would take 0.55 MB
        s = random_set(np.random.default_rng(16), n=1000, d=256)
        row = 256 * (8 + 24)  # one row as a list of Python floats
        tracemalloc.start()
        try:
            write(s, tmp_path / "e.tsv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * row, peak


class TestTsvReaderBlocks:
    """The TSV readers grow one array as they read, not a list of rows."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(s=writable_sets().filter(lambda s: s.vectors.size))
    def test_any_block_size_reads_the_same(self, tmp_path, s):
        store.write_embeddings_tsv(s, tmp_path / "e.tsv")
        store.write_matrix_tsv(s.vectors, tmp_path / "m.tsv")
        got, m = store.read_embeddings(tmp_path / "e.tsv"), store.read_matrix(tmp_path / "m.tsv")
        assert got.ids == s.ids
        assert got.vectors.tobytes() == s.vectors.tobytes()  # .9g roundtrips float32
        assert m.dtype == np.float64 and m.astype(np.float32).tobytes() == s.vectors.tobytes()

    def test_peak_memory_near_result_size(self, tmp_path):
        # a list of Python floats per row takes 9 times the result's bytes, and
        # array blocks joined by a concatenate at the end about 2.1 times
        s = random_set(np.random.default_rng(15), n=1000, d=256)
        store.write_embeddings_tsv(s, tmp_path / "e.tsv")
        tracemalloc.start()
        try:
            got = store.read_embeddings(tmp_path / "e.tsv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.vectors.tobytes() == s.vectors.tobytes()
        assert peak < 2 * got.vectors.nbytes


class TestLabels:
    def test_sidecar_roundtrip(self, tmp_path):
        labels = {"u1": "spkA", "u2": "spkB"}
        path = tmp_path / "lab.tsv"
        store.write_labels(labels, path)
        assert store.read_labels(path) == labels

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u1 spkA\n")
        with pytest.raises(FormatError):
            store.read_labels(path)


class TestMatrix:
    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(12, 5)).astype(np.float32)
        path = tmp_path / "m.feats"
        store.write_matrix(m, path)
        np.testing.assert_array_equal(store.read_matrix(path), m.astype(np.float64))

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m=arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 4)),
                    elements=st.floats(-3.4e38, 3.4e38)),
           block=st.sampled_from([1, 5, 40, 1 << 20]))
    def test_binary_bytes_equal_a_set_of_frame_ids(self, tmp_path, m, block):
        """Frame ids 0 to T-1 are written a block at a time, as records of mixed id lengths
        once T passes 10, and values are rounded to float32 as they are written: the bytes of
        the earlier writer on a set of those ids."""
        with mock.patch.object(store, "_RECORD_BLOCK", block):
            store.write_matrix(m, tmp_path / "new.feats")
        oracle_write_embeddings(store.EmbeddingSet([str(t) for t in range(len(m))], m), tmp_path / "old.feats")
        assert (tmp_path / "new.feats").read_bytes() == (tmp_path / "old.feats").read_bytes()

    @pytest.mark.parametrize("m, message", [
        (np.zeros(3), "matrix must be 2-D, got shape (3,)"),
        (np.zeros((1, 2, 2)), "matrix must be 2-D, got shape (1, 2, 2)"),
        (np.array([[0.0, np.nan]]), "non-finite embedding values"),
        (np.array([[-np.inf, 0.0]]), "non-finite embedding values"),
        (np.array([[0.0, 3.5e38]]), "non-finite embedding values"),  # past float32's range
        (np.zeros((2, 0)), "SVEB records need at least one value, got dimension 0"),
    ], ids=["1-d", "3-d", "nan", "-inf", "past-float32", "dimension-0"])
    def test_an_unwritable_matrix_creates_no_file(self, tmp_path, m, message):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the float32 cast of 3.5e38 warns, as it did
            with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
                store.write_matrix(m, tmp_path / "m.feats")
        assert not (tmp_path / "m.feats").exists()

    def test_binary_write_holds_one_block(self, tmp_path):
        """40k frames of 80 float64 values: one block of records, not a set of 40k id strings
        and a float32 copy of the matrix: 3.3 MiB traced, 18.3 MiB before."""
        m = np.random.default_rng(10).normal(size=(40000, 80))
        store.write_matrix(m, tmp_path / "m.feats")
        tracemalloc.start()
        try:
            store.write_matrix(m, tmp_path / "m.feats")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * store._RECORD_BLOCK, peak
        np.testing.assert_array_equal(store.read_matrix(tmp_path / "m.feats"), m.astype(np.float32))

    def test_plain_tsv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(7, 3))
        path = tmp_path / "m.tsv"
        store.write_matrix_tsv(m, path)
        np.testing.assert_allclose(store.read_matrix(path), m, rtol=1e-8)

    def test_id_prefixed_tsv_accepted(self, tmp_path):
        path = tmp_path / "rec.tsv"
        path.write_text("f0\t1.0\t2.0\nf1\t3.0\t4.0\n")
        np.testing.assert_array_equal(store.read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_first_record_fixes_layout(self, tmp_path):
        path = tmp_path / "plain.tsv"
        path.write_text("1\t2\t3\nx\t2\t3\n")  # plain layout, then a non-numeric field
        with pytest.raises(FormatError, match="plain.tsv:2: non-numeric value"):
            store.read_matrix(path)

    def test_empty_matrix_file(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("")
        with pytest.raises(FormatError):
            store.read_matrix(path)
