import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svkit import store
from svkit.errors import ContractError, FormatError


def random_set(rng, n=10, d=8, labels=False):
    ids = [f"spk{k // 2}-utt{k}" for k in range(n)]
    vecs = rng.normal(size=(n, d)).astype(np.float32)
    labs = {i: i.split("-")[0] for i in ids} if labels else None
    return store.EmbeddingSet(ids, vecs, labs)


class TestEmbeddingSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ContractError):
            store.EmbeddingSet(["a", "a"], np.zeros((2, 3), np.float32))

    def test_whitespace_id_rejected(self):
        with pytest.raises(ContractError):
            store.EmbeddingSet(["a b"], np.zeros((1, 3), np.float32))
        with pytest.raises(ContractError):
            store.EmbeddingSet([""], np.zeros((1, 3), np.float32))

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractError):
            store.EmbeddingSet(["a"], np.array([[np.nan, 0.0]], np.float32))

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

    def test_invalid_record_is_format_error(self, tmp_path):
        path = tmp_path / "nan.sveb"
        path.write_bytes(b"SVEB" + struct.pack("<HQIH", 1, 1, 1, 1) + b"a"
                         + struct.pack("<f", float("nan")))
        with pytest.raises(FormatError, match="non-finite"):
            store.read_embeddings(path)

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

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "n.tsv"
        path.write_text("a\t1.0\tbogus\n")
        with pytest.raises(FormatError):
            store.read_embeddings(path)


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

    def test_label_array_requires_full_coverage(self):
        s = store.EmbeddingSet(["a", "b"], np.eye(2, dtype=np.float32), {"a": "x"})
        with pytest.raises(ContractError, match="b"):
            s.label_array()


class TestMatrix:
    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(12, 5)).astype(np.float32)
        path = tmp_path / "m.feats"
        store.write_matrix(m, path)
        np.testing.assert_array_equal(store.read_matrix(path), m.astype(np.float64))

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

    def test_empty_matrix_file(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("")
        with pytest.raises(FormatError):
            store.read_matrix(path)
