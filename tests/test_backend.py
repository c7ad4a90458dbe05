import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import oracle_fit_lda, oracle_lda
from svkit import backend, store
from svkit.errors import ContractError, FormatError


def make_set(vecs, prefix="u"):
    vecs = np.asarray(vecs, dtype=np.float32)
    return store.EmbeddingSet([f"{prefix}{k}" for k in range(len(vecs))], vecs)


def labelled(vecs, labels):
    """make_set(vecs) and the map from its ids, in order, to `labels`."""
    s = make_set(vecs)
    return s, dict(zip(s.ids, labels))


def svpl_bytes(*parts: bytes) -> bytes:
    return backend.PIPELINE_MAGIC + struct.pack("<H", backend.PIPELINE_VERSION) + b"".join(parts)


def svpl_mat(rows) -> bytes:
    m = np.asarray(rows, dtype="<f4").reshape(len(rows), -1)
    return struct.pack("<II", *m.shape) + m.tobytes()


# finite float32 values; the edge values are drawn often, not left to chance
FLOAT32 = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, 3.4028235e38]),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)


@st.composite
def pipelines(draw):
    d = draw(st.integers(0, 5))
    center = draw(st.none() | arrays(np.float32, d, elements=FLOAT32))
    lda = draw(st.none() | arrays(np.float32, st.tuples(st.just(d), st.integers(1, 5)), elements=FLOAT32))
    return backend.Pipeline(center=center, lda=lda, length_norm=draw(st.booleans()))


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def labelled_set(seed, n, d, classes):
    """n rows of d dims around `classes` speaker means, the speakers in shuffled row order,
    and the label map."""
    rng = np.random.default_rng(seed)
    codes = rng.permutation(np.arange(n) % classes)
    x = rng.normal(size=(classes, d))[codes] * 3 + rng.normal(size=(n, d))
    return labelled(x, [f"s{c}" for c in codes])


def assert_near_earlier_fit(s, labels, proj, want):
    """The projection `proj`, and the set with it applied and length-normalised, within 1e-6
    of the same from `want`, the earlier fit's float64 projection."""
    np.testing.assert_allclose(proj, want, rtol=0, atol=1e-6)
    old = backend.Pipeline(lda=want, length_norm=True)
    np.testing.assert_allclose(backend.apply_pipeline(backend.Pipeline(lda=proj, length_norm=True), s).vectors,
                               backend.apply_pipeline(old, s).vectors, rtol=0, atol=1e-6)


def brute_force_lda(x, labels, k, ridge_scale=1e-6):
    """Independent oracle: explicit inverse and dense nonsymmetric eig."""
    classes = np.unique(labels)
    d = x.shape[1]
    mean = x.mean(axis=0)
    sw = np.zeros((d, d))
    sb = np.zeros((d, d))
    for c in classes:
        xc = x[labels == c]
        mc = xc.mean(axis=0)
        sw += (xc - mc).T @ (xc - mc)
        sb += len(xc) * np.outer(mc - mean, mc - mean)
    eps = ridge_scale * np.trace(sw) / d
    if eps <= 0:
        eps = 1e-12
    vals, vecs = np.linalg.eig(np.linalg.inv(sw + eps * np.eye(d)) @ sb)
    order = np.argsort(vals.real)[::-1][:k]
    return vecs[:, order].real


def principal_angles(a, b):
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(sv, -1, 1))


class TestFitCenter:
    def test_symmetric_pair(self):
        s = make_set([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(backend.fit_center(s), [0.0, 0.0])

    def test_single_vector(self):
        s = make_set([[2.0, -3.0, 0.5]])
        np.testing.assert_array_equal(backend.fit_center(s), [2.0, -3.0, 0.5])

    def test_random_matches_direct_mean(self):
        rng = np.random.default_rng(0)
        vecs = rng.normal(size=(40, 6)).astype(np.float32)
        got = backend.fit_center(make_set(vecs))
        np.testing.assert_allclose(got, vecs.astype(np.float64).mean(axis=0), atol=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ContractError):
            backend.fit_center(store.EmbeddingSet([], np.zeros((0, 3), np.float32)))

    def test_no_float64_copy_of_the_set(self):
        s, _ = labelled_set(0, 4000, 256, 40)
        mean, peak = traced_peak(backend.fit_center, s)
        assert mean.tobytes() == s.vectors.astype(np.float64).mean(axis=0).tobytes()
        assert peak < s.vectors.size * 8, peak

    @pytest.mark.parametrize("rows", [1, 7, 512, 4096])
    def test_the_rows_are_added_in_order_at_any_block(self, tmp_path, monkeypatch, rows):
        """Blocks of 1 to 4096 rows: the mean has the bytes of mean(axis=0, dtype=float64),
        from the file as from the set in memory.  The values span 24 decades, so that float64
        sums of them are inexact and another order of the additions gives other bytes."""
        rng = np.random.default_rng(3)
        s = make_set(rng.normal(size=(4100, 16)) * 10.0 ** rng.uniform(-12, 12, (4100, 16)))
        store.write_embeddings(s, tmp_path / "e.sveb")
        monkeypatch.setattr(backend, "APPLY_BLOCK", 2 * rows * s.dim)
        want = s.vectors.mean(axis=0, dtype=np.float64).tobytes()
        assert backend.fit_center(backend.TrainingSet(tmp_path / "e.sveb")).tobytes() == want
        assert backend.fit_center(s).tobytes() == want


class TestTrainingSet:
    @pytest.mark.parametrize("width", [0, 4], ids=["mixed-ids", "one-id-length"])
    @pytest.mark.parametrize("rows", [1, 7, 512])
    @pytest.mark.parametrize("record", [1, 24, 1 << 20])
    def test_rows_are_the_same_ranges_at_any_record_block(self, tmp_path, monkeypatch, width, rows, record):
        """Each pass of a file gives (first row, float64 rows) blocks of APPLY_BLOCK // (2 * dim)
        rows from row 0 on, fewer in the last, whatever _RECORD_BLOCK is: the blocks of the
        set in memory."""
        vecs = np.random.default_rng(5).normal(size=(1030, 6)).astype(np.float32)
        s = store.EmbeddingSet([f"u{k:0{width}d}" for k in range(len(vecs))], vecs)
        store.write_embeddings(s, tmp_path / "e.sveb")
        monkeypatch.setattr(backend, "APPLY_BLOCK", 2 * rows * s.dim + 1)
        monkeypatch.setattr(store, "_RECORD_BLOCK", record)
        want = [(lo, vecs[lo : lo + rows].astype(np.float64).tobytes()) for lo in range(0, len(vecs), rows)]
        t = backend.TrainingSet(tmp_path / "e.sveb")
        for _ in range(2):  # the pass that checks against the first one's ids, twice
            assert [(lo, x.tobytes()) for lo, x in t.rows()] == want
        assert [(lo, x.tobytes()) for lo, x in backend.TrainingSet(s).rows()] == want


class TestFitLda:
    def test_two_class_axis_recovery(self):
        rng = np.random.default_rng(0)
        n, d = 500, 8
        xa = rng.normal(0, 1.0, size=(n, d)) + np.eye(d)[0]
        xb = rng.normal(0, 1.0, size=(n, d)) - np.eye(d)[0]
        x = np.vstack([xa, xb])
        labels = ["a"] * n + ["b"] * n
        w = backend.fit_lda(*labelled(x, labels), k=1)[:, 0]
        assert abs(w @ np.eye(d)[0]) > 0.99

    def test_singular_within_class_no_failure(self):
        # all samples identical per class: S_w is exactly zero
        x = np.array([[1.0, 0.0, 0.0]] * 5 + [[0.0, 1.0, 0.0]] * 5)
        labels = ["a"] * 5 + ["b"] * 5
        w = backend.fit_lda(*labelled(x, labels), k=1)[:, 0]
        proj_a = x[0] @ w
        proj_b = x[5] @ w
        assert abs(proj_a - proj_b) > 0.5  # class means clearly separated

    def test_three_class_matches_brute_force_eigensolve(self):
        rng = np.random.default_rng(2)
        means = np.array([[2, 0, 0, 0], [0, 3, 0, 0], [-1, -1, 1, 0]], dtype=float)
        x = np.vstack([rng.normal(size=(30, 4)) @ np.diag([1, 0.5, 2, 1]) + m for m in means])
        labels = sum([[f"c{i}"] * 30 for i in range(3)], [])
        k = 2
        proj = backend.fit_lda(*labelled(x, labels), k=k)
        oracle = brute_force_lda(x.astype(np.float32).astype(np.float64), np.asarray(labels), k)
        angles = principal_angles(proj, oracle)
        assert np.max(angles) < 1e-6

    def test_isotropic_scaling_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 5))
        labels = ["a"] * 20 + ["b"] * 20 + ["c"] * 20
        p1 = backend.fit_lda(*labelled(x, labels), k=2)
        p2 = backend.fit_lda(*labelled(x * 37.5, labels), k=2)
        np.testing.assert_allclose(p1, p2, atol=1e-5)

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 4))
        labels = ["a"] * 20 + ["b"] * 20
        proj = backend.fit_lda(*labelled(x, labels), k=1)[:, 0]
        nz = np.flatnonzero(np.abs(proj) > 1e-12)
        assert proj[nz[0]] > 0

    def test_contract_errors(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 4))
        with pytest.raises(ContractError):
            backend.fit_lda(*labelled(x, ["a"] * 10), k=1)  # one class
        with pytest.raises(ContractError):
            backend.fit_lda(*labelled(x, ["a"] * 5 + ["b"] * 5), k=2)  # k > C - 1
        with pytest.raises(ContractError):
            backend.fit_lda(make_set(x), None)  # no labels at all

    @pytest.mark.parametrize("labels", [None, {}])
    def test_an_empty_set_is_refused_first(self, labels):
        with pytest.raises(ContractError, match="^cannot fit LDA on an empty set$"):
            backend.fit_lda(make_set(np.zeros((0, 3))), labels)

    @pytest.mark.parametrize("labels, message", [
        (None, "embedding set has no labels"),
        ({"u0": "a", "u2": "a"}, "id 'u1' has no label"),  # the first unlabelled id in set order
        ({"u0": "a", "u1": "a", "u2": "a", "u3": "a"}, "LDA needs at least 2 classes, got 1"),
    ], ids=["no-labels", "unlabelled-id", "one-class"])
    def test_labels_are_checked_before_the_class_count(self, labels, message):
        with pytest.raises(ContractError, match=f"^{message}$"):
            backend.fit_lda(make_set(np.eye(4)), labels, k=5)

    def test_a_label_with_a_trailing_nul_is_its_own_class(self):
        """`spk` and `spk` with a trailing NUL are two speakers that sort as `spk` and `spkA`
        do, so they give the same projection: a numpy str array would read both as `spk`."""
        x = np.random.default_rng(12).normal(size=(4, 3))
        nul = backend.fit_lda(*labelled(x, ["spk", "spk\x00", "spk", "spk\x00"]))
        letter = backend.fit_lda(*labelled(x, ["spk", "spkA", "spk", "spkA"]))
        assert nul.shape == (3, 1)
        assert nul.tobytes() == letter.tobytes()

    def test_labels_of_ids_outside_the_set_are_ignored(self):
        x = np.random.default_rng(13).normal(size=(6, 3))
        s, labels = labelled(x, ["a", "b"] * 3)
        more = {"z": "c", **labels, "y": "d"}
        assert backend.fit_lda(s, more).tobytes() == backend.fit_lda(s, labels).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_bytes_equal_the_earlier_fit(self, tmp_path, seed):
        """Within 1e-6 of the earlier per-class fit, no longer byte-equal: the scatters are
        summed in blocks of whole classes, so only their summation order differs.  The
        float64 projection, the saved pipeline and every applied value stay within 1e-6
        (1.5e-8 at most on these six sets, a float32 rounding step)."""
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 151))
        s, labels = labelled_set(seed, c * int(rng.integers(2, 6)), int(rng.integers(c // 2 + 1, 129)), c)
        want, proj = oracle_fit_lda(s, labels), backend.fit_lda(s, labels)
        np.testing.assert_allclose(proj, want, rtol=0, atol=1e-6)
        backend.save_pipeline(backend.Pipeline(lda=proj), tmp_path / "new.svpl")
        assert_near_earlier_fit(s, labels, backend.load_pipeline(tmp_path / "new.svpl").lda, want)

    def test_no_float64_copy_of_the_set(self):
        s, labels = labelled_set(1, 4000, 256, 40)
        proj, peak = traced_peak(backend.fit_lda, s, labels)
        assert_near_earlier_fit(s, labels, proj, oracle_fit_lda(s, labels))
        assert peak < s.vectors.size * 8, peak

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_class_block_is_within_1e_6_of_the_earlier_fit(self, data):
        """Class sizes from 1 up in shuffled rows, read from an SVEB file of one id length or
        several, and fitted in blocks of one row up to the whole set: the projection and the applied values stay
        within 1e-6 of the per-class loop, and have the bytes of the fit in memory."""
        sizes = data.draw(st.lists(st.integers(1, 12), min_size=2, max_size=16), label="sizes")
        d = data.draw(st.integers(1, 12), label="d")
        rows = data.draw(st.integers(1, sum(sizes)), label="rows per product block")
        budget = 2 * rows * d + data.draw(st.integers(0, 2 * d - 1), label="spare values")  # rows and their means
        width = data.draw(st.sampled_from([0, 3]), label="id width")  # 3: one id length, one stride
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        codes = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        x = rng.normal(size=(len(sizes), d))[codes] * 3 + rng.normal(size=(len(codes), d))
        s = store.EmbeddingSet([f"u{k:0{width}d}" for k in range(len(codes))], x)
        labels = dict(zip(s.ids, [f"s{c}" for c in codes]))
        want = oracle_fit_lda(s, labels)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(backend, "APPLY_BLOCK", budget):
            store.write_embeddings(s, Path(tmp) / "e.sveb")
            proj = backend.fit_lda(backend.TrainingSet(Path(tmp) / "e.sveb"), labels)
            assert_near_earlier_fit(s, labels, proj, want)
            assert proj.tobytes() == backend.fit_lda(s, labels).tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scipy_generalized_eigh(self, seed):
        """dims 8-256, 3-120 classes.  Each column whose eigenvalue lies more
        than 1e-3 of the largest from both neighbours (a degenerate eigenspace
        has no unique basis) equals scipy's float64 column to within the float32
        rounding that Pipeline adds (2^-25 below 1) plus 1e-9."""
        rng = np.random.default_rng(seed)
        d, c, per = int(rng.integers(8, 257)), int(rng.integers(3, 121)), int(rng.integers(2, 7))
        means = rng.normal(size=(c, d)) * rng.uniform(0.5, 3)
        x = np.repeat(means, per, axis=0) + rng.normal(size=(c * per, d)) * rng.uniform(0.2, 1, d)
        s, labels = labelled(x, [f"s{k // per}" for k in range(c * per)])
        got = backend.fit_lda(s, labels)
        want, vals = oracle_lda(s, labels)
        top = np.sort(vals)[::-1]
        gap = np.minimum(np.abs(np.diff(top, prepend=np.inf)), np.abs(np.diff(top, append=-np.inf)))
        separated = gap[: got.shape[1]] > 1e-3 * top[0]
        assert separated.any()
        np.testing.assert_allclose(got[:, separated], want[:, separated], rtol=0, atol=2**-25 + 1e-9)


class TestLengthNormalize:
    """The length-norm stage of apply_pipeline."""

    @staticmethod
    def normalize(rows):
        return backend.apply_pipeline(backend.Pipeline(length_norm=True), make_set(rows)).vectors

    def test_three_four(self):
        np.testing.assert_array_equal(self.normalize([[3.0, 4.0]]), np.float32([[0.6, 0.8]]))

    def test_idempotent_on_unit(self):
        v = self.normalize([[1.0, 2.0, -0.5]])
        np.testing.assert_array_equal(self.normalize(v), v)

    def test_zero_errors(self):
        with pytest.raises(ContractError, match="zero vector"):
            self.normalize([[1.0, 2.0], [0.0, 0.0]])


class TestApplyPipeline:
    def test_empty_pipeline_identity(self):
        s = make_set(np.random.default_rng(6).normal(size=(5, 3)))
        out = backend.apply_pipeline(backend.Pipeline(), s)
        assert out.ids == s.ids
        np.testing.assert_array_equal(out.vectors, s.vectors)

    def test_length_norm_only(self):
        s = make_set([[3.0, 4.0]])
        out = backend.apply_pipeline(backend.Pipeline(length_norm=True), s)
        np.testing.assert_allclose(out.vectors[0], [0.6, 0.8], atol=1e-7)

    def test_center_then_normalize(self):
        s = make_set([[2.0, 0.0], [0.0, 0.0]])
        pipe = backend.Pipeline(center=backend.fit_center(s), length_norm=True)
        out = backend.apply_pipeline(pipe, s)
        np.testing.assert_allclose(out.vectors, [[1.0, 0.0], [-1.0, 0.0]], atol=1e-7)

    def test_unit_norm_after_apply(self):
        rng = np.random.default_rng(7)
        s, labels = labelled(rng.normal(size=(30, 6)), [f"s{k % 3}" for k in range(30)])
        pipe = backend.Pipeline(
            center=backend.fit_center(s), lda=backend.fit_lda(s, labels, 2), length_norm=True
        )
        out = backend.apply_pipeline(pipe, s)
        norms = np.linalg.norm(out.vectors.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)
        assert out.ids == s.ids
        assert out.dim == 2

    def test_centered_mean_is_zero(self):
        rng = np.random.default_rng(8)
        s = make_set(rng.normal(5.0, 2.0, size=(50, 4)))
        pipe = backend.Pipeline(center=backend.fit_center(s))
        out = backend.apply_pipeline(pipe, s)
        np.testing.assert_allclose(
            out.vectors.astype(np.float64).mean(axis=0), 0.0, atol=1e-5
        )

    def test_cosine_invariant_to_per_vector_scaling(self):
        rng = np.random.default_rng(9)
        vecs = rng.normal(size=(10, 5))
        scales = rng.uniform(0.1, 10.0, size=(10, 1))
        pipe = backend.Pipeline(length_norm=True)
        a = backend.apply_pipeline(pipe, make_set(vecs)).vectors.astype(np.float64)
        b = backend.apply_pipeline(pipe, make_set(vecs * scales)).vectors.astype(np.float64)
        np.testing.assert_allclose(a @ a.T, b @ b.T, atol=1e-5)

    @staticmethod
    def full_pipeline(s, labels):
        centered = backend.apply_pipeline(backend.Pipeline(center=backend.fit_center(s)), s)
        return backend.Pipeline(center=backend.fit_center(s), lda=backend.fit_lda(centered, labels),
                                length_norm=True)

    def test_any_block_gives_the_same_bytes(self, monkeypatch):
        """Blocks of 3 rows: 333 whole blocks and a last one of 1 row, and a 1-row set."""
        s, labels = labelled_set(2, 1000, 256, 20)
        pipes = [self.full_pipeline(s, labels), backend.Pipeline(center=backend.fit_center(s)),
                 backend.Pipeline(length_norm=True)]
        whole = [backend.apply_pipeline(p, t).vectors.tobytes() for p in pipes for t in (s, s.select(["u7"]))]
        monkeypatch.setattr(backend, "APPLY_BLOCK", 3 * s.dim)
        blocks = [backend.apply_pipeline(p, t).vectors.tobytes() for p in pipes for t in (s, s.select(["u7"]))]
        assert blocks == whole

    def test_zero_vector_in_a_later_block(self, monkeypatch):
        vecs = np.random.default_rng(3).normal(size=(1000, 4))
        vecs[700] = 0
        monkeypatch.setattr(backend, "APPLY_BLOCK", 3 * 4)
        with pytest.raises(ContractError, match="cannot length-normalize a zero vector"):
            backend.apply_pipeline(backend.Pipeline(length_norm=True), make_set(vecs))

    def test_transient_peak_is_a_few_blocks(self):
        s, _ = labelled_set(4, 4000, 256, 40)
        pipe = backend.Pipeline(center=backend.fit_center(s),
                                lda=np.eye(256, 200), length_norm=True)
        out, peak = traced_peak(backend.apply_pipeline, pipe, s)
        assert out.dim == 200
        assert peak < out.vectors.nbytes + 4 * 8 * backend.APPLY_BLOCK, peak

    def test_a_float32_overflow_is_refused_without_a_warning(self):
        """A finite center can push an output past float32's range: the set is refused as
        non-finite, and the cast warns nothing (the "error" warning filter would fail it)."""
        s = make_set([[3e38, -3e38], [-3e38, 3e38]])
        with pytest.raises(ContractError, match="^non-finite embedding values$"):
            backend.apply_pipeline(backend.Pipeline(center=np.full(2, -3e38)), s)

    def test_stage_arrays_are_checked_float32(self):
        """Pipeline casts each stage array to float32 and refuses a wrong rank, a k of 0, a
        non-finite value and stages of two dims."""
        p = backend.Pipeline(center=np.arange(3.0), lda=np.eye(3, 2))
        assert p.center.dtype == p.lda.dtype == np.float32
        for kwargs, message in [
            ({"center": np.zeros((1, 3))}, "center mean must be a finite D-vector"),
            ({"center": [0.0, np.inf]}, "center mean must be a finite D-vector"),
            ({"lda": np.zeros(3)}, "LDA projection must be a finite D x k matrix"),
            ({"lda": np.zeros((3, 0))}, "LDA projection must be a finite D x k matrix"),
            ({"lda": [[np.nan]]}, "LDA projection must be a finite D x k matrix"),
            ({"center": np.zeros(2), "lda": np.eye(3)}, "center dim 2 != LDA input dim 3"),
        ]:
            with pytest.raises(ContractError, match=f"^{message}$"):
                backend.Pipeline(**kwargs)

    def test_a_stage_past_float32_is_refused_without_a_warning(self):
        """A finite float64 value past float32's range casts to an infinity, which Pipeline
        refuses; the cast warns nothing (the "error" warning filter would fail it)."""
        for kwargs, message in [({"center": [0.0, 1e300]}, "center mean must be a finite D-vector"),
                                ({"lda": [[1.0], [-1e300]]}, "LDA projection must be a finite D x k matrix")]:
            with pytest.raises(ContractError, match=f"^{message}$"):
                backend.Pipeline(**kwargs)

    def test_dimension_mismatch(self):
        s = make_set(np.ones((3, 4), np.float32))
        pipe = backend.Pipeline(center=np.zeros(5))
        with pytest.raises(ContractError):
            backend.apply_pipeline(pipe, s)


class TestPipelineIO:
    def test_roundtrip_bitwise_apply(self, tmp_path):
        rng = np.random.default_rng(10)
        s, labels = labelled(rng.normal(size=(24, 6)), [f"s{k % 4}" for k in range(24)])
        pipe = backend.Pipeline(
            center=backend.fit_center(s), lda=backend.fit_lda(s, labels, 3), length_norm=True
        )
        path = tmp_path / "p.svpl"
        backend.save_pipeline(pipe, path)
        back = backend.load_pipeline(path)
        a = backend.apply_pipeline(pipe, s)
        b = backend.apply_pipeline(back, s)
        assert a.vectors.tobytes() == b.vectors.tobytes()

    def test_empty_pipeline_roundtrip(self, tmp_path):
        path = tmp_path / "e.svpl"
        backend.save_pipeline(backend.Pipeline(), path)
        back = backend.load_pipeline(path)
        assert back.center is None and back.lda is None and not back.length_norm

    def test_partial_pipelines_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        s, labels = labelled(rng.normal(size=(12, 4)), [f"s{k % 2}" for k in range(12)])
        variants = [
            backend.Pipeline(center=backend.fit_center(s)),
            backend.Pipeline(lda=backend.fit_lda(s, labels, 1)),
            backend.Pipeline(length_norm=True),
            backend.Pipeline(center=backend.fit_center(s), length_norm=True),
        ]
        for i, pipe in enumerate(variants):
            path = tmp_path / f"v{i}.svpl"
            backend.save_pipeline(pipe, path)
            back = backend.load_pipeline(path)
            assert (back.center is None) == (pipe.center is None)
            assert (back.lda is None) == (pipe.lda is None)
            assert back.length_norm == pipe.length_norm

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pipe=pipelines())
    def test_roundtrip_property_bit_exact(self, tmp_path, pipe):
        path, again = tmp_path / "p.svpl", tmp_path / "q.svpl"
        backend.save_pipeline(pipe, path)
        back = backend.load_pipeline(path)
        backend.save_pipeline(back, again)
        for stage in ("center", "lda"):
            want, got = getattr(pipe, stage), getattr(back, stage)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        assert back.length_norm == pipe.length_norm
        assert again.read_bytes() == path.read_bytes()

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(12)
        s = make_set(rng.normal(size=(6, 3)))
        path = tmp_path / "t.svpl"
        backend.save_pipeline(backend.Pipeline(center=backend.fit_center(s)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])
        with pytest.raises(FormatError, match="truncated"):
            backend.load_pipeline(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "b.svpl"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(FormatError):
            backend.load_pipeline(path)

    @pytest.mark.parametrize("body, message", [
        (b"\x01" + struct.pack("<II", 0, 2) + b"\x00\x00", "center mean has 0 rows"),
        (b"\x01" + svpl_mat([[1, 2], [3, 4]]) + b"\x00\x00", "center mean has 2 rows"),
        (b"\x07" + svpl_mat([[1, 2]]) + b"\x00\x00", "flag byte 7"),
        (b"\x00\x00\x02", "flag byte 2"),
        (b"\x01" + svpl_mat([[np.nan, 2]]) + b"\x00\x00", "center mean must be a finite"),
        (b"\x00\x01" + svpl_mat([[np.nan], [1]]) + b"\x00", "LDA projection must be a finite"),
        (b"\x01" + svpl_mat([[1, 2]]) + b"\x01" + svpl_mat([[1], [2], [3]]) + b"\x00",
         "center dim 2 != LDA input dim 3"),
    ], ids=["empty-center", "two-row-center", "presence-byte-7", "length-norm-byte-2",
            "nan-center", "nan-lda", "stage-dims-differ"])
    def test_malformed_stage_is_format_error(self, tmp_path, body, message):
        path = tmp_path / "bad.svpl"
        path.write_bytes(svpl_bytes(body))
        with pytest.raises(FormatError, match=f"bad.svpl: {message}"):
            backend.load_pipeline(path)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=st.one_of(
        st.binary(max_size=48),
        # flag bytes, matrix headers and float32 values, so the stage checks are reached
        st.lists(st.one_of(
            st.sampled_from([b"\x00", b"\x01", b"\x07"]),
            st.builds(lambda r, c: struct.pack("<II", r, c),
                      st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1)),
                      st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1))),
            st.floats(width=32).map(lambda v: struct.pack("<f", v)),
        ), max_size=12).map(b"".join),
    ))
    def test_arbitrary_bytes_only_format_error(self, tmp_path, body):
        path = tmp_path / "fuzz.svpl"
        path.write_bytes(svpl_bytes(body))
        try:
            backend.load_pipeline(path)
        except FormatError:
            pass
