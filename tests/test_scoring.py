import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import cosine_score, oracle_build_enrollment, oracle_score_block, oracle_write_scores
from svkit import scoring, store
from svkit.errors import ContractError, FormatError


# any text a UTF-8 file can hold (surrogates cannot be encoded)
NAMES = st.text(st.characters(exclude_categories=["Cs"]), min_size=1, max_size=4)
FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


def embset(vecs, prefix="x"):
    vecs = np.asarray(vecs, dtype=np.float32)
    return store.EmbeddingSet([f"{prefix}{k}" for k in range(len(vecs))], vecs)


class TestParseTrials:
    def test_labeled_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("e1 t1 target\n")
        trials = scoring.parse_trials(path)
        assert trials.pairs == [("e1", "t1")]
        np.testing.assert_array_equal(trials.labels, [True])

    def test_case_insensitive_labels(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("e1 t1 TARGET\ne1 t2 NonTarget\n")
        trials = scoring.parse_trials(path)
        np.testing.assert_array_equal(trials.labels, [True, False])

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# header\n\ne1 t1   # inline comment\ne2 t2\n")
        trials = scoring.parse_trials(path)
        assert trials.pairs == [("e1", "t1"), ("e2", "t2")]
        assert trials.labels is None

    def test_duplicate_pair(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("e1 t1\ne1 t1\n")
        with pytest.raises(FormatError, match=":2"):
            scoring.parse_trials(path)

    def test_bogus_label(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("e1 t1 bogus\n")
        with pytest.raises(FormatError, match=":1"):
            scoring.parse_trials(path)

    def test_mixed_labeling(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("e1 t1 target\ne2 t2\n")
        with pytest.raises(FormatError, match="mixed"):
            scoring.parse_trials(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("justone\n")
        with pytest.raises(FormatError, match=":1"):
            scoring.parse_trials(path)

    def test_direct_list_with_a_repeated_pair(self):
        """parse_trials checks its pairs as it reads them; a list built directly is checked
        when it is made."""
        with pytest.raises(ContractError, match=r"duplicate \(enroll, test\) pair"):
            scoring.TrialList.from_pairs([("e1", "t1"), ("e2", "t1"), ("e1", "t1")])

    @pytest.mark.parametrize("enroll, test", [([0, 1], [0]), ([1], [0]), ([0], [-1]), ([[0]], [[0]])])
    def test_direct_codes_must_index_the_id_lists(self, enroll, test):
        with pytest.raises(ContractError, match="trial codes must be two 1-D arrays"):
            scoring.TrialList(["e1"], enroll, ["t1"], test)


def enroll_models(models):
    """build_enrollment over {model_id: member vectors}: each member is a row
    of one embedding set, and the map groups the rows into models."""
    ids = [f"{m}-{k}" for m, vecs in models.items() for k in range(len(vecs))]
    vecs = [v for vs in models.values() for v in vs]
    enroll = store.EmbeddingSet(ids, np.array(vecs, np.float32).reshape(len(ids), 2))  # 2-D when empty
    member_map = {m: [f"{m}-{k}" for k in range(len(vecs))] for m, vecs in models.items()}
    return scoring.build_enrollment(enroll, member_map)


@st.composite
def enrollments(draw):
    """An embedding set, and a member map over its ids (a member may repeat
    or be shared) or None."""
    n, dim = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    enroll = embset(draw(arrays(np.float32, (n, dim), elements=FLOAT32, fill=st.nothing())), "s")
    members = st.lists(st.sampled_from(enroll.ids), min_size=1, max_size=4)
    models = st.dictionaries(st.text("mn", min_size=1, max_size=3), members, min_size=1, max_size=4)
    member_map = draw(st.none() | models)
    return enroll, member_map


# float32 values whose copies scaled by 2**k, |k| <= 20, are exact normal float32 numbers,
# so each product and sum of a score is scaled exactly and no score bit may change
MAGNITUDES = st.floats(2.0 ** -100, 2.0 ** 100, width=32)
SCALABLE = st.one_of(st.just(0.0), MAGNITUDES, MAGNITUDES.map(lambda v: -v))
# one side and the other of a block boundary (4 and 3 rows per block), one row per block
SCALED_DIMS = [1, 3, scoring.SCORE_BLOCK // 4 - 1, scoring.SCORE_BLOCK // 4 + 1, scoring.SCORE_BLOCK + 1]


@st.composite
def scaled_sets(draw):
    """Enroll and test sets, the same sets with every vector scaled by its own power
    of two, and up to 16 (enroll, test) pairs over them."""
    dim = draw(st.sampled_from(SCALED_DIMS))
    sets = []
    for prefix in ("e", "t"):
        n = draw(st.integers(1, 4))
        vecs = draw(arrays(np.float32, (n, dim), elements=SCALABLE, fill=SCALABLE))
        k = draw(arrays(np.int32, n, elements=st.integers(-20, 20)))
        sets += [embset(vecs, prefix), embset(np.ldexp(vecs, k[:, None]), prefix)]
    enroll, scaled_enroll, test, scaled_test = sets
    pairs = draw(st.lists(st.tuples(st.sampled_from(enroll.ids), st.sampled_from(test.ids)),
                          min_size=1, max_size=16, unique=True))
    return enroll, test, scaled_enroll, scaled_test, pairs


def score_outcome(models, tests, trials):
    """score_trials' bytes, or the message of the ContractError it raises."""
    try:
        return scoring.score_trials(models, tests, trials).tobytes()
    except ContractError as e:
        return str(e)


class TestBuildEnrollment:
    def test_single_segment_normalized(self):
        models = enroll_models({"m1": [[3.0, 4.0]]})
        assert models.ids == ["m1"]
        np.testing.assert_array_equal(models.vectors, np.float32([[0.6, 0.8]]))
        alone = scoring.build_enrollment(embset([[3.0, 4.0]], "m"))  # no map: each id is a model
        assert alone.ids == ["m0"] and alone.vectors.tobytes() == models.vectors.tobytes()

    def test_two_members(self):
        models = enroll_models({"m": [[1.0, 0.0], [0.0, 1.0]]})
        np.testing.assert_allclose(models.vectors[0], np.array([1.0, 1.0]) / np.sqrt(2), rtol=0, atol=1e-7)

    def test_antipodal_members_error(self):
        with pytest.raises(ContractError, match="zero"):
            enroll_models({"m": [[1.0, 0.0], [-1.0, 0.0]]})

    def test_empty_member_list(self):
        with pytest.raises(ContractError, match="m1"):
            enroll_models({"m1": []})

    def test_scaling_of_members_irrelevant(self):
        a = enroll_models({"m": [[1.0, 1.0], [0.0, 2.0]]})
        b = enroll_models({"m": [[9.0, 9.0], [0.0, 0.1]]})
        np.testing.assert_allclose(a.vectors, b.vectors, rtol=0, atol=1e-7)

    def test_unknown_segment_or_no_model_errors(self):
        enroll = embset([[1.0, 0.0]], "s")
        with pytest.raises(ContractError, match="unknown id 'nosuch'"):
            scoring.build_enrollment(enroll, {"m": ["s0", "nosuch"]})
        with pytest.raises(ContractError, match="no enrollment models"):
            scoring.build_enrollment(enroll, {})

    @settings(max_examples=300, deadline=None)
    @given(case=enrollments())
    def test_bitwise_equal_to_oracle(self, case):
        enroll, member_map = case
        if member_map is None:
            segments = {i: [enroll.vector(i)] for i in enroll.ids}
        else:
            segments = {m: [enroll.vector(i) for i in ids] for m, ids in member_map.items()}
        try:
            want = oracle_build_enrollment(segments)
        except ContractError as e:  # the same check fails, with the same message
            with pytest.raises(ContractError) as got:
                scoring.build_enrollment(enroll, member_map)
            assert str(got.value) == str(e)
            return
        got = scoring.build_enrollment(enroll, member_map)
        assert got.ids == want.ids
        assert got.vectors.tobytes() == want.vectors.tobytes()


class TestCosine:
    def test_identical(self):
        assert cosine_score([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_score([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_known_value(self):
        got = cosine_score([1.0, 0.0], [1.0, 1.0])
        assert abs(got - 0.70710678) < 1e-8

    def test_zero_vector(self):
        with pytest.raises(ContractError):
            cosine_score([0.0, 0.0], [1.0, 0.0])


class TestScoreTrials:
    def test_identity_trial(self):
        models = embset([[1.0, 2.0, 3.0]], "m")
        tests = embset([[1.0, 2.0, 3.0]], "t")
        trials = scoring.TrialList.from_pairs([("m0", "t0")])
        np.testing.assert_allclose(scoring.score_trials(models, tests, trials), [1.0])

    def test_alignment_follows_trial_order(self):
        rng = np.random.default_rng(0)
        models = embset(rng.normal(size=(4, 5)), "m")
        tests = embset(rng.normal(size=(4, 5)), "t")
        pairs = [(f"m{i}", f"t{j}") for i in range(4) for j in range(4)]
        trials = scoring.TrialList.from_pairs(pairs)
        base = scoring.score_trials(models, tests, trials)
        perm = rng.permutation(len(pairs))
        shuffled = scoring.TrialList.from_pairs([pairs[k] for k in perm])
        got = scoring.score_trials(models, tests, shuffled)
        np.testing.assert_array_equal(got, base[perm])

    def test_matches_pairwise_cosine(self):
        rng = np.random.default_rng(1)
        models = embset(rng.normal(size=(6, 8)), "m")
        tests = embset(rng.normal(size=(7, 8)), "t")
        pairs = [(f"m{rng.integers(6)}", f"t{rng.integers(7)}") for _ in range(30)]
        trials = scoring.TrialList.from_pairs(list(dict.fromkeys(pairs)))
        got = scoring.score_trials(models, tests, trials)
        want = [
            cosine_score(models.vector(e), tests.vector(t)) for e, t in trials.pairs
        ]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_blocks_bitwise_identical(self):
        rng = np.random.default_rng(2)
        models = embset(rng.normal(size=(40, 16)), "m")
        tests = embset(rng.normal(size=(50, 16)), "t")
        pairs = [(f"m{i % 40}", f"t{(i * 7) % 50}") for i in range(1000)]
        trials = scoring.TrialList.from_pairs(list(dict.fromkeys(pairs)))
        base = scoring.score_trials(models, tests, trials)
        for block in (1, 17, 256, 4096, 100000):
            with mock.patch.object(scoring, "SCORE_BLOCK", block * 16):
                got = scoring.score_trials(models, tests, trials)
            assert got.tobytes() == base.tobytes()

    @pytest.mark.parametrize("dim", [1, 5, 13, 257])
    def test_bitwise_equal_to_block_oracle(self, dim):
        rng = np.random.default_rng(dim)
        scale = 10.0 ** rng.uniform(-20, 20, size=(60, 1))  # per-row magnitudes 1e-20..1e20
        m = (rng.normal(size=(20, dim)) * scale[:20]).astype(np.float32)
        t = (rng.normal(size=(40, dim)) * scale[20:]).astype(np.float32)
        models, tests = embset(m, "m"), embset(t, "t")
        rows = list(dict.fromkeys(zip(rng.integers(20, size=500), rng.integers(40, size=500))))
        trials = scoring.TrialList.from_pairs([(f"m{i}", f"t{j}") for i, j in rows])
        e, k = np.array(rows).T
        want = oracle_score_block(m[e], t[k])
        assert scoring.score_trials(models, tests, trials).tobytes() == want.tobytes()
        for block in (1, 5, 13, 17, 257, 1000):  # rows per block
            with mock.patch.object(scoring, "SCORE_BLOCK", block * dim):
                got = scoring.score_trials(models, tests, trials)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 256, scoring.SCORE_BLOCK - 1, scoring.SCORE_BLOCK + 1])
    def test_default_block_is_bounded_in_values(self, dim):
        models, tests = embset(np.ones((2, dim)), "m"), embset(np.ones((2, dim)), "t")
        with mock.patch.object(scoring, "_row_norms", wraps=scoring._row_norms) as norms:
            scoring.score_trials(models, tests, scoring.TrialList.from_pairs([("m0", "t0"), ("m1", "t1")]))
        assert {c.args[1] for c in norms.call_args_list} == {max(1, scoring.SCORE_BLOCK // dim)}

    @settings(max_examples=60, deadline=None)
    @given(inputs=scaled_sets())
    def test_power_of_two_scaling_changes_no_bit(self, inputs):
        models, tests, scaled_models, scaled_tests, trials = inputs
        trials = scoring.TrialList.from_pairs(trials)
        assert (score_outcome(scaled_models, scaled_tests, trials)
                == score_outcome(models, tests, trials))

    def test_zero_vector_only_when_referenced(self):
        models = embset([[1.0, 0.0]], "m")
        tests = embset([[0.0, 1.0], [0.0, 0.0]], "t")
        got = scoring.score_trials(models, tests, scoring.TrialList.from_pairs([("m0", "t0")]))
        np.testing.assert_array_equal(got, [0.0])
        for block in (1, 4096):
            with mock.patch.object(scoring, "SCORE_BLOCK", block * 2), \
                    pytest.raises(ContractError, match="cannot score a zero vector"):
                scoring.score_trials(models, tests, scoring.TrialList.from_pairs([("m0", "t0"), ("m0", "t1")]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(5, 4)).astype(np.float32)
        models = embset(vecs, "m")
        scaled = embset(vecs * np.float32(4.0), "m")
        tests = embset(rng.normal(size=(5, 4)), "t")
        trials = scoring.TrialList.from_pairs([(f"m{i}", f"t{i}") for i in range(5)])
        a = scoring.score_trials(models, tests, trials)
        b = scoring.score_trials(scaled, tests, trials)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_unknown_ids_named(self):
        models = embset(np.eye(2), "m")
        tests = embset(np.eye(2), "t")
        with pytest.raises(ContractError, match="unknown enrollment id 'm9'"):
            scoring.score_trials(models, tests, scoring.TrialList.from_pairs([("m9", "t0")]))
        with pytest.raises(ContractError, match="unknown test id 't9'"):
            scoring.score_trials(models, tests, scoring.TrialList.from_pairs([("m0", "t9")]))

    def test_first_unknown_id_in_trial_order_is_named(self):
        """Each distinct id is looked up once, in sorted order, but the error names
        the unknown id that comes first in trial order, enrollment ids before test ids."""
        models = embset(np.eye(2), "m")
        tests = embset(np.eye(2), "t")
        pairs = [("m0", "tz"), ("m1", "ta"), ("mz", "t0"), ("ma", "t1"), ("mz", "t1")]
        with pytest.raises(ContractError, match="unknown enrollment id 'mz'$"):
            scoring.score_trials(models, tests, scoring.TrialList.from_pairs(pairs))
        with pytest.raises(ContractError, match="unknown test id 'tz'$"):
            scoring.score_trials(models, tests, scoring.TrialList.from_pairs(pairs[:2]))


class TestScoreIO:
    def test_roundtrip(self, tmp_path):
        trials = scoring.TrialList.from_pairs([("e1", "t1"), ("e2", "t2")])
        scores = np.array([0.123456789, -0.5])
        path = tmp_path / "s.tsv"
        scoring.write_scores(trials, scores, path)
        back = scoring.read_scores(path, trials)
        assert back.dtype == np.float64 and back.shape == (2,)
        assert back[0] == pytest.approx(0.123457, abs=1e-9)
        assert back[1] == -0.5

    def test_six_decimals(self, tmp_path):
        trials = scoring.TrialList.from_pairs([("a", "b")])
        path = tmp_path / "s.tsv"
        scoring.write_scores(trials, np.array([1 / 3]), path)
        assert path.read_text() == "a\tb\t0.333333\n"

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pairs=st.lists(st.tuples(NAMES, NAMES), max_size=9, unique=True),
           data=st.data(), block=st.integers(1, 4))
    def test_byte_equal_to_per_value_writer(self, tmp_path, pairs, data, block):
        """At any block size, as oracles.py's f-string writer, on every
        float64 (NaN, infinities, -0.0 and subnormals included)."""
        trials = scoring.TrialList.from_pairs(pairs)
        scores = data.draw(arrays(np.float64, len(pairs), elements=st.one_of(
            st.sampled_from([-0.0, 5e-324, -1.7976931348623157e308, 4.9999995e-7]), st.floats())))
        with mock.patch.object(scoring, "WRITE_BLOCK", block):
            scoring.write_scores(trials, scores, tmp_path / "got.tsv")
        oracle_write_scores(trials, scores, tmp_path / "want.tsv")
        assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()

    def test_more_rows_than_one_block(self, tmp_path):
        n = 2 * scoring.WRITE_BLOCK + 3
        trials = scoring.TrialList.from_pairs([(f"e{k % 7}", f"t{k}") for k in range(n)])
        scores = np.random.default_rng(13).normal(size=n)
        scoring.write_scores(trials, scores, tmp_path / "got.tsv")
        oracle_write_scores(trials, scores, tmp_path / "want.tsv")
        assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()

    @pytest.mark.parametrize("scores, shape", [(np.float64(0.5), r"\(\)"),
                                               (np.array([[0.5]]), r"\(1, 1\)")])
    def test_wrong_shape_names_it(self, tmp_path, scores, shape):
        with pytest.raises(ContractError, match=f"scores of shape {shape} for 1 trials"):
            scoring.write_scores(scoring.TrialList.from_pairs([("a", "b")]), scores, tmp_path / "s.tsv")

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "1e999", "-1e999"])
    def test_non_finite_score_names_its_line(self, tmp_path, value):
        path = tmp_path / "s.tsv"
        path.write_text(f"a\tb\t0.5\n\nc\td\t{value}\n")
        with pytest.raises(FormatError, match=f"s.tsv:3: non-finite score '{value}'$"):
            scoring.read_scores(path, scoring.TrialList.from_pairs([("a", "b"), ("c", "d")]))

    def test_file_in_trial_order_builds_no_table(self, tmp_path):
        """The byte path checks the score column whole: no per-pair table, so
        no per-line finiteness check, which only the table path makes."""
        trials = scoring.TrialList.from_pairs([("a", "b"), ("c", "d"), ("a", "d")])
        path = tmp_path / "s.tsv"
        path.write_text("a\tb\t0.5\n\nc\td\t-1e-06\na\td\t2\n")
        with mock.patch.object(scoring, "math", wraps=scoring.math) as spy:
            np.testing.assert_array_equal(scoring.read_scores(path, trials), [0.5, -1e-06, 2])
        assert not spy.isfinite.called
        path.write_text("c\td\t-1e-06\na\tb\t0.5\na\td\t2\n")
        with mock.patch.object(scoring, "math", wraps=scoring.math) as spy:
            np.testing.assert_array_equal(scoring.read_scores(path, trials), [0.5, -1e-06, 2])
        assert spy.isfinite.call_count == 3

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_once(self, tmp_path):
        """A pipe cannot be opened twice, so it is read once into memory."""
        fifo = tmp_path / "s.fifo"
        os.mkfifo(fifo)
        trials = scoring.TrialList.from_pairs([("a", "b"), ("c", "d")])
        got = []
        reader = threading.Thread(target=lambda: got.append(scoring.read_scores(fifo, trials)), daemon=True)
        reader.start()
        fifo.write_text("c\td\t1\na\tb\t0.5\n")
        reader.join(timeout=10)
        assert not reader.is_alive(), "still waiting to read the pipe again"
        np.testing.assert_array_equal(got[0], [0.5, 1])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_piped_well_formed_files_skip_records(self, tmp_path):
        """A pipe is read once into memory, then as byte columns, as a file with its bytes is."""
        trials = scoring.TrialList.from_pairs([("a", "b"), ("c", "d")], [True, False])
        for name, text, read in (("trials", "a b target\nc d nontarget\n", scoring.parse_trials),
                                 ("scores", "a\tb\t0.5\nc\td\t1\n", lambda p: scoring.read_scores(p, trials))):
            fifo = tmp_path / name
            os.mkfifo(fifo)
            writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
            writer.start()
            with mock.patch.object(scoring, "records", wraps=store.records) as spy:
                got = read(fifo)
            writer.join(timeout=10)
            assert not writer.is_alive() and not spy.called, name
            if name == "trials":
                assert (got.pairs, got.labels.tolist()) == (trials.pairs, trials.labels.tolist())
            else:
                np.testing.assert_array_equal(got, [0.5, 1])

    @pytest.mark.parametrize("text", [
        "a\tb\t0.5\nc\td\t1\nx\ty\t9\nc\tb\t7\n",  # extra lines after the trials in order
        "a\tb\t0.5\nx\ty\t9\nc\td\t1\n",  # an extra line inside them
        "c\tb\t7\nc\td\t1\nx\ty\t9\na\tb\t0.5\n",  # permuted, with extra lines
    ])
    def test_lines_outside_the_trials_are_ignored(self, tmp_path, text):
        path = tmp_path / "s.tsv"
        path.write_text(text)
        trials = scoring.TrialList.from_pairs([("a", "b"), ("c", "d")])
        np.testing.assert_array_equal(scoring.read_scores(path, trials), [0.5, 1])

    @pytest.mark.parametrize("extra, error", [
        ("x\ty\tnan\n", "s.tsv:3: non-finite score 'nan'"),
        ("a\tb\t2\n", "s.tsv:3: duplicate pair a b"),
        ("x\ty\n", "s.tsv:3: expected 'enroll<TAB>test<TAB>score'")])
    def test_lines_outside_the_trials_are_still_checked(self, tmp_path, extra, error):
        path = tmp_path / "s.tsv"
        path.write_text("a\tb\t0.5\nc\td\t1\n" + extra)
        with pytest.raises(FormatError, match=f"{error}$"):
            scoring.read_scores(path, scoring.TrialList.from_pairs([("a", "b"), ("c", "d")]))

    def test_enroll_map(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("m1 s1 s2\nm2 s3\n")
        assert scoring.parse_enroll_map(path) == {"m1": ["s1", "s2"], "m2": ["s3"]}
