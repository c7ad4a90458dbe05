"""Metamorphic relations of the CLI on small generated inputs: reordering a
trial list reorders the `score` lines and changes no `eval` or `dcf-curve`
byte, and neither storing the enroll and test sets as SVEB or TSV nor scaling
their vectors by powers of two changes a `score` byte.  A strictly increasing
map of the scores changes no `eval` or `dcf-curve` byte, and `apply-backend`
on a subset of a set gives the rows it gives them in the whole set."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svkit import store
from svkit.cli import main
from test_cli import synthetic_speakers
from test_scoring import scaled_sets

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
VALUES = st.floats(-4, 4, width=32)  # zero vectors included: `score` then exits 3 in both runs


@st.composite
def scoring_inputs(draw):
    """Enroll and test sets, and a labeled trial list over them."""
    dim = draw(st.integers(1, 4))
    sets = []
    for prefix in ("e", "t"):
        vecs = draw(arrays(np.float32, (draw(st.integers(1, 4)), dim), elements=VALUES))
        sets.append(store.EmbeddingSet([f"{prefix}{k}" for k in range(len(vecs))], vecs))
    enroll, test = sets
    pairs = draw(st.lists(st.tuples(st.sampled_from(enroll.ids), st.sampled_from(test.ids)),
                          min_size=1, max_size=12, unique=True))
    labels = draw(st.lists(st.sampled_from(["target", "nontarget"]), min_size=len(pairs), max_size=len(pairs)))
    return enroll, test, [f"{e} {t} {lab}\n" for (e, t), lab in zip(pairs, labels)]


def _score(d, enroll, test, trials):
    """`score`'s exit code and output bytes (None if it failed)."""
    (d / "trials.txt").write_text("".join(trials))
    rc = main(["score", "--enroll", str(enroll), "--test", str(test), "--trials", str(d / "trials.txt"),
               "--out", str(d / "scores.tsv")])
    return rc, (d / "scores.tsv").read_bytes() if rc == 0 else None


def _reports(d, capsys, scores):
    """What `eval` (report and CSV) and `dcf-curve` make of `scores` and d/trials.txt."""
    capsys.readouterr()
    args = ["--scores", str(scores), "--trials", str(d / "trials.txt")]
    out = []
    for argv, path in ((["eval", *args, "--csv", str(d / "r.csv")], d / "r.csv"),
                       (["dcf-curve", *args, "--points", "9", "--mark", "0.01", "--out", str(d / "c.csv")],
                        d / "c.csv")):
        path.unlink(missing_ok=True)
        rc = main(argv)
        out.append((rc, capsys.readouterr().out, path.read_bytes() if rc == 0 else None))
    return out


@SETTINGS
@given(inputs=scoring_inputs(), data=st.data())
def test_permuted_trials_permute_scores_and_keep_reports(tmp_path, capsys, inputs, data):
    enroll, test, trials = inputs
    order = data.draw(st.permutations(range(len(trials))))
    store.write_embeddings(enroll, tmp_path / "e.sveb")
    store.write_embeddings(test, tmp_path / "t.sveb")
    runs = {}
    for name, lines in (("as-drawn", trials), ("permuted", [trials[k] for k in order])):
        d = tmp_path / name
        d.mkdir(exist_ok=True)
        runs[name] = d, _score(d, tmp_path / "e.sveb", tmp_path / "t.sveb", lines)
    (a, (rc_a, scores_a)), (b, (rc_b, scores_b)) = runs["as-drawn"], runs["permuted"]
    assert rc_a == rc_b  # 3 on a zero vector, else 0
    if rc_a:
        return
    lines = scores_a.decode().splitlines(keepends=True)
    assert scores_b.decode().splitlines(keepends=True) == [lines[k] for k in order]
    want = _reports(a, capsys, a / "scores.tsv")
    assert _reports(b, capsys, b / "scores.tsv") == want
    # scores that are not in trial order are looked up by pair
    assert _reports(b, capsys, a / "scores.tsv") == want


@SETTINGS
@given(inputs=scoring_inputs())
def test_set_format_changes_no_score_byte(tmp_path, inputs):
    enroll, test, trials = inputs
    for name, s in (("e", enroll), ("t", test)):
        store.write_embeddings(s, tmp_path / f"{name}.sveb")
        store.write_embeddings_tsv(store.read_embeddings(tmp_path / f"{name}.sveb"), tmp_path / f"{name}.tsv")
    outcomes = set()
    for e_ext in ("sveb", "tsv"):
        for t_ext in ("sveb", "tsv"):
            outcomes.add(_score(tmp_path, tmp_path / f"e.{e_ext}", tmp_path / f"t.{t_ext}", trials))
    assert len(outcomes) == 1, outcomes


@SETTINGS
@given(inputs=scaled_sets())
def test_power_of_two_scaling_changes_no_score_byte(tmp_path, inputs):
    """Each vector scaled by its own 2**k, |k| <= 20, at dimensions on both sides of a
    scoring block boundary; enrollment normalizes each segment first."""
    *sets, pairs = inputs
    for name, s in zip(("e", "t", "scaled-e", "scaled-t"), sets):
        store.write_embeddings(s, tmp_path / f"{name}.sveb")
    trials = [f"{e} {t}\n" for e, t in pairs]
    want = _score(tmp_path, tmp_path / "e.sveb", tmp_path / "t.sveb", trials)
    assert _score(tmp_path, tmp_path / "scaled-e.sveb", tmp_path / "scaled-t.sveb", trials) == want


def _six_decimals(micros: int) -> str:
    """An integer count of millionths as a score field, e.g. -1500001 -> -1.500001."""
    sign = "-" if micros < 0 else ""
    return f"{sign}{abs(micros) // 10**6}.{abs(micros) % 10**6:06d}"


@st.composite
def ranked_scores(draw):
    """Labels and scores of up to 30 trials, in millionths with many ties, and the
    scores under a drawn strictly increasing map: equal scores stay equal and
    distinct ones stay distinct at 6 decimals (and as float64, at 15 digits)."""
    n = draw(st.integers(1, 30))
    levels = draw(st.lists(st.integers(-2 * 10**6, 2 * 10**6), min_size=1, max_size=8, unique=True))
    micros = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from(["target", "nontarget"]), min_size=n, max_size=n))
    distinct = sorted(set(micros))
    images = sorted(draw(st.lists(st.integers(-(10**15) + 1, 10**15 - 1), min_size=len(distinct),
                                  max_size=len(distinct), unique=True)))
    mapped = dict(zip(distinct, images))
    return labels, micros, [mapped[m] for m in micros]


@SETTINGS
@given(inputs=ranked_scores())
def test_increasing_map_of_scores_keeps_reports(tmp_path, capsys, inputs):
    """Every metric is a rank statistic, so the reports read only the order of the scores."""
    labels, micros, mapped = inputs
    (tmp_path / "trials.txt").write_text("".join(f"e{k} t{k} {lab}\n" for k, lab in enumerate(labels)))
    for name, values in (("scores", micros), ("mapped", mapped)):
        (tmp_path / f"{name}.tsv").write_text(
            "".join(f"e{k}\tt{k}\t{_six_decimals(v)}\n" for k, v in enumerate(values)))
    assert _reports(tmp_path, capsys, tmp_path / "mapped.tsv") == _reports(tmp_path, capsys, tmp_path / "scores.tsv")


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A set of 400 x 24 embeddings of 8 speakers, a center + LDA + length-norm
    pipeline fitted on it, and the whole set through `apply-backend`."""
    d = tmp_path_factory.mktemp("backend")
    s, labels = synthetic_speakers(np.random.default_rng(17), n_spk=8, per_spk=50, dim=24)
    store.write_embeddings(s, d / "set.sveb")
    store.write_labels(labels, d / "set.labels")
    assert main(["fit-backend", "--embeddings", str(d / "set.sveb"), "--labels", str(d / "set.labels"),
                 "--out", str(d / "pipe.svpl")]) == 0
    assert main(["apply-backend", "--pipeline", str(d / "pipe.svpl"), "--embeddings", str(d / "set.sveb"),
                 "--out", str(d / "whole.sveb")]) == 0
    return d, s, store.read_embeddings(d / "whole.sveb")


@SETTINGS
@given(data=st.data())
def test_apply_backend_on_a_subset_gives_its_rows(tmp_path, fitted, data):
    d, s, whole = fitted
    rows = data.draw(st.lists(st.integers(0, len(s) - 1), min_size=1, max_size=len(s), unique=True))
    store.write_embeddings(store.EmbeddingSet([s.ids[k] for k in rows], s.vectors[rows]), tmp_path / "sub.sveb")
    assert main(["apply-backend", "--pipeline", str(d / "pipe.svpl"), "--embeddings", str(tmp_path / "sub.sveb"),
                 "--out", str(tmp_path / "out.sveb")]) == 0
    out = store.read_embeddings(tmp_path / "out.sveb")
    assert out.ids == [s.ids[k] for k in rows]
    assert out.vectors.tobytes() == whole.vectors[rows].tobytes()
