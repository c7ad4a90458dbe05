"""Metamorphic relations of the CLI on small generated inputs: reordering a
trial list reorders the `score` lines and changes no `eval` or `dcf-curve`
byte, and neither storing the enroll and test sets as SVEB or TSV nor scaling
their vectors by powers of two changes a `score` byte."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svkit import store
from svkit.cli import main
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
