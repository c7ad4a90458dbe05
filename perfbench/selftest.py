"""The benchmark's own tests.

Run with: python3 -m pytest perfbench/selftest.py -q
(The file name keeps it out of the repository's default test collection:
the smoke runs spawn a few dozen svkit processes.)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import check
import child
import run
import spec

HERE = Path(__file__).resolve().parent
TINY = 0.01


def test_benchmark_json_lists_what_run_py_emits():
    b = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in b["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in b["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in b["per_layer"]] == run.per_layer_metrics()
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])


@pytest.mark.parametrize("workload", spec.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(spec, "SCALE", {w: TINY for w in spec.WORKLOADS})
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace])
    out = capsys.readouterr()
    assert rc == 0, out.err
    res = json.loads(out.out.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, out.out
    names = run.END_TO_END if trace == "0" else run.per_layer_metrics()
    assert list(res["metrics"]) == [n for n, _ in names]
    for name, unit in names:
        assert res["metrics"][name]["unit"] == unit
    m = {k: v["value"] for k, v in res["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in m.values())
    elif workload == "eval-1m":
        assert m["metrics.roc_points.calls"] == 168  # 5 from eval + 161 points and 2 marks
        assert m["scoring.parse_trials.calls"] == 3
    elif workload == "backend-100k":
        assert m["metrics.roc_points.calls"] == 5
    else:
        assert m["audio.resample.calls"] == 1 and m["audio.resample.native_calls"] == 0
    if trace == "1":
        assert m["trace.absent"] == 0 and m["op_failure_rate"] == 0


@pytest.fixture(scope="module")
def worked():
    """One tiny run per workload, keeping its work directory."""
    out = {}
    for w in spec.WORKLOADS:
        res = run.run_workload(w, 5, 0.0, False, TINY, keep=True)
        assert res["failed"] == 0, res["problems"]
        out[w] = res["work"]
    yield out
    for work in out.values():
        shutil.rmtree(work, ignore_errors=True)


def corrupt(path: Path, old: str, new: str):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return text


@pytest.mark.parametrize("workload,step,file,edit", [
    # one digit of one score line
    ("eval-1m", "score", "scores.tsv", lambda t: (t.split("\t", 2)[2][:8], "0.999999")),
    # the reported EER, the CSV report and a curve point
    ("eval-1m", "eval", "eval.stdout", lambda t: ("EER (%): ", "EER (%): 1")),
    ("eval-1m", "eval", "eval.csv", lambda t: ("eer,,,,,", "eer,,,,,1")),
    ("eval-1m", "dcf-curve", "dcf.csv", lambda t: ("\n-8,", "\n-7.9,")),
    ("backend-100k", "eval", "eval.stdout", lambda t: ("C_primary [default]: ", "C_primary [default]: 1")),
    ("backend-100k", "apply-backend-text", "test_bk.tsv", lambda t: ("\t", "\t1")),
    ("frontend-8k", "augment-plan", "plan/plan.tsv", lambda t: ("\tgsm\t", "\tnone\t")),
])
def test_checker_rejects_corrupted_output(worked, workload, step, file, edit):
    work = worked[workload]
    assert all(not errs for errs in check.run_checks(work).values())
    path = work / file
    old, new = edit(path.read_text())
    original = corrupt(path, old, new)
    try:
        problems = check.run_checks(work)
    finally:
        path.write_text(original)
    assert problems[step], problems


def test_tracer_reports_missing_targets_as_absent():
    fake = {n: types.SimpleNamespace() for n in ("audio", "store", "backend", "scoring", "metrics", "cli")}
    fake["metrics"].roc_points = lambda scores: ("sweep", scores)
    tracer = child.Tracer()
    tracer.install(fake)
    assert "metrics.roc_points" not in tracer.absent
    assert {"store.EmbeddingSet", "cli.score", "augment.read_manifest"} <= set(tracer.absent)
    assert fake["metrics"].roc_points(7) == ("sweep", 7)
    assert [s[0] for s in tracer.spans] == ["metrics.roc_points"]


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval-1m", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
