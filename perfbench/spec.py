"""Workload definitions shared by run.py, the fixture generator and the checker.

Each workload is a fixed sequence of `svkit` CLI steps on seeded synthetic
inputs.  A step is one or more CLI invocations measured together; its
throughput is units of work over the time the invocations spend in
`svkit.cli.main` (interpreter start and `import svkit.cli` are reported
separately as `setup_s`).

`FULL` holds the full sizes.  A run multiplies the counts of a workload by
one scale factor, so the ratios between them stay fixed; `SCALE` holds the
factors, chosen so that several passes fit in one run.  Counts in
`_OWN_SCALE` have a fixed factor of their own.
"""

from __future__ import annotations

DIM = 256
EVAL_MARKS = ("0.01", "0.005")  # the CLI's default operating points, also the dcf-curve marks
DCF_POINTS = 161
AUGMENT_FRACTION = 0.5  # the CLI default, restated for the codec-count check

FULL = {
    "eval-1m": {"models": 5000, "segments_per_model": 3, "tests": 100_000, "trials": 1_000_000},
    "backend-100k": {
        "train": 100_000,
        "speakers": 1000,
        "models": 5000,
        "segments_per_model": 3,
        "tests": 10_000,
        "trials": 20_000,
    },
    "frontend-8k": {"utterances": 20_000, "resample_seconds": 60.0, "native_seconds": 300.0},
}

SCALE = {"eval-1m": 0.1, "backend-100k": 0.15, "frontend-8k": 0.05}

# counts with a factor of their own: segments_per_model is a per-model ratio,
# and the manifest keeps 12k of its 20k utterances because augment-plan's
# assign_codec cost grows with its square, so it shows only near full size
_OWN_SCALE = {"segments_per_model": 1.0, "utterances": 0.6}

WORKLOADS = tuple(FULL)


def sizes(workload: str, scale: float) -> dict:
    out = {}
    for key, value in FULL[workload].items():
        if key in _OWN_SCALE:
            out[key] = int(round(value * _OWN_SCALE[key]))
        elif isinstance(value, float):
            out[key] = round(value * scale, 3)
        else:
            out[key] = max(2, int(round(value * scale)))
    return out


class Step:
    """One measured step: CLI invocations, their outputs and their work units."""

    def __init__(self, name, argvs, outputs, throughput, unit, units, stdout=False):
        self.name = name
        self.argvs = argvs  # list of argv lists, run in order
        self.outputs = outputs  # files (relative to the work dir) the step writes
        self.throughput = throughput  # e2e throughput metric name
        self.unit = unit
        self.units = units  # work units per pass, the throughput numerator
        self.stdout = stdout  # whether stdout is part of the step's output


def steps(workload: str, sz: dict, seed: int) -> list[Step]:
    if workload == "eval-1m":
        n = sz["trials"]
        return [
            Step(
                "score",
                [["score", "--enroll", "enroll.sveb", "--test", "test.sveb", "--trials", "trials.txt",
                  "--enroll-map", "enroll_map.txt", "--out", "scores.tsv", "--workers", "2"]],
                ["scores.tsv"], "score_trials_per_s", "1/s", n,
            ),
            Step(
                "eval",
                [["eval", "--scores", "scores.tsv", "--trials", "trials.txt", "--csv", "eval.csv"]],
                ["eval.csv"], "eval_trials_per_s", "1/s", n, stdout=True,
            ),
            Step(
                "dcf-curve",
                [["dcf-curve", "--scores", "scores.tsv", "--trials", "trials.txt",
                  "--points", str(DCF_POINTS), "--mark", EVAL_MARKS[0], "--mark", EVAL_MARKS[1],
                  "--out", "dcf.csv"]],
                ["dcf.csv"], "dcf_curve_trials_per_s", "1/s", n,
            ),
        ]
    if workload == "backend-100k":
        enroll = sz["models"] * sz["segments_per_model"]
        return [
            Step(
                "fit-backend",
                [["fit-backend", "--embeddings", "train.sveb", "--labels", "train_labels.tsv",
                  "--out", "backend.svpl"]],
                ["backend.svpl"], "fit_backend_emb_per_s", "1/s", sz["train"], stdout=True,
            ),
            Step(
                "apply-backend",
                [["apply-backend", "--pipeline", "backend.svpl", "--embeddings", "train.sveb",
                  "--out", "train_bk.sveb"]],
                ["train_bk.sveb"], "apply_backend_emb_per_s", "1/s", sz["train"],
            ),
            Step(
                "apply-backend-text",
                [["apply-backend", "--pipeline", "backend.svpl", "--embeddings", "enroll.sveb",
                  "--out", "enroll_bk.tsv", "--text"],
                 ["apply-backend", "--pipeline", "backend.svpl", "--embeddings", "test.sveb",
                  "--out", "test_bk.tsv", "--text"]],
                ["enroll_bk.tsv", "test_bk.tsv"], "apply_backend_text_emb_per_s", "1/s",
                enroll + sz["tests"],
            ),
            Step(
                "score",
                [["score", "--enroll", "enroll_bk.tsv", "--test", "test_bk.tsv", "--trials", "trials.txt",
                  "--enroll-map", "enroll_map.txt", "--out", "scores.tsv", "--workers", "1"]],
                ["scores.tsv"], "score_trials_per_s", "1/s", sz["trials"],
            ),
            Step(
                "eval",
                [["eval", "--scores", "scores.tsv", "--trials", "trials.txt"]],
                [], "eval_trials_per_s", "1/s", sz["trials"], stdout=True,
            ),
        ]
    if workload == "frontend-8k":
        return [
            Step(
                "augment-plan",
                [["augment-plan", "--manifest", "manifest.tsv", "--out-dir", "plan",
                  "--seed", str(seed), "--speed-perturb"]],
                ["plan/plan.tsv", "plan/commands.txt"], "augment_plan_utts_per_s", "1/s",
                sz["utterances"], stdout=True,
            ),
            Step(
                "features-8k",
                [["features", "speech_rs.wav", "--out-dir", "feats8k", "--resample", "8000", "--vad"]],
                ["feats8k/speech_rs.feats"], "features_8k_audio_x", "x", sz["resample_seconds"],
            ),
            Step(
                "features-native",
                [["features", "speech_nat.wav", "--out-dir", "featsnat", "--vad", "--text"]],
                ["featsnat/speech_nat.tsv"], "features_native_audio_x", "x", sz["native_seconds"],
            ),
        ]
    raise KeyError(workload)


# every step name any workload runs, for the per-step per-layer metrics
ALL_STEPS = tuple(dict.fromkeys(s.name for w in WORKLOADS for s in steps(w, sizes(w, SCALE[w]), 0)))
