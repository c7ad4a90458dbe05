"""svkit CLI benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage (from the repository root):

    python3 perfbench/run.py --workload eval-1m --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

A run generates the workload's inputs from --seed in a child process, then
repeats passes until --seconds have been spent.  A pass runs each step's
`svkit` commands as child processes, one after another (a closed loop with
one client).  After the last pass a checker process verifies the outputs, and
every pass's output digests must equal the last pass's.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Before each step, a pass also runs perfbench/calib.py, a fixed program that
does not import svkit.  With --trace 0 the metrics are the end-to-end ones,
medians over the passes, with every time in calibrated seconds: a wall time
divided by the mean wall time calib.py took in the same pass (a CPU time by
its mean CPU time), multiplied by CALIB_REF_S.
With --trace 1, passes alternate between plain and traced children (svkit's
public functions wrapped by perfbench/child.py) and the metrics are the
per-layer ones.  Inputs are read from a warm page cache; the benchmark does
not drop caches.  BLAS threads are recorded, not changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
CALIB = HERE / "calib.py"
MIN_PLAIN, MIN_PLAIN_TRACED_RUN, MIN_TRACED = 3, 2, 2  # passes a run makes at least
# calibrated seconds are seconds on a machine where calib.py takes this long
CALIB_REF_S = 0.3

END_TO_END = [
    ("setup_s", "s"), ("pipeline_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
]

# span name -> metric suffixes: "s" is self time, "calls" the call count, others sum a span counter
LAYER_SPANS = {
    "audio.resample": ["s", "calls", "out_samples"],
    "audio.log_mel_fbank": ["s", "frames"],
    "audio.energy_vad": ["s"],
    "audio.read_wav": ["s", "samples"],
    "store.write_matrix": ["s", "bytes"],
    "store.write_matrix_tsv": ["s", "bytes"],
    "store.read_embeddings": ["s", "records", "bytes"],
    "store.EmbeddingSet": ["s", "records"],
    "store.read_labels": ["s", "rows"],
    "store.write_embeddings": ["s", "bytes"],
    "store.write_embeddings_tsv": ["s", "bytes"],
    "backend.fit_center": ["s"],
    "backend.fit_lda": ["s", "classes"],
    "backend.apply_pipeline": ["s", "calls", "rows"],
    "backend.save_pipeline": ["s"],
    "backend.load_pipeline": ["s"],
    "scoring.parse_trials": ["s", "calls", "rows", "bytes"],
    "scoring.read_scores": ["s", "rows"],
    "scoring.write_scores": ["s", "bytes"],
    "scoring.score_trials": ["s", "rows", "cpu_s"],
    "scoring.build_enrollment": ["s", "models"],
    "scoring.parse_enroll_map": ["s"],
    "scoring.models_to_set": ["s"],
    "metrics.roc_points": ["calls", "s"],
    "metrics.min_dcf": ["calls"],
    "metrics.eer": ["s"],
    "metrics.c_primary": ["s"],
    "metrics.dcf_curve": ["s"],
    "augment.read_manifest": ["s", "rows"],
    "augment.assign_codec": ["s"],
    "augment.plan_rate_chain": ["s"],
    "augment.assign_speed": ["s"],
    "augment.write_plan": ["s", "bytes"],
    "augment.emit_commands": ["s", "bytes"],
}
_UNITS = {"s": "s", "cpu_s": "s", "bytes": "bytes"}

THROUGHPUTS = [
    ("score_trials_per_s", "1/s"), ("eval_trials_per_s", "1/s"), ("dcf_curve_trials_per_s", "1/s"),
    ("fit_backend_emb_per_s", "1/s"), ("apply_backend_emb_per_s", "1/s"),
    ("apply_backend_text_emb_per_s", "1/s"), ("augment_plan_utts_per_s", "1/s"),
    ("features_8k_audio_x", "x"), ("features_native_audio_x", "x"),
]


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for span, keys in LAYER_SPANS.items():
        out += [(f"{span}.{k}", _UNITS.get(k, "count")) for k in keys]
    out += [("audio.resample.native_calls", "count"), ("audio.apply_vad.kept_ratio", "ratio")]
    out += [(f"cli.{s}.self_s", "s") for s in spec.ALL_STEPS]
    out += [(f"proc.{s}.cpu_s", "s") for s in spec.ALL_STEPS]
    out += [(f"proc.{s}.peak_rss_mb", "MB") for s in spec.ALL_STEPS]
    out += THROUGHPUTS
    out += [("op_failure_rate", "ratio"), ("trace.overhead_s", "s"), ("trace.absent", "count")]
    return out


# ---- running children --------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], cwd: Path, stdout: Path, stderr: Path, env: dict) -> dict:
    """Run one child to completion; return its wall time, rusage and exit code."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, env=env)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"t0": t0, "wall": t1 - t0, "cpu": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0, "rc": proc.returncode}


def run_invocation(work: Path, step: str, k: int, argv: list[str], traced: bool, env: dict) -> dict:
    tag = step if k == 0 else f"{step}.{k}"
    timing = work / f".{tag}.timing.json"
    spans_path = work / f".{tag}.spans.json"
    timing.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(timing)]
    if traced:
        cmd += ["--spans", str(spans_path)]
    rec = spawn(cmd + ["--"] + argv, work, work / f"{tag}.stdout", work / f".{tag}.stderr", env)
    rec["setup"] = rec["cmd"] = None
    rec["spans"], rec["absent"] = [], []
    if timing.exists():
        t = json.loads(timing.read_text())
        rec["setup"] = t["import_done"] - rec["t0"]
        rec["cmd"] = t["main_end"] - t["main_start"]
    if traced and spans_path.exists():
        s = json.loads(spans_path.read_text())
        rec["spans"], rec["absent"] = s["spans"], s["absent"]
    if rec["rc"] != 0:
        err = (work / f".{tag}.stderr").read_text(errors="replace").strip()
        print(f"perfbench: {step} exited {rec['rc']}: {err[-500:]}", file=sys.stderr)
    return rec


def digest(work: Path, step: spec.Step) -> str:
    names = list(step.outputs)
    if step.stdout:
        names += [f"{step.name}.stdout" if k == 0 else f"{step.name}.{k}.stdout" for k in range(len(step.argvs))]
    h = hashlib.sha256()
    for name in names:
        p = work / name
        h.update(name.encode() + b"\0")
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


def run_pass(work: Path, steps: list[spec.Step], traced: bool, env: dict) -> dict:
    out = {}
    for step in steps:
        calib = spawn([sys.executable, str(CALIB)], work, work / ".calib.stdout", work / ".calib.stderr", env)
        if calib["rc"] != 0:
            raise RuntimeError(f"calibration failed: {(work / '.calib.stderr').read_text()[-800:]}")
        recs = [run_invocation(work, step.name, k, argv, traced, env) for k, argv in enumerate(step.argvs)]
        out[step.name] = {"recs": recs, "digest": digest(work, step), "calib": calib}
    return out


# ---- aggregation -------------------------------------------------------------

def pass_wall(p: dict) -> float:
    return sum(r["wall"] for s in p.values() for r in s["recs"])


def pass_cpu(p: dict) -> float:
    return sum(r["cpu"] for s in p.values() for r in s["recs"])


def pass_calib(p: dict, key: str = "wall") -> float:
    """Mean wall (or CPU) time of the pass's calibration runs."""
    return statistics.mean(s["calib"][key] for s in p.values())


def calibrated_wall(p: dict) -> float:
    return CALIB_REF_S * pass_wall(p) / pass_calib(p)


def layer_values(p: dict) -> dict[str, float]:
    """Per-layer totals of one traced pass."""
    totals: dict[str, dict[str, float]] = {}
    vals = {}
    for step, s in p.items():
        cli_self = 0.0
        for rec in s["recs"]:
            for name, wall, child_wall, cpu, counters in rec["spans"]:
                t = totals.setdefault(name, {})
                t["calls"] = t.get("calls", 0) + 1
                t["s"] = t.get("s", 0.0) + wall - child_wall
                t["cpu_s"] = t.get("cpu_s", 0.0) + cpu
                for k, v in counters.items():
                    t[k] = t.get(k, 0) + v
                if name.startswith("cli."):
                    cli_self += wall - child_wall
                if name == "audio.resample" and step == "features-native":
                    vals["audio.resample.native_calls"] = vals.get("audio.resample.native_calls", 0) + 1
        vals[f"cli.{step}.self_s"] = cli_self
    for span, keys in LAYER_SPANS.items():
        for k in keys:
            vals[f"{span}.{k}"] = totals.get(span, {}).get(k, 0)
    vad = totals.get("audio.apply_vad", {})
    vals["audio.apply_vad.kept_ratio"] = vad["frames_out"] / vad["frames_in"] if vad.get("frames_in") else 0
    return vals


def step_values(p: dict, steps: list[spec.Step]) -> dict[str, float]:
    """Per-step throughput and process figures of one plain pass."""
    vals = {}
    for step in steps:
        recs = p[step.name]["recs"]
        vals[f"proc.{step.name}.cpu_s"] = sum(r["cpu"] for r in recs)
        vals[f"proc.{step.name}.peak_rss_mb"] = max(r["rss_mb"] for r in recs)
        if all(r["cmd"] for r in recs):
            vals[step.throughput] = step.units / sum(r["cmd"] for r in recs)
    return vals


def median_of(dicts: list[dict], key: str, default=0):
    vals = [d[key] for d in dicts if key in d]
    return statistics.median(vals) if vals else default


# ---- one workload ------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: float, keep: bool = False) -> dict:
    env = child_env()
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_workload(workload, seed, seconds, trace, scale, env, work)
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)


def _run_workload(workload, seed, seconds, trace, scale, env, work: Path) -> dict:
    gen = spawn([sys.executable, str(HERE / "fixtures.py"), workload, str(seed), str(scale), str(work)],
                ROOT, work / ".gen.stdout", work / ".gen.stderr", env)
    if gen["rc"] != 0:
        raise RuntimeError(f"fixture generation failed: {(work / '.gen.stderr').read_text()[-800:]}")
    meta = json.loads((work / "fixtures.json").read_text())
    steps = spec.steps(workload, meta["sizes"], seed)
    # compile svkit's bytecode and warm the page cache before anything is timed
    spawn([sys.executable, "-c", "import svkit.cli"], work, work / ".warm.stdout", work / ".warm.stderr", env)

    plain, traced, lengths = [], [], []
    t_start = time.monotonic()
    while True:
        n = len(plain) + len(traced)
        kind_traced = trace and n % 2 == 1
        if trace:
            done = len(plain) >= MIN_PLAIN_TRACED_RUN and len(traced) >= MIN_TRACED
        else:
            done = len(plain) >= MIN_PLAIN
        elapsed = time.monotonic() - t_start
        if done and elapsed + statistics.median(lengths) > seconds:
            break
        (traced if kind_traced else plain).append(run_pass(work, steps, kind_traced, env))
        lengths.append(time.monotonic() - t_start - elapsed)
    measured_s = time.monotonic() - t_start

    chk = subprocess.run([sys.executable, str(HERE / "check.py"), str(work)], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    try:
        problems = json.loads(chk.stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        problems = {s.name: [f"checker failed: {chk.stderr.strip()[-500:]}"] for s in steps}

    last = (plain + traced)[-1]
    attempted = failed = 0
    for p in plain + traced:
        for step in steps:
            bad_output = bool(problems.get(step.name)) or p[step.name]["digest"] != last[step.name]["digest"]
            for rec in p[step.name]["recs"]:
                attempted += 1
                failed += rec["rc"] != 0 or bad_output

    return {"workload": workload, "seed": seed, "work": work, "meta": meta, "steps": steps, "plain": plain,
            "traced": traced, "problems": problems, "attempted": attempted, "failed": failed,
            "measured_s": measured_s, "digests": {s.name: last[s.name]["digest"][:16] for s in steps}}


def end_to_end(res: dict) -> dict[str, float]:
    passes = res["plain"]
    setups = [r["setup"] / pass_calib(p) for p in passes for s in p.values() for r in s["recs"]
              if r["setup"] is not None]
    return {
        "setup_s": CALIB_REF_S * statistics.median(setups),
        "pipeline_s": statistics.median(map(calibrated_wall, passes)),
        "cpu_s": CALIB_REF_S * statistics.median(pass_cpu(p) / pass_calib(p, "cpu") for p in passes),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for s in p.values() for r in s["recs"]) for p in passes),
    }


def absent_targets(res: dict) -> list[str]:
    return sorted({a for p in res["traced"] for s in p.values() for r in s["recs"] for a in r["absent"]})


def per_layer(res: dict) -> dict[str, float]:
    traced = [layer_values(p) for p in res["traced"]]
    plain = [step_values(p, res["steps"]) for p in res["plain"]]
    out = {}
    for name, _ in per_layer_metrics():
        v = median_of(traced, name, None)
        out[name] = v if v is not None else median_of(plain, name)
    out["op_failure_rate"] = res["failed"] / res["attempted"]
    out["trace.overhead_s"] = (statistics.median(map(calibrated_wall, res["traced"]))
                               - statistics.median(map(calibrated_wall, res["plain"])))
    out["trace.absent"] = len(absent_targets(res))
    return out


def report(res: dict, trace: bool) -> dict:
    """Print the human-readable summary to stdout; return the metric dict."""
    meta, plain = res["meta"], res["plain"]
    e2e = end_to_end(res)
    steps_plain = [step_values(p, res["steps"]) for p in plain]
    env = meta["env"]
    print(f"== {res['workload']}  seed {res['seed']}  scale {meta['scale']}  sizes {meta['sizes']}")
    print(f"   fixtures {sum(meta['files'].values())} bytes in {len(meta['files'])} files, generated in "
          f"{meta['gen_s']:.2f} s (not a metric)")
    print(f"   python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu_model']!r}, BLAS threads {env['blas_threads']} {env['blas_env'] or ''}")
    print(f"   closed loop, 1 client; {len(plain)} plain + {len(res['traced'])} traced passes in "
          f"{res['measured_s']:.1f} s; warm page cache (caches are not dropped)")
    n_cmds = len(plain) * sum(len(s.argvs) for s in res["steps"])
    print(f"   medians over {len(plain)} passes ({n_cmds} commands for setup_s); "
          f"too few samples for a tail percentile")
    print(f"   pass wall times (s): plain {[round(pass_wall(p), 3) for p in plain]}"
          + (f", traced {[round(pass_wall(p), 3) for p in res['traced']]}" if res["traced"] else ""))
    for name, unit in END_TO_END:
        print(f"   {name:<30} {e2e[name]:12.4f} {unit}" + ("  (calibrated)" if unit == "s" else ""))
    raw = [("setup", statistics.median(r["setup"] for p in plain for s in p.values() for r in s["recs"]
                                        if r["setup"] is not None)),
           ("pipeline", statistics.median(map(pass_wall, plain))),
           ("cpu", statistics.median(map(pass_cpu, plain))),
           ("calib.py wall", statistics.median(map(pass_calib, plain))),
           ("calib.py cpu", statistics.median(pass_calib(p, "cpu") for p in plain))]
    print("   raw medians (s, not metrics): " + ", ".join(f"{k} {v:.4f}" for k, v in raw))
    for step in res["steps"]:
        vals = [v[step.throughput] for v in steps_plain if step.throughput in v]
        tp = statistics.median(vals) if vals else float("nan")
        print(f"   {step.throughput:<30} {tp:12.4f} {step.unit}   ({step.name}, n={len(vals)}, "
              f"{step.units} units, digest {res['digests'][step.name]})")
    print(f"   op_failure_rate                {res['failed'] / res['attempted']:12.4f} "
          f"({res['failed']} of {res['attempted']} ops)")
    for step, errs in res["problems"].items():
        for e in errs:
            print(f"   CHECK FAILED {step}: {e}")
    if trace:
        layer = per_layer(res)
        for name, unit in per_layer_metrics():
            print(f"   {name:<42} {layer[name]:14.6g} {unit}")
        absent = absent_targets(res)
        if absent:
            print(f"   absent trace targets: {', '.join(absent)}")
        return {name: {"value": layer[name], "unit": unit} for name, unit in per_layer_metrics()}
    return {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(spec.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "svkit" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: no svkit source tree under {ROOT}", file=sys.stderr)
        return 2
    workloads = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    results, metrics = [], {}
    try:
        for w in workloads:
            res = run_workload(w, args.seed, args.seconds, bool(args.trace), spec.SCALE[w])
            results.append(res)
            m = report(res, bool(args.trace))
            metrics.update(m if len(workloads) == 1 else {f"{w}.{k}": v for k, v in m.items()})
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
