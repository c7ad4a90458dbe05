"""Run one `svkit` CLI command in this process and record its timing.

Usage: python3 perfbench/child.py TIMING_JSON [--spans SPANS_JSON] -- ARGV...

TIMING_JSON receives the CLOCK_MONOTONIC instants at which `import svkit.cli`
finished and `svkit.cli.main` started and returned, plus its exit code.  The
parent (run.py) subtracts its own spawn instant to get the set-up time.

With --spans, svkit's public functions are wrapped before `main` runs (the
traced run).  The wrappers live here, not in svkit: each records a span with
its wall time, the wall time of the wrapped calls nested in it (so self time
can be derived) and a few work counters.  Spans stay in memory and are written
to SPANS_JSON when the command returns.  A target that no longer exists is
listed as absent instead of failing the command.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _rows(result, *args, **kwargs) -> dict:
    return {"rows": len(result)}


def _path_bytes(arg_index: int):
    def counters(result, *args, **kwargs):
        return {"bytes": _size(args[arg_index])}
    return counters


def _read_embeddings(result, path, *args, **kwargs):
    return {"records": len(result), "bytes": _size(path)}


def _embedding_set(result, self, ids, *args, **kwargs):
    return {"records": len(ids)}


def _fit_lda(result, s, *args, **kwargs):
    return {"classes": len(set(s.labels.values())) if s.labels else 0}


def _apply_vad(result, feats, mask, *args, **kwargs):
    return {"frames_in": feats.num_frames, "frames_out": result.num_frames}


def _score_trials(result, models, tests, trials, *args, **kwargs):
    return {"rows": len(trials)}


def _parse_trials(result, path, *args, **kwargs):
    return {"rows": len(result), "bytes": _size(path)}


# (module, attribute path, span name, counter function or None)
TARGETS = [
    ("audio", "read_wav", "audio.read_wav", lambda r, *a, **k: {"samples": len(r.samples)}),
    ("audio", "resample", "audio.resample", lambda r, *a, **k: {"out_samples": len(r.samples)}),
    ("audio", "log_mel_fbank", "audio.log_mel_fbank", lambda r, *a, **k: {"frames": r.num_frames}),
    ("audio", "energy_vad", "audio.energy_vad", None),
    ("audio", "apply_vad", "audio.apply_vad", _apply_vad),
    ("store", "EmbeddingSet.__init__", "store.EmbeddingSet", _embedding_set),
    ("store", "read_embeddings", "store.read_embeddings", _read_embeddings),
    ("store", "read_labels", "store.read_labels", _rows),
    ("store", "write_embeddings", "store.write_embeddings", _path_bytes(1)),
    ("store", "write_embeddings_tsv", "store.write_embeddings_tsv", _path_bytes(1)),
    ("store", "write_matrix", "store.write_matrix", _path_bytes(1)),
    ("store", "write_matrix_tsv", "store.write_matrix_tsv", _path_bytes(1)),
    ("backend", "fit_center", "backend.fit_center", None),
    ("backend", "fit_lda", "backend.fit_lda", _fit_lda),
    ("backend", "apply_pipeline", "backend.apply_pipeline", lambda r, *a, **k: {"rows": len(r)}),
    ("backend", "save_pipeline", "backend.save_pipeline", None),
    ("backend", "load_pipeline", "backend.load_pipeline", None),
    ("scoring", "parse_trials", "scoring.parse_trials", _parse_trials),
    ("scoring", "parse_enroll_map", "scoring.parse_enroll_map", None),
    ("scoring", "build_enrollment", "scoring.build_enrollment", lambda r, *a, **k: {"models": len(r)}),
    ("scoring", "models_to_set", "scoring.models_to_set", None),
    ("scoring", "score_trials", "scoring.score_trials", _score_trials),
    ("scoring", "write_scores", "scoring.write_scores", _path_bytes(2)),
    ("scoring", "read_scores", "scoring.read_scores", _rows),
    ("metrics", "roc_points", "metrics.roc_points", None),
    ("metrics", "eer", "metrics.eer", None),
    ("metrics", "min_dcf", "metrics.min_dcf", None),
    ("metrics", "c_primary", "metrics.c_primary", None),
    ("metrics", "dcf_curve", "metrics.dcf_curve", None),
    ("augment", "read_manifest", "augment.read_manifest", _rows),
    ("augment", "assign_codec", "augment.assign_codec", None),
    ("augment", "plan_rate_chain", "augment.plan_rate_chain", None),
    ("augment", "assign_speed", "augment.assign_speed", None),
    ("augment", "write_plan", "augment.write_plan", _path_bytes(1)),
    ("augment", "emit_commands", "augment.emit_commands", lambda r, *a, **k: {"bytes": _size(r)}),
] + [
    ("cli", f"cmd_{command.replace('-', '_')}", f"cli.{command}", None)
    for command in ("features", "fit-backend", "apply-backend", "score", "eval", "dcf-curve", "augment-plan")
]


class Tracer:
    """In-memory span recorder.  Spans nest on one stack: svkit calls every
    wrapped function from the main thread (score_trials' worker threads run
    only the unwrapped block kernel)."""

    def __init__(self):
        self.spans = []  # [name, wall_s, child_wall_s, cpu_s, counters]
        self.stack = []
        self.absent = []

    def wrap(self, fn, name, counters):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, 0.0, {}]
            tracer.stack.append(span)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
                tracer.stack.pop()
                span[1], span[3] = wall, cpu
                if tracer.stack:
                    tracer.stack[-1][2] += wall
                tracer.spans.append(span)
            if counters is not None:
                try:
                    span[4] = counters(result, *args, **kwargs)
                except Exception:  # a stale counter must not change the command's outcome
                    span[4] = {"counter_errors": 1}
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        for mod_name, attr, name, counters in TARGETS:
            owner = modules.get(mod_name)
            *parents, leaf = attr.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self.wrap(original, name, counters)
            if parents:  # a method: patching the class catches every caller
                setattr(owner, leaf, wrapped)
            else:
                _rebind(modules.values(), original, wrapped)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "absent": self.absent}, f)


def _rebind(modules, original, wrapped) -> None:
    """Replace `original` wherever a module binds it, including `from x import`
    names and module-level dispatch tables."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapped


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, cli_argv = argv[:sep], argv[sep + 1:]
    timing_path = opts[0]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    import svkit.cli as cli

    t_import = time.monotonic()
    tracer = None
    if spans_path is not None:
        import importlib

        modules = {"cli": cli}
        for name in ("audio", "store", "backend", "scoring", "metrics", "augment"):
            try:
                modules[name] = importlib.import_module(f"svkit.{name}")
            except ImportError:  # a module that no longer exists: its targets are absent
                pass
        tracer = Tracer()
        tracer.install(modules)
    t_main = time.monotonic()
    rc = cli.main(cli_argv)
    t_end = time.monotonic()
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(spans_path)
    with open(timing_path, "w", encoding="utf-8") as f:
        json.dump({"import_done": t_import, "main_start": t_main,
                   "main_end": t_end, "rc": rc}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
