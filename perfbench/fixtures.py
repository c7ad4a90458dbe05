"""Seeded fixture generator, run as its own process by run.py.

Usage: python3 perfbench/fixtures.py WORKLOAD SEED SCALE WORKDIR

Writes the workload's inputs into WORKDIR plus `fixtures.json`, which records
the sizes, the file sizes, the generation time and the environment.  It runs
in a child process so that run.py never holds the fixtures: a forked
child's `ru_maxrss` starts from the parent's resident set, which would mask
the peak RSS of every command.  The same (workload, seed, scale) always gives
the same bytes.  svkit is not imported here, so a defect in its writers
cannot leak into its inputs.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
import time
import wave
from pathlib import Path

import numpy as np
import scipy

import spec


def write_sveb(path: Path, ids: list[str], vectors: np.ndarray) -> None:
    """SVEB v1 (see svkit.store): header, then u16 id length, id bytes, float32 values."""
    id_len = len(ids[0])
    assert all(len(i) == id_len for i in ids)
    rec = np.dtype([("n", "<u2"), ("id", f"S{id_len}"), ("v", "<f4", (vectors.shape[1],))])
    recs = np.empty(len(ids), dtype=rec)
    recs["n"] = id_len
    recs["id"] = [i.encode("ascii") for i in ids]
    recs["v"] = vectors
    with open(path, "wb") as f:
        f.write(b"SVEB")
        f.write(np.array([1], "<u2").tobytes())
        f.write(np.array([len(ids)], "<u8").tobytes())
        f.write(np.array([vectors.shape[1]], "<u4").tobytes())
        f.write(recs.tobytes())


def write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines))
        f.write("\n")


def speaker_vectors(rng, means: np.ndarray, spk: np.ndarray, offset: np.ndarray, noise: float):
    x = offset + means[spk] + noise * rng.standard_normal((len(spk), means.shape[1]))
    return x.astype(np.float32)


def make_trials(rng, n_models: int, test_spk: np.ndarray, n_target: int, n_trials: int):
    """Unique (model, test) pairs: n_target same-speaker, the rest different, shuffled."""
    n_tests = len(test_spk)
    tgt_tests = rng.permutation(n_tests)[:n_target]
    codes_t = test_spk[tgt_tests].astype(np.int64) * n_tests + tgt_tests
    n_non = n_trials - n_target
    codes_n = np.zeros(0, np.int64)
    while len(codes_n) < n_non:
        draw = rng.integers(0, n_models * n_tests, size=2 * n_non + 16)
        draw = draw[(draw // n_tests) != test_spk[draw % n_tests]]
        codes_n = np.unique(np.concatenate([codes_n, draw]))
    codes_n = rng.permutation(codes_n)[:n_non]
    codes = np.concatenate([codes_t, codes_n])
    labels = np.concatenate([np.ones(n_target, bool), np.zeros(n_non, bool)])
    order = rng.permutation(len(codes))
    return codes[order] // n_tests, codes[order] % n_tests, labels[order]


def write_trials(path, model_ids, test_ids, m, t, labels):
    write_lines(
        path,
        (f"{model_ids[a]} {test_ids[b]} {'target' if y else 'nontarget'}" for a, b, y in zip(m, t, labels)),
    )


def eval_side(rng, work: Path, n_models: int, per_model: int, n_tests: int, n_trials: int,
              n_target: int, means: np.ndarray, offset: np.ndarray) -> None:
    """Enrollment segments, enroll map, test embeddings and trial list."""
    model_ids = [f"m{k:06d}" for k in range(n_models)]
    seg_spk = np.repeat(np.arange(n_models), per_model)
    seg_ids = [f"{model_ids[s]}-{k % per_model}" for k, s in enumerate(seg_spk)]
    write_sveb(work / "enroll.sveb", seg_ids, speaker_vectors(rng, means, seg_spk, offset, 2.5))
    write_lines(
        work / "enroll_map.txt",
        (f"{m} " + " ".join(f"{m}-{k}" for k in range(per_model)) for m in model_ids),
    )
    test_spk = rng.permutation(np.arange(n_tests) % n_models)
    test_ids = [f"t{k:07d}" for k in range(n_tests)]
    write_sveb(work / "test.sveb", test_ids, speaker_vectors(rng, means, test_spk, offset, 2.5))
    m, t, y = make_trials(rng, n_models, test_spk, n_target, n_trials)
    write_trials(work / "trials.txt", model_ids, test_ids, m, t, y)


def gen_eval(rng, work: Path, sz: dict) -> None:
    means = rng.standard_normal((sz["models"], spec.DIM))
    offset = np.zeros(spec.DIM)
    # every test pairs once with its own model: targets are 10 % of the trials
    eval_side(rng, work, sz["models"], sz["segments_per_model"], sz["tests"], sz["trials"],
              sz["tests"], means, offset)


def gen_backend(rng, work: Path, sz: dict) -> None:
    # a shared offset and anisotropic speaker spread give centering and LDA real work
    offset = 3.0 * rng.standard_normal(spec.DIM)
    scale = np.linspace(0.3, 1.7, spec.DIM)
    n_spk = sz["speakers"]
    spk = np.repeat(np.arange(n_spk), sz["train"] // n_spk)
    spk = np.concatenate([spk, np.arange(sz["train"] - len(spk)) % n_spk])
    train_means = rng.standard_normal((n_spk, spec.DIM)) * scale
    ids = [f"tr{k:07d}" for k in range(sz["train"])]
    write_sveb(work / "train.sveb", ids, speaker_vectors(rng, train_means, spk, offset, 2.5))
    write_lines(work / "train_labels.tsv", (f"{i}\tspk{s:05d}" for i, s in zip(ids, spk)))
    eval_means = rng.standard_normal((sz["models"], spec.DIM)) * scale
    eval_side(rng, work, sz["models"], sz["segments_per_model"], sz["tests"], sz["trials"],
              sz["trials"] // 10, eval_means, offset)


def speech_like(rng, seconds: float, rate: int = 16000) -> np.ndarray:
    """Voiced bursts (harmonic stacks with 30 ms ramps) between digitally silent
    pauses, as a telephone channel with silence suppression delivers them.

    The energy VAD's threshold is 5 + 0.5 * mean log frame energy; silent
    frames pull the mean far down, so every voiced frame passes at 16 kHz and
    after resampling to 8 kHz, whatever the seed.
    """
    n = int(round(seconds * rate))
    out = np.zeros(n)
    ramp_len = 0.03 * rate
    pos = int(rate * rng.uniform(0.1, 0.4))
    while pos < n:
        seg = min(int(rate * rng.uniform(0.2, 1.2)), n - pos)
        t = np.arange(seg) / rate
        f0 = rng.uniform(90, 250) * (1 + 0.1 * np.sin(2 * np.pi * rng.uniform(0.5, 3) * t))
        phase = 2 * np.pi * np.cumsum(f0) / rate
        voiced = 0.01 * rng.standard_normal(seg)
        for h in range(1, 21):
            voiced += rng.uniform(0.2, 1.0) / h * np.sin(h * phase)
        k = np.arange(seg)
        voiced *= np.minimum(1.0, np.minimum(k, seg - 1 - k) / ramp_len)
        out[pos:pos + seg] = 0.9 * voiced / max(1e-9, np.abs(voiced).max())
        pos += seg + int(rate * rng.uniform(0.1, 0.6))
    return out


def write_wav(path: Path, x: np.ndarray, rate: int = 16000) -> None:
    pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(pcm.tobytes())


def gen_frontend(rng, work: Path, sz: dict) -> None:
    n = sz["utterances"]
    dur = rng.uniform(1.0, 20.0, n)
    rate = rng.choice([8000, 16000], n, p=[0.2, 0.8])
    write_lines(
        work / "manifest.tsv",
        (f"u{k:07d}\t/data/wav/u{k:07d}.wav\t{d:.2f}\t{r}" for k, (d, r) in enumerate(zip(dur, rate))),
    )
    write_wav(work / "speech_rs.wav", speech_like(rng, sz["resample_seconds"]))
    write_wav(work / "speech_nat.wav", speech_like(rng, sz["native_seconds"]))


def blas_threads() -> int | None:
    """OpenBLAS thread count of this process, read without changing it."""
    with open("/proc/self/maps") as f:
        libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln and ".so" in ln})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for ln in f:
                if ln.startswith("model name"):
                    return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": blas_threads(),
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


GENERATORS = {"eval-1m": gen_eval, "backend-100k": gen_backend, "frontend-8k": gen_frontend}


def main(argv: list[str]) -> int:
    workload, seed, scale, work = argv[0], int(argv[1]), float(argv[2]), Path(argv[3])
    t0 = time.perf_counter()
    work.mkdir(parents=True, exist_ok=True)
    sz = spec.sizes(workload, scale)
    rng = np.random.default_rng(np.random.SeedSequence([seed, spec.WORKLOADS.index(workload)]))
    GENERATORS[workload](rng, work, sz)
    meta = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "sizes": sz,
        "files": {p.name: p.stat().st_size for p in sorted(work.iterdir()) if p.is_file()},
        "gen_s": time.perf_counter() - t0,
        "env": environment(),
    }
    (work / "fixtures.json").write_text(json.dumps(meta, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
