"""Output checker, run as its own process after the timed passes.

Usage: python3 perfbench/check.py WORKDIR

Reads `fixtures.json` and the outputs of the last pass in WORKDIR and prints
one JSON object mapping each step to the list of problems found (empty when
the step's outputs are correct).  Nothing here imports svkit: every expected
value is recomputed from the generated inputs with numpy, or, for the small
trial list of `backend-100k`, with the brute-force oracles in tests/oracles.py.
"""

from __future__ import annotations

import json
import math
import re
import struct
import sys
import traceback
from pathlib import Path

import numpy as np
import scipy.linalg

import spec

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
import oracles  # noqa: E402  (brute-force metric oracles shared with the test suite)
_SCORE_RE = re.compile(r"-?\d+\.\d{6}")


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---- readers (independent of svkit's) ---------------------------------------

def read_sveb(path: Path) -> tuple[list[str], np.ndarray]:
    data = path.read_bytes()
    expect(data[:4] == b"SVEB", f"{path.name}: bad magic")
    version, count, dim = struct.unpack_from("<HQI", data, 4)
    expect(version == 1, f"{path.name}: version {version}")
    off = 4 + 14
    ids, rows = [], np.empty((count, dim), np.float32)
    for k in range(count):
        (n,) = struct.unpack_from("<H", data, off)
        ids.append(data[off + 2:off + 2 + n].decode("utf-8"))
        off += 2 + n
        rows[k] = np.frombuffer(data, "<f4", dim, off)
        off += 4 * dim
    expect(off == len(data), f"{path.name}: {len(data) - off} trailing bytes")
    return ids, rows


def read_tsv_embeddings(path: Path) -> tuple[list[str], np.ndarray]:
    ids, rows = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split("\t")
        ids.append(fields[0])
        rows.append([float(v) for v in fields[1:]])
    return ids, np.asarray(rows, dtype=np.float64)


def read_trials(path: Path):
    pairs, labels = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        e, t, y = line.split()
        pairs.append((e, t))
        labels.append(y == "target")
    return pairs, np.asarray(labels)


def read_enroll_map(path: Path) -> dict[str, list[str]]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        out[fields[0]] = fields[1:]
    return out


def read_pipeline(path: Path):
    """SVPL v1 (see svkit.backend): flags and float32 matrices."""
    data = path.read_bytes()
    expect(data[:4] == b"SVPL", "pipeline: bad magic")
    off = 6
    mats = []
    for _ in range(2):
        present = data[off]
        off += 1
        if present:
            rows, cols = struct.unpack_from("<II", data, off)
            off += 8
            mats.append(np.frombuffer(data, "<f4", rows * cols, off).reshape(rows, cols).copy())
            off += 4 * rows * cols
        else:
            mats.append(None)
    length_norm = bool(data[off])
    expect(off + 1 == len(data), "pipeline: trailing bytes")
    return mats[0], mats[1], length_norm


# ---- reference computations --------------------------------------------------

def model_vectors(seg_ids, seg_vecs, enroll_map) -> dict[str, np.ndarray]:
    """Length-normalize members, average, normalize again, store as float32."""
    row = {i: k for k, i in enumerate(seg_ids)}
    out = {}
    for model, members in enroll_map.items():
        v = seg_vecs[[row[m] for m in members]].astype(np.float64)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        mean = v.mean(axis=0)
        out[model] = (mean / np.linalg.norm(mean)).astype(np.float32)
    return out


def check_scores(path: Path, pairs, models, test_ids, test_vecs) -> None:
    """Every line against a float64 cosine, to the 6-decimal rounding the file uses."""
    trow = {i: k for k, i in enumerate(test_ids)}
    tests = test_vecs.astype(np.float64)
    lines = path.read_text(encoding="utf-8").splitlines()
    expect(len(lines) == len(pairs), f"{len(lines)} score lines for {len(pairs)} trials")
    a = np.stack([models[e] for e, _ in pairs]).astype(np.float64)
    b = tests[[trow[t] for _, t in pairs]]
    want = np.einsum("ij,ij->i", a, b) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    for k, (line, pair) in enumerate(zip(lines, pairs)):
        fields = line.split("\t")
        expect(len(fields) == 3 and (fields[0], fields[1]) == pair,
               f"score line {k + 1}: {line!r} does not match trial {pair}")
        expect(_SCORE_RE.fullmatch(fields[2]) is not None, f"score line {k + 1}: format {fields[2]!r}")
        expect(abs(float(fields[2]) - want[k]) <= 5e-7 + 1e-12,
               f"score line {k + 1}: {fields[2]} but cosine is {want[k]:.9f}")


def read_scores(path: Path) -> np.ndarray:
    return np.array([float(line.split("\t")[2]) for line in path.read_text().splitlines()])


class Sweep:
    """Error rates at every distinct score (plus +-inf) from one sort of all scores."""

    def __init__(self, scores: np.ndarray, is_target: np.ndarray):
        order = np.argsort(scores, kind="stable")
        s, y = scores[order], is_target[order]
        n_tar, n_non = int(y.sum()), int((~y).sum())
        first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])  # first index of each distinct value
        tar_below = np.r_[0, np.cumsum(y)][first]
        non_below = np.r_[0, np.cumsum(~y)][first]
        self.p_miss = np.r_[0, tar_below, n_tar] / n_tar
        self.p_fa = np.r_[n_non, n_non - non_below, 0] / n_non

    def min_dcf(self, p: float, c_miss: float = 1.0, c_fa: float = 1.0) -> float:
        norm = min(c_miss * p, c_fa * (1 - p))
        return float(np.min((c_miss * p * self.p_miss + c_fa * (1 - p) * self.p_fa) / norm))

    def eer(self) -> float:
        diff = self.p_miss - self.p_fa
        i = int(np.flatnonzero(diff >= 0)[0])
        if diff[i] == 0:
            return float(self.p_miss[i])
        m0, m1, f0, f1 = self.p_miss[i - 1], self.p_miss[i], self.p_fa[i - 1], self.p_fa[i]
        return float(m0 + (f0 - m0) / ((m1 - m0) - (f1 - f0)) * (m1 - m0))


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def close_fixed(printed: str, value: float, decimals: int) -> bool:
    return abs(float(printed) - value) <= 0.5 * 10.0 ** -decimals + 1e-12


def close_sig9(printed: str, value: float) -> bool:
    mag = max(abs(float(printed)), abs(value), 1e-300)
    return abs(float(printed) - value) <= 0.51 * 10.0 ** (math.floor(math.log10(mag)) - 8) + 1e-15


def check_eval_stdout(text: str, n_tar: int, n_non: int, err: float, dcfs: list[float]) -> None:
    lines = text.splitlines()
    expect(lines[0] == f"trials: {n_tar} target, {n_non} nontarget", f"eval: {lines[0]!r}")
    got_eer = lines[1].split(": ")[1]
    expect(close_fixed(got_eer, 100 * err, 2), f"eval: EER {got_eer} % but expected {100 * err:.4f} %")
    for line, (p, v) in zip(lines[2:], zip(spec.EVAL_MARKS, dcfs)):
        expect(line.startswith(f"minDCF (p_target={float(p):g},"), f"eval: {line!r}")
        expect(close_fixed(line.rsplit(": ", 1)[1], v, 3), f"eval: {line!r} but expected {v:.5f}")
    line = lines[2 + len(dcfs)]
    expect(line.startswith("C_primary"), f"eval: {line!r}")
    cprim = float(np.mean(dcfs))
    expect(close_fixed(line.rsplit(": ", 1)[1], cprim, 3), f"eval: {line!r} but expected {cprim:.5f}")


# ---- per-workload checks -----------------------------------------------------

def check_eval_1m(work: Path, meta: dict) -> dict:
    pairs, labels = read_trials(work / "trials.txt")
    checks = {}

    def score():
        seg_ids, seg_vecs = read_sveb(work / "enroll.sveb")
        test_ids, test_vecs = read_sveb(work / "test.sveb")
        models = model_vectors(seg_ids, seg_vecs, read_enroll_map(work / "enroll_map.txt"))
        check_scores(work / "scores.tsv", pairs, models, test_ids, test_vecs)

    scores = read_scores(work / "scores.tsv")
    sweep = Sweep(scores, labels)
    dcfs = [sweep.min_dcf(float(p)) for p in spec.EVAL_MARKS]

    def evaluate():
        check_eval_stdout((work / "eval.stdout").read_text(), int(labels.sum()), int((~labels).sum()),
                          sweep.eer(), dcfs)
        rows = [ln.split(",") for ln in (work / "eval.csv").read_text().splitlines()]
        expect(rows[0] == ["metric", "p_target", "c_miss", "c_fa", "default_ops", "value"], "eval.csv header")
        want = [("eer", sweep.eer())] + [("min_dcf", v) for v in dcfs] + [("c_primary", float(np.mean(dcfs)))]
        expect(len(rows) == 1 + len(want), f"eval.csv has {len(rows)} rows")
        for row, (name, v) in zip(rows[1:], want):
            expect(row[0] == name and close_sig9(row[5], v), f"eval.csv {row} but expected {name}={v!r}")

    def dcf_curve():
        lines = (work / "dcf.csv").read_text().splitlines()
        n = spec.DCF_POINTS
        expect(lines[0] == "logodds,min_dcf" and lines[n + 1] == "# marked", "dcf.csv layout")
        for x, line in zip(np.linspace(-8.0, 8.0, n), lines[1:n + 1]):
            got_x, got_v = line.split(",")
            want = sweep.min_dcf(sigmoid(float(x)))
            expect(close_sig9(got_x, x) and close_sig9(got_v, want), f"dcf.csv {line!r} but expected {want!r}")
        marked = lines[n + 3:]
        expect(len(marked) == len(spec.EVAL_MARKS), f"dcf.csv has {len(marked)} marked rows")
        for p, line in zip(spec.EVAL_MARKS, marked):
            lam = math.log(float(p) / (1 - float(p)))
            want = sweep.min_dcf(sigmoid(lam))
            got = line.split(",")
            expect(close_sig9(got[0], lam) and close_sig9(got[1], want) and got[2] == f"{float(p):g}",
                   f"dcf.csv marked {line!r} but expected {lam!r},{want!r}")

    checks["score"] = score
    checks["eval"] = evaluate
    checks["dcf-curve"] = dcf_curve
    return checks


def check_backend_100k(work: Path, meta: dict) -> dict:
    sz = meta["sizes"]
    train_ids, train = read_sveb(work / "train.sveb")
    pipe = {}

    def fit():
        mean, proj, length_norm = read_pipeline(work / "backend.svpl")
        pipe.update(mean=mean[0], proj=proj, length_norm=length_norm)
        x = train.astype(np.float64)
        want_mean = x.mean(axis=0)
        expect(np.allclose(mean[0], want_mean, rtol=1e-6, atol=1e-6), "center mean differs from the data mean")
        expect(length_norm, "length-norm stage missing")
        labels = {}
        for line in (work / "train_labels.tsv").read_text().splitlines():
            i, lab = line.split("\t")
            labels[i] = lab
        y = np.array([labels[i] for i in train_ids])
        classes = np.unique(y)
        k = min(spec.DIM, len(classes) - 1)
        expect(proj.shape == (spec.DIM, k), f"LDA shape {proj.shape}, expected {(spec.DIM, k)}")
        p = proj.astype(np.float64)
        expect(np.allclose(np.linalg.norm(p, axis=0), 1.0, atol=1e-5), "LDA columns are not unit norm")
        first = p[np.argmax(np.abs(p) > 1e-12, axis=0), np.arange(k)]
        expect(np.all(first > 0), "LDA sign convention violated")
        xc = (x - mean[0].astype(np.float64)).astype(np.float32).astype(np.float64)
        mu = xc.mean(axis=0)
        sw = np.zeros((spec.DIM, spec.DIM))
        sb = np.zeros((spec.DIM, spec.DIM))
        for c in classes:
            xs = xc[y == c]
            d = xs - xs.mean(axis=0)
            sw += d.T @ d
            g = xs.mean(axis=0) - mu
            sb += len(xs) * np.outer(g, g)
        b = sw + 1e-6 * np.trace(sw) / spec.DIM * np.eye(spec.DIM)
        top = np.sort(scipy.linalg.eigh(sb, b, eigvals_only=True))[::-1][:k]
        bb = p.T @ b @ p
        rayleigh = np.einsum("ij,ij->j", p, sb @ p) / np.diag(bb)
        expect(np.allclose(rayleigh, top, rtol=1e-4, atol=1e-8 * top[0]),
               "LDA columns are not the top generalized eigenvectors")
        off = bb / np.sqrt(np.outer(np.diag(bb), np.diag(bb))) - np.eye(k)
        expect(np.max(np.abs(off)) < 1e-3, "LDA columns are not within-class orthogonal")
        out = (work / "fit-backend.stdout").read_text().strip()
        expect(out == f"fitted pipeline [center -> lda -> length-norm] on {sz['train']} embeddings -> backend.svpl",
               f"fit-backend: {out!r}")

    def applied(x: np.ndarray) -> np.ndarray:
        y = (x.astype(np.float64) - pipe["mean"].astype(np.float64)) @ pipe["proj"].astype(np.float64)
        return y / np.linalg.norm(y, axis=1, keepdims=True)

    def apply_bin():
        ids, out = read_sveb(work / "train_bk.sveb")
        expect(ids == train_ids, "apply-backend reordered or renamed ids")
        expect(np.max(np.abs(out - applied(train))) < 1e-5, "apply-backend output differs from the pipeline")

    def apply_text():
        for name in ("enroll", "test"):
            src_ids, src = read_sveb(work / f"{name}.sveb")
            ids, out = read_tsv_embeddings(work / f"{name}_bk.tsv")
            expect(ids == src_ids, f"{name}_bk.tsv reordered or renamed ids")
            expect(np.max(np.abs(out - applied(src))) < 1e-5, f"{name}_bk.tsv differs from the pipeline")

    pairs, labels = read_trials(work / "trials.txt")

    def score():
        seg_ids, seg_vecs = read_tsv_embeddings(work / "enroll_bk.tsv")
        test_ids, test_vecs = read_tsv_embeddings(work / "test_bk.tsv")
        seg_vecs = seg_vecs.astype(np.float32)  # what svkit holds after reading the TSV
        models = model_vectors(seg_ids, seg_vecs, read_enroll_map(work / "enroll_map.txt"))
        check_scores(work / "scores.tsv", pairs, models, test_ids, test_vecs.astype(np.float32))

    def evaluate():
        scores = read_scores(work / "scores.tsv")
        tar, non = scores[labels], scores[~labels]
        dcfs = [oracles.oracle_min_dcf(tar, non, float(p))[0] for p in spec.EVAL_MARKS]
        check_eval_stdout((work / "eval.stdout").read_text(), len(tar), len(non),
                          oracles.oracle_eer(tar, non), dcfs)

    return {"fit-backend": fit, "apply-backend": apply_bin, "apply-backend-text": apply_text,
            "score": score, "eval": evaluate}


def check_frontend_8k(work: Path, meta: dict) -> dict:
    sz = meta["sizes"]

    def augment():
        ids = [ln.split("\t")[0] for ln in (work / "manifest.tsv").read_text().splitlines()]
        plan = [ln.split("\t") for ln in (work / "plan" / "plan.tsv").read_text().splitlines()]
        expect([p[0] for p in plan] == ids, "plan ids do not follow the manifest")
        flagged = sum(p[1] == "gsm" for p in plan)
        want = int(math.floor(spec.AUGMENT_FRACTION * len(ids) + 0.5))
        expect(flagged == want, f"{flagged} codec-flagged utterances, expected exactly {want}")
        expect(all(p[1] in ("gsm", "none") and p[2] == "down8k" and p[3] in ("0.9", "1", "1.1") for p in plan),
               "plan has an unknown codec, chain or speed")
        cmds = (work / "plan" / "commands.txt").read_text().splitlines()
        expect(len(cmds) == len(ids), f"{len(cmds)} command lines for {len(ids)} utterances")
        out = (work / "augment-plan.stdout").read_text().strip()
        expect(out == f"planned {len(ids)} utterances ({want} codec-flagged) -> plan/commands.txt",
               f"augment-plan: {out!r}")

    def frames(seconds: float, rate: int) -> int:
        n = int(round(seconds * 16000))
        if rate != 16000:
            n = int(round(n * rate / 16000))
        flen, shift = round(rate * 0.025), round(rate * 0.010)
        return 1 + (n - flen) // shift

    def feats_8k():
        ids, m = read_sveb(work / "feats8k" / "speech_rs.feats")
        total = frames(sz["resample_seconds"], 8000)
        expect(m.shape[1] == 80 and 0 < m.shape[0] <= total, f"8 kHz features shape {m.shape}, {total} frames")
        expect(ids == [str(t) for t in range(m.shape[0])], "8 kHz feature rows are not frame-indexed")
        expect(bool(np.all(np.isfinite(m))), "non-finite 8 kHz features")

    def feats_native():
        rows = [ln.split("\t") for ln in (work / "featsnat" / "speech_nat.tsv").read_text().splitlines()]
        total = frames(sz["native_seconds"], 16000)
        expect(0 < len(rows) <= total and all(len(r) == 80 for r in rows),
               f"native features: {len(rows)} rows for {total} frames")
        expect(bool(np.all(np.isfinite(np.array(rows, dtype=np.float64)))), "non-finite native features")

    return {"augment-plan": augment, "features-8k": feats_8k, "features-native": feats_native}


CHECKERS = {"eval-1m": check_eval_1m, "backend-100k": check_backend_100k, "frontend-8k": check_frontend_8k}


def run_checks(work: Path) -> dict[str, list[str]]:
    meta = json.loads((work / "fixtures.json").read_text())
    try:
        checks = CHECKERS[meta["workload"]](work, meta)
    except Exception as e:  # inputs for every check missing or unreadable
        names = [s.name for s in spec.steps(meta["workload"], meta["sizes"], meta["seed"])]
        return {n: [f"setup: {type(e).__name__}: {e}"] for n in names}
    problems = {}
    for name, fn in checks.items():
        try:
            fn()
            problems[name] = []
        except CheckFailed as e:
            problems[name] = [str(e)]
        except Exception as e:  # a missing or malformed output is that step's failure
            problems[name] = [f"{type(e).__name__}: {e}",
                              traceback.format_exc(limit=-1).strip().splitlines()[-2].strip()]
    return problems


if __name__ == "__main__":
    print(json.dumps(run_checks(Path(sys.argv[1]))))
