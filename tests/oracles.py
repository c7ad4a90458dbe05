"""Brute-force reference implementations shared by the test modules.

The metric oracles recompute error rates by direct comparison at every
candidate threshold, deliberately sharing no code with the package's
searchsorted-based sweep.  The resampler oracle evaluates the windowed
sinc afresh for every output sample at its float position; the
phase-table resampler, the hand-written sox templates and the three
augmentation-planning stages are the package's earlier code, kept verbatim
as references.  The scoring
oracle casts, normalises and dots a block of gathered row pairs together.
The enrollment oracle is the dict-of-vectors path that enrollment took
before it read an embedding set directly.  The text-writer oracles format
one value per f-string; the SVEB writer writes one record at a time; the
label, manifest, plan and command writers are the package's earlier
writers, each opening its own file.  The LDA oracle solves its generalized
eigenproblem with scipy.linalg.eigh; the fit_lda oracle is the earlier
fit_lda, which cast the whole set to float64, masked each class and summed
the scatters one class at a time.  The framing
oracle gathers frames through an index array; the filterbank and frame-energy
oracles are the package's earlier functions, which held every frame at once;
the actual-DCF oracle counts
errors by direct comparison, and the text-reader oracles are the package's
earlier readers, each with its own field-count check, kept verbatim with the
record reader they called; the byte-field oracle is the earlier
byte_fields, which checked and gathered the whole file at once; the
labeled-scores oracle is the earlier score reader followed by the
alignment loop that the CLI ran on its table.  The SVEB and SVPL oracles
are the package's earlier binary readers, each with its own hand-kept
offset and bounds checks, and the SVEB record-loop oracle is the reader
that came after them and before record blocks.
"""

import math
import shlex
import struct
from dataclasses import replace
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np
import scipy.linalg

from svkit.audio import _ENERGY_EPS, AudioBuffer, FbankConfig, FeatureMatrix, _frame_params, _frame_signal
from svkit.augment import (CHAIN_DOWN8K, CHAIN_KEEP16K, CHAINS, AugmentPlan, PlanEntry, Utterance,
                           UtteranceManifest, render_commands)
from svkit.errors import ContractError, FormatError
from svkit.scoring import _LABELS, TrialList
from svkit.backend import PIPELINE_MAGIC, PIPELINE_VERSION, Pipeline
from svkit.store import FORMAT_VERSION, MAGIC, EmbeddingSet, _is_sveb, _open_binary, record_errors, text_lines

_RESAMPLE_CELLS = 1 << 18  # resample's block budget: (output, tap) cells per block, at least one output
_RESAMPLE_MAX_TAPS = 1 << 22  # longest kernel resample accepts


def oracle_points(tar, non):
    """(threshold, p_fa, p_miss) at every distinct score plus +-inf."""
    cands = np.concatenate([[-np.inf], np.unique(np.concatenate([tar, non])), [np.inf]])
    out = []
    for t in cands:  # accept iff score >= t (ties accept)
        p_miss = float(np.mean(tar < t))
        p_fa = float(np.mean(non >= t))
        out.append((float(t), p_fa, p_miss))
    return out


def oracle_min_dcf(tar, non, p, cm=1.0, cf=1.0):
    norm = min(cm * p, cf * (1 - p))
    best_v, best_t = np.inf, None
    for t, p_fa, p_miss in oracle_points(tar, non):  # ascending thresholds
        v = (cm * p * p_miss + cf * (1 - p) * p_fa) / norm
        if v < best_v:  # strict: ties keep the smallest threshold
            best_v, best_t = v, t
    return best_v, best_t


def oracle_eer(tar, non):
    pts = oracle_points(tar, non)
    for i in range(len(pts)):
        _, p_fa, p_miss = pts[i]
        if p_miss - p_fa >= 0:
            if p_miss == p_fa:
                return p_miss
            _, f0, m0 = pts[i - 1]
            _, f1, m1 = pts[i]
            t = (f0 - m0) / ((m1 - m0) - (f1 - f0))
            return m0 + t * (m1 - m0)
    raise AssertionError("no miss/false-alarm crossing")


def oracle_resample(x, src, target_rate, taps=64, kaiser_beta=5.0):
    """Per-output windowed-sinc resampler: the kernel is rebuilt at every
    output's float position k * src / target_rate.  Same contract as
    svkit.audio.resample, on a plain sample array."""
    n = len(x)
    n_out = int(round(n * target_rate / src))
    if n == 0 or n_out == 0:
        return np.zeros(0)

    min_rate = min(src, target_rate)
    cutoff_hz = 0.95 * min_rate / 2.0
    n_taps = max(2, int(round(taps * src / min_rate)))  # tap grid is the input grid
    half_span = n_taps / 2.0  # kernel half-width, input samples
    i0_beta = np.i0(kaiser_beta)
    step = src / target_rate
    offs = np.arange(n_taps)

    out = np.empty(n_out)
    block = 1 << 15
    for lo in range(0, n_out, block):
        hi = min(lo + block, n_out)
        pos = np.arange(lo, hi) * step  # output positions on the input grid
        first = np.floor(pos).astype(np.int64) - (n_taps // 2 - 1)
        idx = first[:, None] + offs[None, :]
        dt = (pos[:, None] - idx) / src  # seconds from kernel center
        w = np.sinc(2.0 * cutoff_hz * dt)
        u = (pos[:, None] - idx) / half_span  # in (-1, 1]
        w *= np.i0(kaiser_beta * np.sqrt(np.maximum(0.0, 1.0 - u * u))) / i0_beta
        w /= w.sum(axis=1, keepdims=True)
        # reflect out-of-range tap indices back into the signal
        m = np.mod(idx, 2 * n)
        idx_r = np.where(m >= n, 2 * n - 1 - m, m)
        out[lo:hi] = (w * x[idx_r]).sum(axis=1)
    return out


def oracle_phase_table_resample(
    buf: AudioBuffer,
    target_rate: int,
    taps: int = 64,
    kaiser_beta: float = 5.0,
) -> AudioBuffer:
    """svkit.audio.resample as it was with a phase table built ahead of the
    block loop, a per-block fallback when the phases outnumber a block's
    outputs, and reflection of every (output, tap) index on its own."""
    if target_rate <= 0:
        raise ContractError(f"target_rate must be positive, got {target_rate}")
    src = buf.sample_rate
    x = buf.samples
    if src == target_rate:
        return AudioBuffer(x.copy(), src)
    n = len(x)
    n_out = int(round(n * target_rate / src))
    if n == 0 or n_out == 0:
        return AudioBuffer(np.zeros(0), target_rate)

    min_rate = min(src, target_rate)
    cutoff_hz = 0.95 * min_rate / 2.0
    n_taps = max(2, int(round(taps * src / min_rate)))  # tap grid is the input grid
    if n_taps > _RESAMPLE_MAX_TAPS:
        raise ContractError(f"{src} -> {target_rate} Hz needs {n_taps} taps, more than {_RESAMPLE_MAX_TAPS}")
    half_span = n_taps / 2.0  # kernel half-width, input samples
    i0_beta = np.i0(kaiser_beta)
    g = math.gcd(src, target_rate)
    up, down = target_rate // g, src // g
    lead = n_taps // 2 - 1  # taps before the floor of the output position
    offs = np.arange(n_taps)

    def phase_weights(phase: np.ndarray) -> np.ndarray:
        # output position minus tap index: the phase's fractional position
        # (phase * down mod up) / up, plus lead - tap
        d = ((phase * down) % up / up)[:, None] + (lead - offs)[None, :]
        w = np.sinc(2.0 * cutoff_hz * (d / src))
        u = d / half_span  # in (-1, 1]
        w *= np.i0(kaiser_beta * np.sqrt(np.maximum(0.0, 1.0 - u * u))) / i0_beta
        w /= w.sum(axis=1, keepdims=True)
        return w

    block = max(1, _RESAMPLE_CELLS // n_taps)  # outputs per block: 2048 at 128 taps
    # one row per phase; with more phases than a block has outputs, no
    # phase repeats within a block, so each block builds its own rows
    table = phase_weights(np.arange(up)) if up <= block else None
    out = np.empty(n_out)
    for lo in range(0, n_out, block):
        k = np.arange(lo, min(lo + block, n_out))
        phase = k % up
        first = (k // up) * down + (phase * down) // up - lead
        idx = first[:, None] + offs[None, :]
        w = table[phase] if table is not None else phase_weights(phase)
        # reflect out-of-range tap indices back into the signal
        m = np.mod(idx, 2 * n)
        idx_r = np.where(m >= n, 2 * n - 1 - m, m)
        out[lo : lo + len(k)] = (w * x[idx_r]).sum(axis=1)
    return AudioBuffer(out, target_rate)


def _speed_suffix(speed: float) -> str:
    return "" if speed == 1.0 else f" speed {speed:g}"


def oracle_render_commands(plan, out_dir: str) -> list[str]:
    """svkit.augment.render_commands as it was, with each of its six sox
    line shapes written out by hand."""
    lines = []
    for utt, entry in zip(plan.manifest.utterances, plan.entries):
        src = shlex.quote(utt.path)
        dst = shlex.quote(f"{out_dir}/{entry.utt_id}.wav")
        tmp_gsm = shlex.quote(f"{out_dir}/{entry.utt_id}.gsm")
        tmp_8k = shlex.quote(f"{out_dir}/{entry.utt_id}.8k.wav")
        sp = _speed_suffix(entry.speed)
        if entry.chain == CHAIN_KEEP16K:
            if entry.codec == "gsm":
                raise ContractError(
                    f"{entry.utt_id}: codec requires an 8 kHz chain, not {CHAIN_KEEP16K}"
                )
            if entry.speed == 1.0:
                lines.append(f"cp {src} {dst}")
            else:
                lines.append(f"sox {src} {dst}{sp}")
        elif entry.chain == CHAIN_DOWN8K:
            if entry.codec == "gsm":
                lines.append(
                    f"sox {src} -r 8000 -t gsm {tmp_gsm}{sp} && "
                    f"sox {tmp_gsm} -t wav -e signed -b 16 {dst}"
                )
            else:
                lines.append(f"sox {src} -r 8000 {dst}{sp}")
        else:  # down8k-up16k: codec (when flagged) happens at 8 kHz, then upsample
            if entry.codec == "gsm":
                lines.append(
                    f"sox {src} -r 8000 -t gsm {tmp_gsm}{sp} && "
                    f"sox {tmp_gsm} -t wav -e signed -b 16 -r 16000 {dst}"
                )
            else:
                lines.append(
                    f"sox {src} -r 8000 {tmp_8k}{sp} && sox {tmp_8k} -r 16000 {dst}"
                )
    return lines


def oracle_plan(manifest, fraction, mode, seed, speed_perturb=False, speed_seed=None) -> list[PlanEntry]:
    """The entries of svkit.augment's earlier three planning stages, run in
    turn with the CLI's default speed seed.  Each stage body is kept verbatim
    but passes an entry list on, not an AugmentPlan: the first stage leaves
    every entry on the keep16k default, where a gsm entry is no plan."""
    entries = _oracle_assign_codec(manifest, fraction, seed)
    entries = _oracle_plan_rate_chain(entries, mode)
    speed_seed = speed_seed if speed_seed is not None else seed + 1
    return _oracle_assign_speed(entries, speed_perturb, speed_seed)


def _oracle_assign_codec(manifest, fraction: float, seed: int) -> list[PlanEntry]:
    if not 0 <= fraction <= 1:
        raise ContractError(f"fraction must be in [0, 1], got {fraction}")
    n = len(manifest)
    k = int(np.floor(fraction * n + 0.5))
    order = np.random.default_rng(seed).permutation(n)
    ids = manifest.ids  # a property that builds a new list on every access
    flagged = {ids[i] for i in order[:k]}
    return [PlanEntry(u, codec="gsm" if u in flagged else "none") for u in ids]


def _oracle_plan_rate_chain(entries, mode: str) -> list[PlanEntry]:
    if mode not in CHAINS:
        raise ContractError(f"unknown chain mode {mode!r}")
    return [replace(e, chain=mode) for e in entries]


_SPEED_FACTORS = (0.9, 1.0, 1.1)


def _oracle_assign_speed(entries, perturb: bool, seed: int) -> list[PlanEntry]:
    if not perturb:
        return [replace(e, speed=1.0) for e in entries]
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(_SPEED_FACTORS), size=len(entries))
    return [replace(e, speed=_SPEED_FACTORS[p]) for e, p in zip(entries, picks)]


def oracle_score_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine score of each row pair (a[i], b[i]), with both norms taken
    from the block itself.  Same contract as svkit.scoring.score_trials
    on the gathered rows of one block of trials."""
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    na = np.sqrt(np.einsum("ij,ij->i", a, a))
    nb = np.sqrt(np.einsum("ij,ij->i", b, b))
    if np.any(na == 0) or np.any(nb == 0):
        raise ContractError("cannot score a zero vector")
    return np.einsum("ij,ij->i", a, b) / (na * nb)


def cosine_score(a, b) -> float:
    """Cosine similarity a.b / (|a||b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ContractError("cannot score a zero vector")
    return float(np.dot(a, b) / (na * nb))


def oracle_build_enrollment(segments) -> EmbeddingSet:
    """Aggregate per-model segment embeddings into a set of unit-norm model vectors.

    `segments` maps model_id -> list of embedding vectors.  Each member is
    length-normalized, members are averaged, and the average is normalized
    again; a zero average (e.g. antipodal members) is an error.  Same
    contract as svkit.scoring.build_enrollment on the looked-up members.
    """
    models = []
    for model_id, vecs in segments.items():
        if len(vecs) == 0:
            raise ContractError(f"model {model_id!r} has no member segments")
        members = []
        for v in vecs:
            v = np.asarray(v, dtype=np.float64)
            n = np.linalg.norm(v)
            if n == 0:
                raise ContractError(f"model {model_id!r} has a zero-norm member")
            members.append(v / n)
        mean = np.mean(members, axis=0)
        n = np.linalg.norm(mean)
        if n == 0:
            raise ContractError(f"model {model_id!r}: member mean is the zero vector")
        models.append((model_id, mean / n))
    if not models:
        raise ContractError("no enrollment models")
    return EmbeddingSet(
        [m for m, _ in models], np.stack([v for _, v in models]).astype(np.float32)
    )


def oracle_write_embeddings(s, path) -> None:
    """SVEB, one record at a time."""
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<HQI", FORMAT_VERSION, len(s), s.dim))
        for id_, vec in zip(s.ids, s.vectors):
            raw = id_.encode("utf-8")
            f.write(struct.pack("<H", len(raw)) + raw + vec.astype("<f4").tobytes())


def oracle_write_embeddings_tsv(s, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for id_, vec in zip(s.ids, s.vectors):
            f.write(id_ + "\t" + "\t".join(f"{v:.9g}" for v in vec) + "\n")


def oracle_write_matrix_tsv(values: np.ndarray, path) -> None:
    """Plain-text matrix dump: one row per line, tab-separated values."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ContractError(f"matrix must be 2-D, got shape {values.shape}")
    with open(path, "w", encoding="utf-8") as f:
        for row in values:
            f.write("\t".join(f"{v:.9g}" for v in row) + "\n")


def oracle_write_scores(trials, scores: np.ndarray, path) -> None:
    """Score TSV: `enroll<TAB>test<TAB>score` with 6 decimal digits."""
    scores = np.asarray(scores)
    if scores.shape != (len(trials),):
        raise ContractError(f"{scores.shape[0]} scores for {len(trials)} trials")
    with open(path, "w", encoding="utf-8") as f:
        for (e, t), s in zip(trials.pairs, scores):
            f.write(f"{e}\t{t}\t{s:.6f}\n")


def oracle_write_labels(labels: Mapping[str, str], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for id_, lab in labels.items():
            f.write(f"{id_}\t{lab}\n")


def oracle_write_manifest(manifest: UtteranceManifest, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for u in manifest.utterances:
            f.write(f"{u.utt_id}\t{u.path}\t{u.duration_s:g}\t{u.sample_rate}\n")


def oracle_write_plan(plan: AugmentPlan, path) -> None:
    """Plan TSV: `utt_id<TAB>codec<TAB>chain<TAB>speed`."""
    with open(path, "w", encoding="utf-8") as f:
        for e in plan.entries:
            f.write(f"{e.utt_id}\t{e.codec}\t{e.chain}\t{e.speed:g}\n")


def oracle_emit_commands(plan: AugmentPlan, out_dir) -> Path:
    """Write the command manifest to `<out_dir>/commands.txt`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "commands.txt"
    lines = render_commands(plan, str(out))
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")
    return path


def _lda_scatter(s, labels):
    """The earlier fit_lda's class count, within-class scatter and ridge-free
    between-class scatter: one float64 copy of the set, and a boolean mask per
    class of a numpy str array of the set's labels, which holds a label with a
    trailing NUL as the label without it."""
    labels = np.asarray([labels[i] for i in s.ids])
    classes = np.unique(labels)
    d = s.dim
    x = s.vectors.astype(np.float64)
    mean = x.mean(axis=0)
    sw = np.zeros((d, d))
    sb = np.zeros((d, d))
    for c in classes:
        xc = x[labels == c]
        mc = xc.mean(axis=0)
        diff = xc - mc
        sw += diff.T @ diff
        gap = mc - mean
        sb += len(xc) * np.outer(gap, gap)
    eps = 1e-6 * np.trace(sw) / d
    if eps <= 0:
        eps = 1e-12
    return len(classes), sw + eps * np.eye(d), sb


def _fix_signs(proj):
    proj /= np.linalg.norm(proj, axis=0, keepdims=True)
    for j in range(proj.shape[1]):
        col = proj[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            proj[:, j] = -col
    return proj


def oracle_lda(s, labels, k=None):
    """svkit.backend.fit_lda's float64 projection, before the float32 cast,
    with the generalized eigenproblem solved by scipy.linalg.eigh(sb, sw +
    eps I).  Returns (projection, every eigenvalue in ascending order)."""
    n_classes, sw, sb = _lda_scatter(s, labels)
    k = min(s.dim, n_classes - 1) if k is None else k
    vals, vecs = scipy.linalg.eigh(sb, sw)
    return _fix_signs(vecs[:, np.argsort(vals)[::-1][:k]]), vals


def oracle_fit_lda(s, labels, k=None) -> np.ndarray:
    """svkit.backend.fit_lda as it was, on a float64 copy of the whole set: its
    float64 projection, before the float32 cast."""
    n_classes, sw, sb = _lda_scatter(s, labels)
    k = min(s.dim, n_classes - 1) if k is None else k
    inv = np.linalg.inv(np.linalg.cholesky(sw))
    vals, y = np.linalg.eigh(inv @ sb @ inv.T)
    return _fix_signs((inv.T @ y)[:, np.argsort(vals)[::-1][:k]])


def oracle_frame_signal(x: np.ndarray, flen: int, fshift: int) -> np.ndarray:
    """svkit.audio._frame_signal as it was, gathering a copy of every frame
    through an int64 (frames x frame length) index array."""
    # snip-edges framing: T = 1 + floor((N - flen) / fshift)
    if len(x) < flen:
        raise ContractError(f"audio too short: {len(x)} samples < one {flen}-sample frame")
    t = 1 + (len(x) - flen) // fshift
    idx = fshift * np.arange(t)[:, None] + np.arange(flen)[None, :]
    return x[idx]


def oracle_mel_filterbank(n_mels: int, n_fft: int, sample_rate: int, low_freq: float, high_freq: float):
    """svkit.audio.mel_filterbank as it was, one mel's triangle at a time, for
    valid arguments: the (n_mels, n_fft // 2 + 1) weights and the centers in Hz."""

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    edges = np.linspace(to_mel(low_freq), to_mel(high_freq), n_mels + 2)
    bin_mels = to_mel(np.arange(n_fft // 2 + 1) * (sample_rate / n_fft))
    weights = np.zeros((n_mels, len(bin_mels)))
    for m in range(n_mels):
        left, center, right = edges[m], edges[m + 1], edges[m + 2]
        up = (bin_mels - left) / (center - left)
        down = (right - bin_mels) / (right - center)
        weights[m] = np.maximum(0.0, np.minimum(up, down))
    return weights, 700.0 * (10.0 ** (edges[1:-1] / 2595.0) - 1.0)


def oracle_log_mel_fbank(buf: AudioBuffer, cfg: FbankConfig = FbankConfig(), rng=None) -> FeatureMatrix:
    """svkit.audio.log_mel_fbank as it was, holding every frame, its spectrum
    and its power at once."""
    flen, fshift = _frame_params(buf.sample_rate, cfg.frame_len_ms, cfg.frame_shift_ms)
    frames = _frame_signal(buf.samples, flen, fshift).copy()
    if cfg.dither > 0 and rng is None:
        raise ContractError("dither > 0 requires an explicit rng")
    # a huge dither or pre-emphasis overflows to a non-finite value, which FeatureMatrix rejects
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.dither > 0:
            frames += cfg.dither * rng.standard_normal(frames.shape)
        # frame-local pre-emphasis keeps frames independent of their neighbours
        if cfg.preemphasis != 0.0:
            frames[:, 1:] -= cfg.preemphasis * frames[:, :-1]
            frames[:, 0] *= 1.0 - cfg.preemphasis
        frames *= np.hamming(flen)

        n_fft = 1
        while n_fft < flen:
            n_fft *= 2
        power = np.abs(np.fft.rfft(frames, n_fft)) ** 2

        high = cfg.high_freq if cfg.high_freq is not None else buf.sample_rate / 2.0
        bank, _ = oracle_mel_filterbank(cfg.n_mels, n_fft, buf.sample_rate, cfg.low_freq, high)
        energies = power @ bank.T
        values = np.log(np.maximum(energies, cfg.log_floor))
    return FeatureMatrix(values)


def oracle_frame_log_energies(buf: AudioBuffer, fbank: FbankConfig = FbankConfig()) -> np.ndarray:
    """svkit.audio.frame_log_energies as it was, squaring every frame at once."""
    flen, fshift = _frame_params(buf.sample_rate, fbank.frame_len_ms, fbank.frame_shift_ms)
    frames = _frame_signal(buf.samples, flen, fshift)
    return np.log(np.maximum((frames * frames).sum(axis=1), _ENERGY_EPS))


def oracle_act_dcf(scores, op, threshold: float) -> float:
    """svkit.metrics.act_dcf as it was: error rates counted by comparing
    every score with the threshold."""
    p_miss = float(np.mean(scores.target < threshold))
    p_fa = float(np.mean(scores.nontarget >= threshold))
    norm = min(op.c_miss * op.p_target, op.c_fa * (1 - op.p_target))
    return (op.c_miss * op.p_target * p_miss + op.c_fa * (1 - op.p_target) * p_fa) / norm


def oracle_records(path, sep="\t", comment=False) -> Iterator[tuple[int, list[str]]]:
    """Stream (line number, fields) for each non-blank line of text_lines(path).

    Fields are the line, minus its newline, split at ``sep``; ``sep=None``
    splits at any run of whitespace.  ``comment=True`` first drops
    everything from the first ``#``.
    """
    for ln, line in text_lines(path):
        if comment:
            line = line.split("#", 1)[0]
        if line.strip():
            yield ln, line.split() if sep is None else line.rstrip("\n").split(sep)


def oracle_byte_fields(path, fields, sep) -> list[np.ndarray] | None:
    """The records of a file as one zero-padded uint8 matrix per field, a row per record,
    when a check over its bytes proves that ``records(path, ..., fields=fields, sep=sep)``
    yields the same fields: every byte is an ASCII graphic character other than ``#``, a
    separator (``sep``, or space and tab for ``sep=None``) or ``\n``; every non-blank line
    has the same field count, within ``fields``; a ``sep`` sits between two field bytes; and
    no matrix is larger than the file.  None for any other file, which the caller then reads
    with ``records``: so pass a pipe as ``read_once(path)``.
    """
    with _open_binary(path) as f:
        data = np.frombuffer(f.read(), np.uint8)
    in_field = np.zeros(len(data) + 2, bool)  # byte i is in_field[i + 1]
    field = in_field[1:-1]
    np.less(data - np.uint8(0x21), 0x7F - 0x21, out=field)  # ASCII graphic: 0x21 to 0x7E
    field &= data != ord("#")
    at_sep = data == ord(sep) if sep is not None else (data == ord(" ")) | (data == ord("\t"))
    at_end = data == ord("\n")
    if sum(map(np.count_nonzero, (field, at_sep, at_end))) != len(data):  # three disjoint sets
        return None
    edges = np.flatnonzero(in_field[1:] != in_field[:-1])
    starts, lengths = edges[0::2], edges[1::2] - edges[0::2]
    if sep is not None:
        at = np.flatnonzero(at_sep)
        if not (in_field[at] & in_field[at + 2]).all():
            return None  # an empty field
    per_line = np.diff(np.searchsorted(starts, np.append(np.flatnonzero(at_end), len(data))), prepend=0)
    k = int(per_line.max(initial=0))
    lo, hi = fields
    if k == 0 or k < lo or (hi is not None and k > hi) or ((per_line != 0) & (per_line != k)).any():
        return None
    rows = len(starts) // k
    widths = lengths.reshape(rows, k).max(axis=0).tolist()
    if rows * max(widths) > len(data):
        return None
    cols = []
    for j, width in enumerate(widths):
        col = np.empty((rows, width), np.uint8)
        at = starts[j::k].copy()
        for p in range(width):  # one byte position at a time: no (rows, width) index matrix
            col[:, p] = data.take(at, mode="clip")
            at += 1
        col[lengths[j::k, None] <= np.arange(width)] = 0
        cols.append(col)
    return cols


def oracle_parse_tsv(path) -> EmbeddingSet:
    ids = []
    rows = []
    dim = None
    for ln, fields in oracle_records(path):
        if len(fields) < 2:
            raise FormatError(f"{path}:{ln}: expected id and at least one value")
        try:
            row = [float(v) for v in fields[1:]]
        except ValueError:
            raise FormatError(f"{path}:{ln}: non-numeric value") from None
        if dim is None:
            dim = len(row)
        elif len(row) != dim:
            raise FormatError(
                f"{path}:{ln}: dimension {len(row)} != {dim} of first record"
            )
        ids.append(fields[0])
        rows.append(row)
    if dim is None:
        raise FormatError(f"{path}: no records")
    with record_errors(path):  # a bad or duplicate id, or a non-finite value, as in SVEB
        return EmbeddingSet(ids, np.asarray(rows, dtype=np.float32))


def oracle_read_matrix(path) -> np.ndarray:
    """Read a matrix: SVEB, id-prefixed TSV, or plain numeric TSV."""
    if _is_sveb(path):
        return oracle_parse_sveb(path).vectors.astype(np.float64)
    rows = []
    for ln, fields in oracle_records(path):
        try:
            rows.append([float(v) for v in fields])
        except ValueError:
            if rows:  # the first record fixed the plain layout
                raise FormatError(f"{path}:{ln}: non-numeric value") from None
            # the first record starts with an id, not a number: id-prefixed layout
            return oracle_parse_tsv(path).vectors.astype(np.float64)
        if len(rows[-1]) != len(rows[0]):
            raise FormatError(f"{path}:{ln}: inconsistent row length")
    if not rows:
        raise FormatError(f"{path}: no rows")
    m = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(m)):  # as the SVEB and id-prefixed layouts reject
        raise FormatError(f"{path}: non-finite matrix values")
    return m


def oracle_read_labels(path) -> dict[str, str]:
    out: dict[str, str] = {}
    for ln, fields in oracle_records(path):
        if len(fields) != 2:
            raise FormatError(f"{path}:{ln}: expected 'id<TAB>label'")
        if fields[0] in out:
            raise FormatError(f"{path}:{ln}: duplicate id {fields[0]!r}")
        out[fields[0]] = fields[1]
    return out


def oracle_parse_trials(path) -> TrialList:
    """Parse whitespace-separated `enroll test [label]` lines.

    `#` starts a comment; labels are matched case-insensitively against
    target/nontarget and must be present on all lines or none.
    """
    pairs: list[tuple[str, str]] = []
    labels: list[bool] = []
    seen: set[tuple[str, str]] = set()
    labeled: bool | None = None
    for ln, fields in oracle_records(path, sep=None, comment=True):
        if len(fields) not in (2, 3):
            raise FormatError(f"{path}:{ln}: expected 'enroll test [label]'")
        pair = (fields[0], fields[1])
        if pair in seen:
            raise FormatError(f"{path}:{ln}: duplicate pair {pair[0]} {pair[1]}")
        seen.add(pair)
        has_label = len(fields) == 3
        if labeled is None:
            labeled = has_label
        elif labeled != has_label:
            raise FormatError(f"{path}:{ln}: mixed labeled and unlabeled lines")
        if has_label:
            key = fields[2].lower()
            if key not in _LABELS:
                raise FormatError(f"{path}:{ln}: unknown label {fields[2]!r}")
            labels.append(_LABELS[key])
        pairs.append(pair)
    return TrialList.from_pairs(pairs, np.asarray(labels, dtype=bool) if labeled else None)


def oracle_parse_enroll_map(path) -> dict[str, list[str]]:
    """Parse `model seg1 seg2 ...` lines (one model per line)."""
    out: dict[str, list[str]] = {}
    for ln, fields in oracle_records(path, sep=None, comment=True):
        if len(fields) < 2:
            raise FormatError(f"{path}:{ln}: expected 'model seg1 [seg2 ...]'")
        if fields[0] in out:
            raise FormatError(f"{path}:{ln}: duplicate model {fields[0]!r}")
        out[fields[0]] = fields[1:]
    return out


def oracle_read_scores(path) -> dict[tuple[str, str], float]:
    out: dict[tuple[str, str], float] = {}
    for ln, fields in oracle_records(path):
        if len(fields) != 3:
            raise FormatError(f"{path}:{ln}: expected 'enroll<TAB>test<TAB>score'")
        try:
            score = float(fields[2])
        except ValueError:
            raise FormatError(f"{path}:{ln}: bad score {fields[2]!r}") from None
        key = (fields[0], fields[1])
        if key in out:
            raise FormatError(f"{path}:{ln}: duplicate pair {key[0]} {key[1]}")
        out[key] = score
    return out


def oracle_labeled_scores(path, trials: TrialList) -> np.ndarray:
    """Score per trial in trial order: the earlier score table, then the
    alignment loop that the CLI ran on it."""
    by_pair = oracle_read_scores(path)
    if list(by_pair) == trials.pairs:  # `score` writes in trial order
        return np.fromiter(by_pair.values(), np.float64, len(trials))
    values = np.empty(len(trials))
    for k, pair in enumerate(trials.pairs):
        if pair not in by_pair:
            raise ContractError(f"no score for trial {pair[0]} {pair[1]}")
        values[k] = by_pair[pair]
    return values


def oracle_read_manifest(path) -> UtteranceManifest:
    """TSV manifest: `utt_id<TAB>path<TAB>duration_s<TAB>sample_rate`."""
    utts = []
    for ln, fields in oracle_records(path):
        if len(fields) != 4:
            raise FormatError(f"{path}:{ln}: expected 4 tab-separated fields")
        try:
            utts.append(
                Utterance(fields[0], fields[1], float(fields[2]), int(fields[3]))
            )
        except ValueError:
            raise FormatError(f"{path}:{ln}: bad duration or sample rate") from None
    with record_errors(path):  # a duplicate id, or a bad duration or rate
        return UtteranceManifest(utts)


def oracle_read_plan(path, manifest: UtteranceManifest) -> AugmentPlan:
    entries = []
    for ln, fields in oracle_records(path):
        if len(fields) != 4:
            raise FormatError(f"{path}:{ln}: expected 4 tab-separated fields")
        try:
            speed = float(fields[3])
        except ValueError:
            raise FormatError(f"{path}:{ln}: bad speed factor") from None
        entries.append(PlanEntry(fields[0], fields[1], fields[2], speed))
    with record_errors(path):  # entries that do not match the manifest, or a bad field
        return AugmentPlan(manifest, entries)


_HEADER = struct.Struct("<HQI")  # version, count, dim


def oracle_parse_sveb(path) -> EmbeddingSet:
    data = Path(path).read_bytes()
    off = len(MAGIC)
    if len(data) < off + _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    version, count, dim = _HEADER.unpack_from(data, off)
    off += _HEADER.size
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    vec_bytes = 4 * dim
    # every record takes at least its id length and vector: check before allocating
    if count * (2 + vec_bytes) > len(data) - off:
        raise FormatError(f"{path}: header claims {count} records of dim {dim}, "
                          f"more than the {len(data) - off} bytes that follow")
    ids = []
    vecs = np.empty((count, dim), dtype=np.float32)
    for k in range(count):
        if off + 2 > len(data):
            raise FormatError(f"{path}: truncated at record {k}")
        (id_len,) = struct.unpack_from("<H", data, off)
        off += 2
        if off + id_len + vec_bytes > len(data):
            raise FormatError(f"{path}: truncated at record {k}")
        try:
            ids.append(data[off : off + id_len].decode("utf-8"))
        except UnicodeDecodeError:
            raise FormatError(f"{path}: record {k}: id is not UTF-8") from None
        off += id_len
        vecs[k] = np.frombuffer(data, dtype="<f4", count=dim, offset=off)
        off += vec_bytes
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes")
    with record_errors(path):  # empty, blank or duplicate id, or a non-finite value
        return EmbeddingSet(ids, vecs)


def oracle_sveb_record_loop(path) -> EmbeddingSet:
    """The SVEB reader before record blocks, on its record loop: the whole file in memory
    and a bounded cursor over it, with the messages and byte offsets that read_embeddings
    keeps."""
    data, off = memoryview(Path(path).read_bytes()), 0

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(data):
            raise FormatError(f"{path}: truncated: {n} bytes needed at byte {off}")
        off += n
        return data[off - n : off]

    if take(4) != MAGIC:
        raise FormatError(f"{path}: not a SVEB file")
    (version,) = struct.unpack("<H", take(2))
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported SVEB version {version}")
    count, dim = struct.unpack("<QI", take(12))
    if dim == 0:
        raise FormatError(f"{path}: dimension 0: a record needs at least one value")
    if count * (2 + 4 * dim) > len(data) - off:
        raise FormatError(f"{path}: header claims {count} records of dim {dim}, "
                          f"more than the {len(data) - off} bytes that follow")
    ids, vecs = [], np.empty((count, dim), dtype=np.float32)
    for k in range(count):
        (id_len,) = struct.unpack("<H", take(2))
        record = take(id_len + 4 * dim)
        try:
            ids.append(str(record[:id_len], "utf-8"))
        except UnicodeDecodeError:
            raise FormatError(f"{path}: record {k}: id is not UTF-8") from None
        vecs[k] = np.frombuffer(record[id_len:], "<f4")
    if off < len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes")
    with record_errors(path):
        return EmbeddingSet(ids, vecs)


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise FormatError(f"{self.path}: truncated pipeline file")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def mat(self) -> np.ndarray:
        rows, cols = struct.unpack("<II", self.take(8))
        raw = self.take(4 * rows * cols)
        return np.frombuffer(raw, dtype="<f4").reshape(rows, cols).copy()

    def flag(self) -> bool:
        (b,) = self.take(1)
        if b > 1:
            raise FormatError(f"{self.path}: flag byte {b} is neither 0 nor 1")
        return bool(b)


def oracle_load_pipeline(path) -> Pipeline:
    data = Path(path).read_bytes()
    r = _Reader(data, path)
    if r.take(4) != PIPELINE_MAGIC:
        raise FormatError(f"{path}: not a pipeline file")
    (version,) = struct.unpack("<H", r.take(2))
    if version != PIPELINE_VERSION:
        raise FormatError(f"{path}: unsupported pipeline version {version}")
    with record_errors(path):  # a non-finite stage, or stages of different dims
        center = None
        if r.flag():
            mean = r.mat()
            if mean.shape[0] != 1:
                raise FormatError(f"{path}: center mean has {mean.shape[0]} rows, not 1")
            center = Pipeline(center=mean[0]).center  # checked before the next stage is read
        lda = Pipeline(lda=r.mat()).lda if r.flag() else None
        length_norm = r.flag()
        if r.off != len(data):
            raise FormatError(f"{path}: {len(data) - r.off} trailing bytes")
        return Pipeline(center=center, lda=lda, length_norm=length_norm)
