"""Brute-force reference implementations shared by the test modules.

The metric oracles recompute error rates by direct comparison at every
candidate threshold, deliberately sharing no code with the package's
searchsorted-based sweep.  The resampler oracle evaluates the windowed
sinc afresh for every output sample at its float position.
"""

import numpy as np


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
