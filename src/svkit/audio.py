"""Audio I/O, band-limited resampling, log-Mel filterbank, energy VAD.

All operations are pure given their inputs; nothing here keeps state, so
concurrent calls on distinct buffers are safe.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FormatError

_ENERGY_EPS = np.finfo(np.float64).tiny


@dataclass
class AudioBuffer:
    """Mono audio: samples (float, nominally in [-1, 1]) plus sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ContractError(f"expected mono 1-D samples, got shape {self.samples.shape}")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ContractError("non-finite samples")
        if int(self.sample_rate) != self.sample_rate or self.sample_rate <= 0:
            raise ContractError(f"sample_rate must be a positive integer, got {self.sample_rate}")
        self.sample_rate = int(self.sample_rate)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def read_wav(path) -> AudioBuffer:
    """Read a RIFF/WAVE PCM 16-bit mono file, scaling samples by 1/32768."""
    try:
        with wave.open(str(path), "rb") as w:
            if w.getcomptype() != "NONE":
                raise FormatError(f"{path}: compressed WAV not supported")
            if w.getnchannels() != 1:
                raise FormatError(f"{path}: expected mono, got {w.getnchannels()} channels")
            if w.getsampwidth() != 2:
                raise FormatError(f"{path}: expected 16-bit PCM, got {8 * w.getsampwidth()}-bit")
            rate = w.getframerate()
            n = w.getnframes()
            data = w.readframes(n)
    except wave.Error as e:
        raise FormatError(f"{path}: {e}") from None
    except EOFError:
        raise OSError(f"{path}: truncated file") from None
    if len(data) < 2 * n:
        raise OSError(f"{path}: truncated file: {len(data)} bytes for {n} frames")
    samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    return AudioBuffer(samples, rate)


def write_wav(buf: AudioBuffer, path) -> None:
    """Write PCM16 mono; read_wav(write_wav(x)) reproduces samples to 1 LSB."""
    pcm = np.clip(np.round(buf.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(buf.sample_rate)
        w.writeframes(pcm.tobytes())


def resample(
    buf: AudioBuffer,
    target_rate: int,
    taps: int = 64,
    kaiser_beta: float = 5.0,
) -> AudioBuffer:
    """Windowed-sinc band-limited resampling to target_rate.

    Kaiser-windowed sinc with cutoff at 0.95 * min(source, target) / 2 Hz
    and `taps` taps per phase counted at the lower of the two rates (the
    kernel stretches when downsampling, as an anti-aliasing filter must).
    Per-output tap weights are normalized to unit sum so DC is preserved
    exactly; edges use reflection padding.  Output length is
    round(len * target / source).

    With L = target / gcd(source, target) and M = source / gcd, output
    k = q*L + p sits at input position q*M + p*M/L, so its weights depend
    only on the phase p: they are built once per phase, and tap positions
    come from exact integer arithmetic.  For integer ratios (L = 1 or
    M = 1) the result is bitwise equal to evaluating the kernel at every
    output's float position k * source / target.  For other ratios it
    differs from that only by the rounding of the float position, which
    grows with k: at most 1e-9 on 3 s of noise in [-1, 1].
    """
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

    block = 1 << 15
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


@dataclass(frozen=True)
class FbankConfig:
    n_mels: int = 80
    frame_len_ms: float = 25.0
    frame_shift_ms: float = 10.0
    preemphasis: float = 0.97
    low_freq: float = 20.0
    high_freq: float | None = None  # None -> Nyquist
    log_floor: float = 1e-10
    dither: float = 0.0  # stddev of additive noise; 0 keeps extraction deterministic

    def __post_init__(self):
        if self.n_mels < 1:
            raise ContractError(f"n_mels must be >= 1, got {self.n_mels}")
        if not 0 < self.frame_shift_ms <= self.frame_len_ms:
            raise ContractError(
                f"need 0 < frame_shift <= frame_len, got {self.frame_shift_ms}/{self.frame_len_ms} ms"
            )
        if self.log_floor <= 0:
            raise ContractError(f"log_floor must be positive, got {self.log_floor}")


@dataclass
class FeatureMatrix:
    """T x F frame features with frame-shift and sample-rate provenance."""

    values: np.ndarray
    frame_shift_ms: float
    source_rate: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ContractError(f"features must be 2-D, got shape {self.values.shape}")
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise ContractError("non-finite feature values")

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]


def _frame_params(sample_rate: int, frame_len_ms: float, frame_shift_ms: float) -> tuple[int, int]:
    flen = int(round(sample_rate * frame_len_ms / 1000.0))
    fshift = int(round(sample_rate * frame_shift_ms / 1000.0))
    if flen < 1 or fshift < 1:
        raise ContractError("frame length/shift below one sample at this rate")
    return flen, fshift


def _frame_signal(x: np.ndarray, flen: int, fshift: int) -> np.ndarray:
    # snip-edges framing: T = 1 + floor((N - flen) / fshift)
    if len(x) < flen:
        raise ContractError(f"audio too short: {len(x)} samples < one {flen}-sample frame")
    t = 1 + (len(x) - flen) // fshift
    idx = fshift * np.arange(t)[:, None] + np.arange(flen)[None, :]
    return x[idx]


def mel_filterbank(
    n_mels: int, n_fft: int, sample_rate: int, low_freq: float, high_freq: float
) -> tuple[np.ndarray, np.ndarray]:
    """Triangular mel bank (weights in the mel domain) and center frequencies.

    Returns (n_mels, n_fft // 2 + 1) weights and the n_mels center
    frequencies in Hz.  Mel scale: 2595 * log10(1 + f / 700).
    """
    nyquist = sample_rate / 2.0
    if not (0 <= low_freq < high_freq <= nyquist):
        raise ContractError(
            f"need 0 <= low_freq < high_freq <= {nyquist}, got {low_freq}/{high_freq}"
        )

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)

    edges = np.linspace(to_mel(low_freq), to_mel(high_freq), n_mels + 2)
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    bin_mels = to_mel(bin_freqs)
    weights = np.zeros((n_mels, len(bin_freqs)))
    for m in range(n_mels):
        left, center, right = edges[m], edges[m + 1], edges[m + 2]
        up = (bin_mels - left) / (center - left)
        down = (right - bin_mels) / (right - center)
        weights[m] = np.maximum(0.0, np.minimum(up, down))
    centers_hz = from_mel(edges[1:-1])
    return weights, centers_hz


def log_mel_fbank(
    buf: AudioBuffer, cfg: FbankConfig = FbankConfig(), rng: np.random.Generator | None = None
) -> FeatureMatrix:
    """Per-frame log mel filterbank energies.

    Pre-emphasis, Hamming window, power spectrum on a zero-padded
    power-of-two FFT, triangular mel integration, then
    ln(max(energy, log_floor)).
    """
    flen, fshift = _frame_params(buf.sample_rate, cfg.frame_len_ms, cfg.frame_shift_ms)
    frames = _frame_signal(buf.samples, flen, fshift).copy()
    if cfg.dither > 0:
        if rng is None:
            raise ContractError("dither > 0 requires an explicit rng")
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
    bank, _ = mel_filterbank(cfg.n_mels, n_fft, buf.sample_rate, cfg.low_freq, high)
    energies = power @ bank.T
    values = np.log(np.maximum(energies, cfg.log_floor))
    return FeatureMatrix(values, cfg.frame_shift_ms, buf.sample_rate)


@dataclass(frozen=True)
class VadConfig:
    energy_mean_scale: float = 0.5
    energy_threshold: float = 5.0
    context_frames: int = 5
    proportion_threshold: float = 0.6
    frame_len_ms: float = 25.0
    frame_shift_ms: float = 10.0

    def __post_init__(self):
        if self.context_frames < 0:
            raise ContractError(f"context_frames must be >= 0, got {self.context_frames}")
        if not 0 < self.proportion_threshold <= 1:
            raise ContractError(
                f"proportion_threshold must be in (0, 1], got {self.proportion_threshold}"
            )


def frame_log_energies(buf: AudioBuffer, cfg: VadConfig = VadConfig()) -> np.ndarray:
    """Raw per-frame log energy ln(sum x^2), floored away from -inf."""
    flen, fshift = _frame_params(buf.sample_rate, cfg.frame_len_ms, cfg.frame_shift_ms)
    frames = _frame_signal(buf.samples, flen, fshift)
    return np.log(np.maximum((frames * frames).sum(axis=1), _ENERGY_EPS))


def vad_from_energies(energies: np.ndarray, cfg: VadConfig = VadConfig()) -> np.ndarray:
    """Boolean speech mask from log energies.

    Raw decision: e_t > energy_threshold + energy_mean_scale * mean(e).
    Smoothing: a frame is speech when the fraction of raw decisions within
    +-context_frames (window clipped at the ends) reaches
    proportion_threshold.
    """
    energies = np.asarray(energies, dtype=np.float64)
    t = len(energies)
    if t == 0:
        return np.zeros(0, dtype=bool)
    threshold = cfg.energy_threshold + cfg.energy_mean_scale * energies.mean()
    raw = energies > threshold
    c = cfg.context_frames
    if c == 0:
        return raw
    csum = np.concatenate([[0], np.cumsum(raw)])
    lo = np.maximum(np.arange(t) - c, 0)
    hi = np.minimum(np.arange(t) + c, t - 1)
    frac = (csum[hi + 1] - csum[lo]) / (hi - lo + 1)
    return frac >= cfg.proportion_threshold


def energy_vad(buf: AudioBuffer, cfg: VadConfig = VadConfig()) -> np.ndarray:
    """Kaldi-style energy VAD: per-frame boolean speech mask."""
    return vad_from_energies(frame_log_energies(buf, cfg), cfg)


def apply_vad(feats: FeatureMatrix, mask: np.ndarray) -> FeatureMatrix:
    """Keep exactly the frames where mask is true, order preserved."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (feats.num_frames,):
        raise ContractError(
            f"mask length {mask.shape} does not match {feats.num_frames} frames"
        )
    return FeatureMatrix(feats.values[mask], feats.frame_shift_ms, feats.source_rate)
