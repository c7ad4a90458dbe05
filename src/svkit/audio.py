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
MIN_WAV_RATE = 1000  # lowest sample rate read_wav accepts, Hz, so resampling to 8 kHz grows a file at most 8-fold
MAX_WAV_RATE = 768_000  # highest sample rate read_wav accepts, Hz
RESAMPLE_TAPS = 64  # resample's kernel taps per phase, counted at the lower rate
KAISER_BETA = 5.0  # resample's Kaiser window shape
_RESAMPLE_CELLS = 1 << 18  # resample's block budget: (output, tap) cells per block, at least one output
_RESAMPLE_MAX_TAPS = 1 << 22  # longest kernel resample accepts
_FBANK_CELLS = 1 << 16  # frame-block budget of log_mel_fbank and frame_log_energies: (frame, FFT-bin) cells


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


def read_wav(path) -> AudioBuffer:
    """Read a RIFF/WAVE PCM 16-bit mono file, scaling samples by 1/32768.

    A non-PCM format tag (wave's "unknown format") or a header rate outside
    MIN_WAV_RATE..MAX_WAV_RATE Hz is a FormatError."""
    try:
        with wave.open(str(path), "rb") as w:
            if w.getnchannels() != 1:
                raise FormatError(f"{path}: expected mono, got {w.getnchannels()} channels")
            if w.getsampwidth() != 2:
                raise FormatError(f"{path}: expected 16-bit PCM, got {8 * w.getsampwidth()}-bit")
            rate = w.getframerate()
            if not MIN_WAV_RATE <= rate <= MAX_WAV_RATE:
                raise FormatError(f"{path}: sample rate {rate} Hz outside {MIN_WAV_RATE}..{MAX_WAV_RATE}")
            n = w.getnframes()
            data = w.readframes(n)
    except wave.Error as e:
        raise FormatError(f"{path}: {e}") from None
    except RuntimeError:  # wave's chunk reader: a chunk runs past the RIFF chunk
        raise FormatError(f"{path}: chunk size runs past the end of its RIFF chunk") from None
    except EOFError:
        raise OSError(f"{path}: truncated file") from None
    if len(data) < 2 * n:
        raise OSError(f"{path}: truncated file: {len(data)} bytes for {n} frames")
    samples = np.frombuffer(data, dtype="<i2").astype(np.float64)
    samples /= 32768.0  # in place: one float64 copy of the signal
    return AudioBuffer(samples, rate)


def write_wav(buf: AudioBuffer, path) -> None:
    """Write PCM16 mono; read_wav(write_wav(x)) reproduces samples to 1 LSB."""
    pcm = np.clip(np.round(buf.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(buf.sample_rate)
        w.writeframes(pcm.tobytes())


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Windowed-sinc band-limited resampling to target_rate.

    Kaiser-windowed sinc with cutoff at 0.95 * min(source, target) / 2 Hz
    and RESAMPLE_TAPS taps per phase counted at the lower of the two rates
    (the kernel stretches when downsampling, as an anti-aliasing filter
    must); the window's shape is KAISER_BETA.
    Per-output tap weights are normalized to unit sum so DC is preserved
    exactly; edges use reflection padding.  Output length is
    round(len * target / source).

    With L = target / gcd(source, target) and M = source / gcd, output
    k = q*L + p sits at input position q*M + p*M/L, so its weights depend
    only on the phase p: one row per phase, built once, or per block when
    the L phases outnumber a block's outputs.  Tap positions come from exact
    integer arithmetic.  For integer ratios (L = 1 or M = 1) the result is
    bitwise equal to evaluating the kernel at every output's float position
    k * source / target.  For other ratios it differs from that only by the
    rounding of the float position, which grows with k: at most 1e-9 on 3 s
    of noise in [-1, 1].

    Block budget: outputs are computed in blocks of at most 2**18 (output,
    tap) cells, or of one output if its kernel has more taps, so memory is
    bounded at any ratio.  Tap limit, apart from that: a kernel of more than
    2**22 taps is a ContractError, as is a target rate outside 1..MAX_WAV_RATE.
    """
    if not 0 < target_rate <= MAX_WAV_RATE:
        raise ContractError(f"target_rate must be in 1..{MAX_WAV_RATE} Hz, got {target_rate}")
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
    n_taps = max(2, int(round(RESAMPLE_TAPS * src / min_rate)))  # tap grid is the input grid
    if n_taps > _RESAMPLE_MAX_TAPS:
        raise ContractError(f"{src} -> {target_rate} Hz needs {n_taps} taps, more than {_RESAMPLE_MAX_TAPS}")
    half_span = n_taps / 2.0  # kernel half-width, input samples
    i0_beta = np.i0(KAISER_BETA)
    g = math.gcd(src, target_rate)
    up, down = target_rate // g, src // g
    lead = n_taps // 2 - 1  # taps before the floor of the output position

    def phase_weights(phase: np.ndarray) -> np.ndarray:
        # output position minus tap index: the phase's fractional position
        # (phase * down mod up) / up, plus lead - tap
        d = ((phase * down) % up / up)[:, None] + (lead - np.arange(n_taps))[None, :]
        w = np.sinc(2.0 * cutoff_hz * (d / src))
        u = d / half_span  # in (-1, 1]
        w *= np.i0(KAISER_BETA * np.sqrt(np.maximum(0.0, 1.0 - u * u))) / i0_beta
        w /= w.sum(axis=1, keepdims=True)
        return w

    block = max(1, _RESAMPLE_CELLS // n_taps)  # outputs per block: 2048 at 128 taps
    table = phase_weights(np.arange(up)) if up <= block else None  # 1 row at 16k -> 8k, 441 at 16k -> 44.1k
    out = np.empty(n_out)
    for lo in range(0, n_out, block):
        k = np.arange(lo, min(lo + block, n_out))
        phase = k % up
        first = (k // up) * down + (phase * down) // up - lead
        # reflect the block's span of input indices back into the signal once
        m = np.mod(np.arange(first[0], first[-1] + n_taps), 2 * n)
        seg = x[np.where(m >= n, 2 * n - 1 - m, m)]
        taps_x = np.lib.stride_tricks.sliding_window_view(seg, n_taps)[first - first[0]]
        taps_x *= table[phase] if table is not None else phase_weights(phase)
        out[lo : lo + len(k)] = taps_x.sum(axis=1)
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
        if not math.isfinite(self.preemphasis):
            raise ContractError(f"preemphasis must be finite, got {self.preemphasis}")
        if self.log_floor <= 0:
            raise ContractError(f"log_floor must be positive, got {self.log_floor}")
        if not 0 <= self.dither < math.inf:  # NaN fails too
            raise ContractError(f"dither must be finite and >= 0, got {self.dither}")


@dataclass
class FeatureMatrix:
    """T x F frame features."""

    values: np.ndarray

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
    lengths = [sample_rate * ms / 1000.0 for ms in (frame_len_ms, frame_shift_ms)]
    if not all(map(math.isfinite, lengths)):
        raise ContractError(f"frame length/shift {frame_len_ms}/{frame_shift_ms} ms is not a finite sample count")
    flen, fshift = (int(round(v)) for v in lengths)
    if flen < 1 or fshift < 1:
        raise ContractError("frame length/shift below one sample at this rate")
    return flen, fshift


def _frame_signal(x: np.ndarray, flen: int, fshift: int) -> np.ndarray:
    # snip-edges framing, T = 1 + floor((N - flen) / fshift), as a read-only view of x
    if len(x) < flen:
        raise ContractError(f"audio too short: {len(x)} samples < one {flen}-sample frame")
    return np.lib.stride_tricks.sliding_window_view(x, flen)[::fshift]


def _frame_blocks(buf: AudioBuffer, cfg: FbankConfig) -> tuple[np.ndarray, int, list[tuple[int, int, int]]]:
    """The frames of buf under cfg (a read-only view), their FFT size and their blocks.

    A block holds _FBANK_CELLS // n_fft frames, at least one.  The last block
    ends at the last frame and overlaps the one before it, so every block of a
    signal longer than one block has the same row count.  A block is
    (lo, new, hi): frames lo..hi, of which new..hi no earlier block held."""
    flen, fshift = _frame_params(buf.sample_rate, cfg.frame_len_ms, cfg.frame_shift_ms)
    frames = _frame_signal(buf.samples, flen, fshift)
    n_fft = 1 << (flen - 1).bit_length()  # the power of two at or above flen
    t, size = len(frames), max(1, _FBANK_CELLS // n_fft)  # 128 frames at n_fft 512
    blocks = [(max(0, min(new, t - size)), new, min(new + size, t)) for new in range(0, t, size)]
    return frames, n_fft, blocks


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
    if not np.all(np.diff(edges) > 0):  # a filter of zero width would divide by zero
        raise ContractError(f"the {n_mels} mel filters of band {low_freq}/{high_freq} Hz "
                            "have edges that are not strictly increasing")
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    bin_mels = to_mel(bin_freqs)
    left, center, right = edges[:-2, None], edges[1:-1, None], edges[2:, None]  # a row per mel
    up = (bin_mels - left) / (center - left)
    down = (right - bin_mels) / (right - center)
    weights = np.maximum(0.0, np.minimum(up, down))
    centers_hz = from_mel(edges[1:-1])
    return weights, centers_hz


def log_mel_fbank(
    buf: AudioBuffer, cfg: FbankConfig = FbankConfig(), rng: np.random.Generator | None = None
) -> FeatureMatrix:
    """Per-frame log mel filterbank energies.

    Pre-emphasis, Hamming window, power spectrum on a zero-padded
    power-of-two FFT, triangular mel integration, then
    ln(max(energy, log_floor)).

    Frames go through in the blocks of _frame_blocks, so beyond the signal
    and the result one block's frames, spectra and powers are held.  With
    dither, each block draws normals for its new frames only: the stream of
    one whole-array draw.  The default 80-mel bank gives bitwise the
    whole-array result at 8-96 kHz; other banks may differ by an ulp, within 1e-12.
    """
    frames, n_fft, blocks = _frame_blocks(buf, cfg)
    if cfg.dither > 0 and rng is None:
        raise ContractError("dither > 0 requires an explicit rng")
    window = np.hamming(frames.shape[1])
    # a huge dither or pre-emphasis overflows to a non-finite value, which FeatureMatrix rejects
    with np.errstate(over="ignore", invalid="ignore"):
        high = cfg.high_freq if cfg.high_freq is not None else buf.sample_rate / 2.0
        bank, _ = mel_filterbank(cfg.n_mels, n_fft, buf.sample_rate, cfg.low_freq, high)
        values = np.empty((len(frames), cfg.n_mels))
        for lo, new, hi in blocks:
            block = frames[lo:hi].copy()
            if cfg.dither > 0:  # frames lo..new were dithered and kept by the block before
                block[new - lo :] += cfg.dither * rng.standard_normal((hi - new, block.shape[1]))
            # frame-local pre-emphasis keeps frames independent of their neighbours
            if cfg.preemphasis != 0.0:
                block[:, 1:] -= cfg.preemphasis * block[:, :-1]
                block[:, 0] *= 1.0 - cfg.preemphasis
            block *= window
            power = np.abs(np.fft.rfft(block, n_fft)) ** 2
            values[new:hi] = np.log(np.maximum((power @ bank.T)[new - lo :], cfg.log_floor))
    return FeatureMatrix(values)


@dataclass(frozen=True)
class VadConfig:
    energy_mean_scale: float = 0.5
    energy_threshold: float = 5.0
    context_frames: int = 5
    proportion_threshold: float = 0.6

    def __post_init__(self):
        if not all(map(math.isfinite, (self.energy_threshold, self.energy_mean_scale))):
            raise ContractError(f"energy_threshold and energy_mean_scale must be finite, "
                                f"got {self.energy_threshold}/{self.energy_mean_scale}")
        if self.context_frames < 0:
            raise ContractError(f"context_frames must be >= 0, got {self.context_frames}")
        if not 0 < self.proportion_threshold <= 1:
            raise ContractError(
                f"proportion_threshold must be in (0, 1], got {self.proportion_threshold}"
            )


def frame_log_energies(buf: AudioBuffer, fbank: FbankConfig = FbankConfig()) -> np.ndarray:
    """Raw log energy ln(sum x^2), floored away from -inf, of each of the
    frames log_mel_fbank(buf, fbank) computes, in the same frame blocks; an energy past
    float64's range is a ContractError."""
    frames, _, blocks = _frame_blocks(buf, fbank)
    energies = np.empty(len(frames))
    with np.errstate(over="ignore"):  # huge samples overflow to an infinite energy: refused below
        for _, new, hi in blocks:
            block = frames[new:hi]
            energies[new:hi] = np.log(np.maximum((block * block).sum(axis=1), _ENERGY_EPS))
    if not np.isfinite(energies).all():
        raise ContractError("frame energies overflow float64")
    return energies


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
    with np.errstate(over="ignore"):  # a threshold past the float range compares as its infinity
        threshold = cfg.energy_threshold + cfg.energy_mean_scale * energies.mean()
    raw = energies > threshold
    c = cfg.context_frames
    csum = np.concatenate([[0], np.cumsum(raw)])
    lo = np.maximum(np.arange(t) - c, 0)
    hi = np.minimum(np.arange(t) + c, t - 1)
    frac = (csum[hi + 1] - csum[lo]) / (hi - lo + 1)
    return frac >= cfg.proportion_threshold


def energy_vad(buf: AudioBuffer, cfg: VadConfig = VadConfig(), fbank: FbankConfig = FbankConfig()) -> np.ndarray:
    """Kaldi-style energy VAD: a boolean speech mask over the frames of
    log_mel_fbank(buf, fbank)."""
    return vad_from_energies(frame_log_energies(buf, fbank), cfg)


def apply_vad(feats: FeatureMatrix, mask: np.ndarray) -> FeatureMatrix:
    """Keep exactly the frames where mask is true, order preserved."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (feats.num_frames,):
        raise ContractError(
            f"mask length {mask.shape} does not match {feats.num_frames} frames"
        )
    return FeatureMatrix(feats.values[mask])
