import io
import re
import struct
import tracemalloc
import wave
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (oracle_frame_log_energies, oracle_frame_signal, oracle_log_mel_fbank,
                     oracle_mel_filterbank, oracle_phase_table_resample, oracle_resample)

from svkit import audio
from svkit.errors import ContractError, FormatError


def tone(freq, rate, seconds=1.0, amp=1.0):
    t = np.arange(int(round(seconds * rate))) / rate
    return amp * np.sin(2 * np.pi * freq * t)


def tone_amplitude(x, rate, freq, trim=150):
    """Least-squares amplitude of a known-frequency tone (edge-trimmed)."""
    x = x[trim : len(x) - trim]
    t = (np.arange(len(x)) + trim) / rate
    basis = np.column_stack([np.cos(2 * np.pi * freq * t), np.sin(2 * np.pi * freq * t)])
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    return float(np.hypot(*coef))


def noise_wav_bytes(frames=400, rate=16000) -> bytes:
    """A valid PCM16 mono WAV of seeded noise: its sample bytes, read as
    chunk headers after a header mutation, hold arbitrary chunk sizes."""
    pcm = np.random.default_rng(5).integers(-32768, 32768, frames).astype("<i2")
    f = io.BytesIO()
    with wave.open(f, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(pcm.tobytes())
    return f.getvalue()


VALID_WAV = noise_wav_bytes()


def mutate(data: bytes, pos: int, value: int) -> bytes:
    return data[:pos] + bytes([value]) + data[pos + 1 :]


@pytest.mark.parametrize("samples, rate, message", [
    (np.zeros((2, 3)), 16000, r"expected mono 1-D samples, got shape \(2, 3\)"),
    ([0.0, np.inf, 0.5], 16000, "non-finite samples"),
    (np.zeros(4), 0, "sample_rate must be a positive integer, got 0"),
])
def test_a_buffer_it_cannot_hold_is_a_contract_error(samples, rate, message):
    with pytest.raises(ContractError, match=f"^{message}$"):
        audio.AudioBuffer(samples, rate)


class TestWavIO:
    def test_known_pcm_scaling(self, tmp_path):
        pcm = np.array([0, 16384, -32768, 32767, -16384, 8192, 0, -1] * 2, dtype="<i2")
        path = tmp_path / "a.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes(pcm.tobytes())
        buf = audio.read_wav(path)
        assert buf.sample_rate == 16000
        np.testing.assert_array_equal(buf.samples, pcm.astype(np.float64) / 32768.0)
        assert buf.samples[0] == 0.0
        assert buf.samples[1] == 0.5
        assert buf.samples[2] == -1.0

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes(np.zeros(64, dtype="<i2").tobytes())
        with pytest.raises(FormatError):
            audio.read_wav(path)

    def test_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "w8.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(1)
            w.setframerate(8000)
            w.writeframes(bytes(32))
        with pytest.raises(FormatError):
            audio.read_wav(path)

    def test_truncated_is_io_error(self, tmp_path):
        path = tmp_path / "t.wav"
        buf = audio.AudioBuffer(tone(440, 8000, 0.1), 8000)
        audio.write_wav(buf, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(OSError):
            audio.read_wav(path)

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"definitely not RIFF data")
        with pytest.raises(FormatError):
            audio.read_wav(path)

    @pytest.mark.parametrize("tag", [2, 3, 6, 7])  # ADPCM, IEEE float, A-law, mu-law
    def test_non_pcm_format_tag(self, tmp_path, tag):
        path = tmp_path / "tag.wav"
        audio.write_wav(audio.AudioBuffer(np.zeros(64), 16000), path)
        raw = bytearray(path.read_bytes())
        raw[20:22] = struct.pack("<H", tag)  # the fmt chunk's format tag
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"unknown format: {tag}$"):
            audio.read_wav(path)

    @pytest.mark.parametrize("rate", [0, 2, audio.MIN_WAV_RATE - 1, audio.MAX_WAV_RATE + 1, 2_000_000_000])
    def test_header_rate_out_of_range(self, tmp_path, rate):
        path = tmp_path / "rate.wav"
        audio.write_wav(audio.AudioBuffer(np.zeros(64), 16000), path)
        raw = bytearray(path.read_bytes())
        raw[24:32] = struct.pack("<II", rate, 2 * rate)  # sample rate, byte rate
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="sample rate"):
            audio.read_wav(path)

    @pytest.mark.parametrize("rate", [audio.MIN_WAV_RATE, audio.MAX_WAV_RATE])
    def test_header_rate_bounds_read(self, tmp_path, rate):
        audio.write_wav(audio.AudioBuffer(np.zeros(64), rate), tmp_path / "rate.wav")
        assert audio.read_wav(tmp_path / "rate.wav").sample_rate == rate

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.one_of(
        st.binary(max_size=120).map(lambda tail: b"RIFF" + tail),
        st.builds(mutate, st.just(VALID_WAV), st.integers(0, 59), st.integers(0, 255)),
    ))
    @example(data=mutate(VALID_WAV, 16, 0x55))  # fmt chunk size 85: a later chunk runs past RIFF
    def test_hostile_bytes_only_format_or_io_error(self, tmp_path, data):
        path = tmp_path / "fuzz.wav"
        path.write_bytes(data)
        try:
            audio.read_wav(path)
        except (FormatError, OSError):
            pass

    def test_read_holds_one_float_copy(self, tmp_path):
        n = 240000
        audio.write_wav(audio.AudioBuffer(np.random.default_rng(2).uniform(-1, 1, n), 16000), tmp_path / "a.wav")
        tracemalloc.start()
        try:
            buf = audio.read_wav(tmp_path / "a.wav")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the PCM bytes (2 a sample), one float64 copy (8) and AudioBuffer's finiteness mask (1)
        assert peak <= 11 * n + (1 << 16)
        assert buf.samples.nbytes == 8 * n

    def test_write_read_roundtrip_one_lsb(self, tmp_path):
        rng = np.random.default_rng(7)
        buf = audio.AudioBuffer(rng.uniform(-1, 1, 4321) * 0.99, 16000)
        path = tmp_path / "rt.wav"
        audio.write_wav(buf, path)
        back = audio.read_wav(path)
        assert back.sample_rate == 16000
        assert len(back.samples) == len(buf.samples)
        assert np.max(np.abs(back.samples - buf.samples)) <= 1.0 / 32768.0


class TestResample:
    def test_dc_preserved(self):
        buf = audio.AudioBuffer(np.full(16000, 0.5), 16000)
        out = audio.resample(buf, 8000)
        assert out.sample_rate == 8000
        assert len(out.samples) == 8000
        inner = out.samples[64:-64]
        assert np.all(np.abs(inner - 0.5) < 1e-3)

    def test_output_length_rounding(self):
        buf = audio.AudioBuffer(np.zeros(1001), 16000)
        assert len(audio.resample(buf, 8000).samples) == round(1001 * 8000 / 16000)
        buf = audio.AudioBuffer(np.zeros(333), 8000)
        assert len(audio.resample(buf, 16000).samples) == 666

    def test_1khz_tone_peak_and_amplitude(self):
        # FFT-peak oracle: 1 s signals put 1 kHz on an exact bin at both rates
        buf = audio.AudioBuffer(tone(1000, 16000, amp=0.7), 16000)
        out = audio.resample(buf, 8000)
        spectrum = np.abs(np.fft.rfft(out.samples))
        assert spectrum.argmax() == 1000
        amp = tone_amplitude(out.samples, 8000, 1000)
        assert abs(amp - 0.7) / 0.7 < 0.01

    def test_6khz_rejected_by_40db(self):
        buf = audio.AudioBuffer(tone(6000, 16000), 16000)
        out = audio.resample(buf, 8000)
        rms_in = np.sqrt(np.mean(buf.samples**2))
        rms_out = np.sqrt(np.mean(out.samples**2))
        assert rms_out < rms_in * 10 ** (-40 / 20)

    @pytest.mark.parametrize("freq", [250, 1000, 2500, 3500, 3590])
    def test_roundtrip_preserves_passband_tones(self, freq):
        # property: tones below 0.45 * min(rates) survive a down/up roundtrip
        buf = audio.AudioBuffer(tone(freq, 16000, amp=0.6), 16000)
        back = audio.resample(audio.resample(buf, 8000), 16000)
        assert back.sample_rate == 16000
        amp = tone_amplitude(back.samples, 16000, freq)
        assert abs(amp - 0.6) / 0.6 < 0.02

    def test_non_integer_ratio_rate(self):
        buf = audio.AudioBuffer(tone(1000, 16000, amp=0.5), 16000)
        out = audio.resample(buf, 11025)
        assert len(out.samples) == round(16000 * 11025 / 16000)
        amp = tone_amplitude(out.samples, 11025, 1000)
        assert abs(amp - 0.5) / 0.5 < 0.01

    def test_empty_buffer(self):
        out = audio.resample(audio.AudioBuffer(np.zeros(0), 16000), 8000)
        assert len(out.samples) == 0
        assert out.sample_rate == 8000

    def test_same_rate_copies(self):
        buf = audio.AudioBuffer(tone(100, 8000, 0.05), 8000)
        out = audio.resample(buf, 8000)
        np.testing.assert_array_equal(out.samples, buf.samples)
        assert out.samples is not buf.samples

    def test_bad_rate(self):
        # the output array is sized from target_rate: 1e8 Hz on 3 s would be 2.4 GB
        buf = audio.AudioBuffer(np.zeros(1600), 16000)
        for rate in (0, audio.MAX_WAV_RATE + 1):
            with pytest.raises(ContractError, match="target_rate must be in 1..768000 Hz"):
                audio.resample(buf, rate)
        assert len(audio.resample(buf, audio.MAX_WAV_RATE).samples) == audio.MAX_WAV_RATE // 10

    # 16000 -> 44101 has 44101 phases, more than a block has outputs
    RATE_PAIRS = [(16000, 8000), (8000, 16000), (48000, 8000), (16000, 11025), (16000, 44100),
                  (16000, 44101), (44100, 16000), (22050, 16000), (8000, 8001), (7, 3), (3, 7)]

    @settings(max_examples=300, deadline=None)
    @given(rates=st.sampled_from(RATE_PAIRS), n=st.integers(1, 600),
           cells=st.sampled_from([1 << 6, 1 << 9, 1 << 11, audio._RESAMPLE_CELLS]), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equals_phase_table_resampler(self, rates, n, cells, seed):
        # the earlier phase-table resampler, at its own block size; small budgets
        # split even these short signals into many blocks here, and 64 cells is
        # below every kernel's taps, so each block holds one output
        src, target = rates
        buf = audio.AudioBuffer(np.random.default_rng(seed).uniform(-1, 1, n), src)
        with mock.patch.object(audio, "_RESAMPLE_CELLS", cells):
            got = audio.resample(buf, target)
        want = oracle_phase_table_resample(buf, target)
        assert got.sample_rate == want.sample_rate == target
        assert got.samples.tobytes() == want.samples.tobytes()

    @pytest.mark.parametrize("src, target, seconds",
                             [(16000, 8000, 2.0), (8000, 16000, 3.0), (48000, 8000, 0.75)])
    def test_integer_ratio_bitwise_equals_oracle(self, src, target, seconds):
        x = np.random.default_rng(src).uniform(-1, 1, int(seconds * src))
        out = audio.resample(audio.AudioBuffer(x, src), target)
        np.testing.assert_array_equal(out.samples, oracle_resample(x, src, target))

    def test_block_memory_bounded_by_cells(self, monkeypatch):
        # 48000 -> 8000 has 384 taps: 42 outputs per block at this budget, 16 times below the default
        cells = 1 << 14
        monkeypatch.setattr(audio, "_RESAMPLE_CELLS", cells)
        x = np.random.default_rng(3).uniform(-1, 1, 24000)  # 4000 outputs x 384 taps at 48k -> 8k
        tracemalloc.start()
        try:
            out = audio.resample(audio.AudioBuffer(x, 48000), 8000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * cells + out.samples.nbytes  # one unbounded (outputs, taps) array alone is 12 MB
        np.testing.assert_array_equal(out.samples, oracle_resample(x, 48000, 8000))

    def test_default_budget_bounds_memory(self):
        # 3 s at 16 -> 8 kHz: 24000 outputs of 128 taps, 2048 per block; one block for all would be 24.6 MB
        x = np.random.default_rng(4).uniform(-1, 1, 48000)
        tracemalloc.start()
        try:
            out = audio.resample(audio.AudioBuffer(x, 16000), 8000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * audio._RESAMPLE_CELLS + out.samples.nbytes
        np.testing.assert_array_equal(out.samples, oracle_resample(x, 16000, 8000))

    def test_kernel_longer_than_the_block_budget_accepted(self):
        # 768 kHz -> 100 Hz needs 491520 taps, more than a block's cells but within the tap limit:
        # each block holds one output, its taps a window of as many input samples
        n_taps = 64 * 768000 // 100
        assert audio._RESAMPLE_CELLS < n_taps <= audio._RESAMPLE_MAX_TAPS
        x = np.random.default_rng(6).uniform(-1, 1, 23040)  # 3 outputs
        windows = np.lib.stride_tricks.sliding_window_view
        with mock.patch.object(np.lib.stride_tricks, "sliding_window_view", wraps=windows) as spy:
            out = audio.resample(audio.AudioBuffer(x, 768000), 100)
        assert [(len(c.args[0]), c.args[1]) for c in spy.call_args_list] == [(n_taps, n_taps)] * 3
        np.testing.assert_array_equal(out.samples, oracle_resample(x, 768000, 100))

    def test_kernel_longer_than_cell_bound_rejected(self):
        # 768 kHz -> 1 Hz needs 49152000 taps, past the tap limit
        with pytest.raises(ContractError, match="needs 49152000 taps, more than 4194304"):
            audio.resample(audio.AudioBuffer(np.zeros(audio.MAX_WAV_RATE), audio.MAX_WAV_RATE), 1)

    # 16000 -> 44101 has 44101 phases, more than one block of outputs
    @pytest.mark.parametrize("target, seconds", [(44100, 3.0), (11025, 3.0), (44101, 0.75)])
    def test_fractional_ratio_matches_oracle(self, target, seconds):
        x = np.random.default_rng(target).uniform(-1, 1, int(seconds * 16000))
        out = audio.resample(audio.AudioBuffer(x, 16000), target)
        want = oracle_resample(x, 16000, target)
        assert out.samples.shape == want.shape
        assert np.max(np.abs(out.samples - want)) <= 1e-9


class TestFraming:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(0, 4000), rate=st.sampled_from([8000, 11025, 16000, 22050]),
           len_ms=st.floats(1.0, 40.0), shift_ms=st.floats(1.0, 40.0), seed=st.integers(0, 2**32 - 1))
    def test_strided_frames_equal_gathered_frames(self, n, rate, len_ms, shift_ms, seed):
        flen, fshift = audio._frame_params(rate, len_ms, shift_ms)
        x = np.random.default_rng(seed).uniform(-1, 1, n)
        if n < flen:
            for frame in (audio._frame_signal, oracle_frame_signal):
                with pytest.raises(ContractError, match="audio too short"):
                    frame(x, flen, fshift)
            return
        frames = audio._frame_signal(x, flen, fshift)
        np.testing.assert_array_equal(frames, oracle_frame_signal(x, flen, fshift))
        assert not frames.flags.writeable  # a view of the signal, never written through
        # every value computed from the frames is bitwise what the gathered frames gave
        buf = audio.AudioBuffer(x.copy(), rate)
        fbank = audio.FbankConfig(n_mels=23, frame_len_ms=max(len_ms, shift_ms),
                                  frame_shift_ms=min(len_ms, shift_ms))
        if n < audio._frame_params(rate, fbank.frame_len_ms, fbank.frame_shift_ms)[0]:
            return
        got = audio.frame_log_energies(buf, fbank), audio.log_mel_fbank(buf, fbank).values
        with mock.patch.object(audio, "_frame_signal", oracle_frame_signal):
            want = audio.frame_log_energies(buf, fbank), audio.log_mel_fbank(buf, fbank).values
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert len(got[0]) == len(got[1])  # one energy, so one VAD decision, per fbank frame
        np.testing.assert_array_equal(buf.samples, x)  # pre-emphasis wrote to a copy


class TestFbank:
    @pytest.mark.parametrize("n_mels", [1, 23, 40, 80, 128])
    @pytest.mark.parametrize("n_fft, rate", [(256, 8000), (512, 16000), (1024, 44100), (2048, 96000)])
    def test_mel_bank_bytes_equal_the_loop(self, n_mels, n_fft, rate):
        got = audio.mel_filterbank(n_mels, n_fft, rate, 20.0, rate / 2.0)
        want = oracle_mel_filterbank(n_mels, n_fft, rate, 20.0, rate / 2.0)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert got[0].shape == (n_mels, n_fft // 2 + 1)

    def test_frame_count_1s_16k(self):
        buf = audio.AudioBuffer(np.random.default_rng(0).normal(0, 0.1, 16000), 16000)
        feats = audio.log_mel_fbank(buf)
        # 1 + (16000 - 400) // 160
        assert feats.values.shape == (98, 80)

    def test_all_zero_audio_hits_floor(self):
        cfg = audio.FbankConfig(log_floor=1e-10)
        feats = audio.log_mel_fbank(audio.AudioBuffer(np.zeros(16000), 16000), cfg)
        np.testing.assert_allclose(feats.values, np.log(1e-10), rtol=0, atol=0)

    def test_tone_argmax_is_nearest_mel_center(self):
        buf = audio.AudioBuffer(tone(1000, 16000, amp=0.5), 16000)
        cfg = audio.FbankConfig()
        feats = audio.log_mel_fbank(buf, cfg)
        _, centers = audio.mel_filterbank(cfg.n_mels, 512, 16000, cfg.low_freq, 8000.0)
        expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
        argmax = feats.values.argmax(axis=1)
        assert np.all(argmax == expected_bin)

    def test_polarity_flip_invariance(self):
        x = np.random.default_rng(3).normal(0, 0.2, 8000)
        a = audio.log_mel_fbank(audio.AudioBuffer(x, 16000))
        b = audio.log_mel_fbank(audio.AudioBuffer(-x, 16000))
        np.testing.assert_array_equal(a.values, b.values)

    def test_too_short_errors(self):
        with pytest.raises(ContractError):
            audio.log_mel_fbank(audio.AudioBuffer(np.zeros(100), 16000))

    def test_8k_defaults_work(self):
        buf = audio.AudioBuffer(np.random.default_rng(1).normal(0, 0.1, 8000), 8000)
        feats = audio.log_mel_fbank(buf)
        assert feats.values.shape == (98, 80)

    def test_dither_needs_rng(self):
        buf = audio.AudioBuffer(np.zeros(16000), 16000)
        cfg = audio.FbankConfig(dither=1e-5)
        with pytest.raises(ContractError):
            audio.log_mel_fbank(buf, cfg)
        out = audio.log_mel_fbank(buf, cfg, np.random.default_rng(0))
        assert np.all(np.isfinite(out.values))

    @pytest.mark.parametrize("dither", [-1.0, -1e-300, np.nan, np.inf])
    def test_negative_dither_rejected(self, dither):
        with pytest.raises(ContractError, match="dither must be finite and >= 0"):
            audio.FbankConfig(dither=dither)

    def test_non_finite_frame_geometry_rejected(self):
        # unchecked, int(round(inf)) raises OverflowError and int(round(nan)) ValueError
        buf = audio.AudioBuffer(np.zeros(16000), 16000)
        for ms in (np.inf, 1e307):  # 1e307 ms is an infinite count of samples
            with pytest.raises(ContractError, match="not a finite sample count"):
                audio.log_mel_fbank(buf, audio.FbankConfig(frame_len_ms=ms))
        with pytest.raises(ContractError, match="not a finite sample count"):
            audio.energy_vad(buf, audio.VadConfig(), audio.FbankConfig(frame_len_ms=1e307))
        for geometry in ({"frame_len_ms": np.nan}, {"frame_shift_ms": np.inf}):
            with pytest.raises(ContractError, match="need 0 < frame_shift <= frame_len"):
                audio.FbankConfig(**geometry)

    def test_bad_band_edges(self):
        buf = audio.AudioBuffer(np.zeros(16000), 16000)
        with pytest.raises(ContractError):
            audio.log_mel_fbank(buf, audio.FbankConfig(low_freq=50.0, high_freq=40.0))
        with pytest.raises(ContractError):
            audio.log_mel_fbank(buf, audio.FbankConfig(high_freq=9000.0))

    @pytest.mark.parametrize("low, high", [(0.0, 1e-300), (1000.0, 1000.0 + 1e-12)])
    def test_a_band_too_narrow_for_its_mel_edges(self, low, high):
        """A band whose mel edges round to one value is refused by name, before any filter
        divides by its zero width (the "error" warning filter turns a warning into a failure)."""
        with pytest.raises(ContractError, match=re.escape(
                f"the 80 mel filters of band {low}/{high} Hz have edges that are not strictly increasing")):
            audio.mel_filterbank(80, 512, 16000, low, high)


def fbank_block(rate, cfg=audio.FbankConfig()):
    """Frames per block of log_mel_fbank at this rate, and the framing."""
    flen, fshift = audio._frame_params(rate, cfg.frame_len_ms, cfg.frame_shift_ms)
    n_fft = 1 << (flen - 1).bit_length()
    return max(1, audio._FBANK_CELLS // n_fft), flen, fshift


class TestFbankBlocks:
    RATES = [8000, 11025, 16000, 22050, 32000, 44100, 48000, 96000]

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rate=st.sampled_from(RATES), frames=st.sampled_from(["1", "block-1", "block", "block+1", "2block+1"]),
           n_mels=st.one_of(st.just(80), st.integers(1, 128)), preemphasis=st.sampled_from([0.97, 0.0]),
           dither=st.sampled_from([0.0, 0.0, 1e-3, 0.5]), seed=st.integers(0, 2**32 - 1))
    def test_equals_whole_array_fbank(self, rate, frames, n_mels, preemphasis, dither, seed):
        # the default bank is bitwise the whole-array result; other banks may
        # sum a row an ulp apart in BLAS, and a dithered run leaves rng where
        # one draw for every frame would
        block, flen, fshift = fbank_block(rate)
        t = {"1": 1, "block-1": max(1, block - 1), "block": block, "block+1": block + 1,
             "2block+1": 2 * block + 1}[frames]
        x = np.random.default_rng(seed).uniform(-1, 1, flen + (t - 1) * fshift + seed % fshift)
        buf = audio.AudioBuffer(x, rate)
        cfg = audio.FbankConfig(n_mels=n_mels, preemphasis=preemphasis, dither=dither)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = audio.log_mel_fbank(buf, cfg, got_rng).values
        want = oracle_log_mel_fbank(buf, cfg, want_rng).values
        assert got.shape == want.shape == (t, n_mels)
        if cfg == audio.FbankConfig():
            assert got.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(got - want)) <= 1e-12
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert audio.frame_log_energies(buf, cfg).tobytes() == oracle_frame_log_energies(buf, cfg).tobytes()

    def test_last_block_ends_at_the_last_frame(self):
        block, flen, fshift = fbank_block(16000)
        assert block == 128  # n_fft 512
        buf = audio.AudioBuffer(np.zeros(flen + 2 * block * fshift), 16000)
        frames, n_fft, blocks = audio._frame_blocks(buf, audio.FbankConfig())
        assert (len(frames), n_fft) == (2 * block + 1, 512)
        assert blocks == [(0, 0, block), (block, block, 2 * block), (block + 1, 2 * block, 2 * block + 1)]
        lone = audio.AudioBuffer(np.zeros(flen + 5 * fshift), 16000)
        assert audio._frame_blocks(lone, audio.FbankConfig())[2] == [(0, 0, 6)]

    @pytest.mark.parametrize("cells", [1, 1 << 12])
    def test_patched_budget_within_tolerance(self, monkeypatch, cells):
        # one frame a block, then 8: blocks of few rows may take another BLAS path
        monkeypatch.setattr(audio, "_FBANK_CELLS", cells)
        buf = audio.AudioBuffer(np.random.default_rng(8).uniform(-1, 1, 8000), 16000)
        cfg = audio.FbankConfig(dither=1e-3)
        got_rng, want_rng = np.random.default_rng(2), np.random.default_rng(2)
        got = audio.log_mel_fbank(buf, cfg, got_rng).values
        assert np.max(np.abs(got - oracle_log_mel_fbank(buf, cfg, want_rng).values)) <= 1e-12
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert audio.frame_log_energies(buf).tobytes() == oracle_frame_log_energies(buf).tobytes()

    def test_default_budget_bounds_memory(self):
        # 15 s at 16 kHz: 1498 frames in 12 blocks of 128; all frames at once
        # held 13.4 MiB.  A block holds its frames (at most n_fft float64 a
        # frame), their rfft (n_fft / 2 + 1 complex a frame) and its power
        # (n_fft / 2 + 1 float64): 2.5 x 8 x _FBANK_CELLS bytes, 3 x with slack.
        buf = audio.AudioBuffer(np.random.default_rng(9).uniform(-1, 1, 15 * 16000), 16000)
        bank = audio.mel_filterbank(80, 512, 16000, 20.0, 8000.0)[0]
        for fn in (audio.log_mel_fbank, audio.frame_log_energies):
            tracemalloc.start()
            try:
                out = fn(buf)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            values = getattr(out, "values", out)
            # the result, FeatureMatrix's finiteness mask over it, the mel bank and the blocks
            assert peak <= values.nbytes * 9 // 8 + bank.nbytes + 3 * 8 * audio._FBANK_CELLS


class TestVad:
    def test_uniform_energy_all_below_threshold(self):
        # constant frame energy exp(8): threshold = 5 + 0.5 * 8 = 9 > 8
        amp = np.sqrt(np.exp(8.0) / 400)
        buf = audio.AudioBuffer(np.full(16000, amp), 16000)
        cfg = audio.VadConfig(energy_mean_scale=0.5, energy_threshold=5.0)
        energies = audio.frame_log_energies(buf)
        np.testing.assert_allclose(energies, 8.0, atol=1e-9)
        mask = audio.energy_vad(buf, cfg)
        assert not mask.any()

    def test_silence_then_burst(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([np.zeros(8000), rng.uniform(-0.9, 0.9, 8000)])
        buf = audio.AudioBuffer(x, 16000)
        mask = audio.energy_vad(buf, audio.VadConfig())
        energies = audio.frame_log_energies(buf)
        t = len(energies)
        # interior of each half, clear of the boundary and smoothing context
        assert not mask[: t // 2 - 8].any()
        assert mask[t // 2 + 8 :].all()

    def test_context_zero_equals_raw(self):
        rng = np.random.default_rng(11)
        buf = audio.AudioBuffer(rng.uniform(-1, 1, 16000) * rng.uniform(0, 1, 16000), 16000)
        cfg = audio.VadConfig(context_frames=0)
        energies = audio.frame_log_energies(buf)
        raw = energies > cfg.energy_threshold + cfg.energy_mean_scale * energies.mean()
        np.testing.assert_array_equal(audio.energy_vad(buf, cfg), raw)

    def test_smoothing_matches_direct_recomputation(self):
        rng = np.random.default_rng(13)
        energies = rng.normal(0, 3, 200)
        cfg = audio.VadConfig(context_frames=5, proportion_threshold=0.6)
        got = audio.vad_from_energies(energies, cfg)
        thr = cfg.energy_threshold + cfg.energy_mean_scale * energies.mean()
        raw = energies > thr
        want = np.zeros(len(energies), dtype=bool)
        for t in range(len(energies)):
            lo, hi = max(0, t - 5), min(len(energies) - 1, t + 5)
            want[t] = raw[lo : hi + 1].mean() >= 0.6
        np.testing.assert_array_equal(got, want)

    def test_gain_invariance_when_threshold_tracks_mean(self):
        rng = np.random.default_rng(17)
        x = rng.normal(0, 0.1, 16000)
        cfg = audio.VadConfig(energy_mean_scale=1.0, energy_threshold=0.0)
        a = audio.energy_vad(audio.AudioBuffer(x, 16000), cfg)
        b = audio.energy_vad(audio.AudioBuffer(x * 7.3, 16000), cfg)
        np.testing.assert_array_equal(a, b)

    def test_an_energy_past_float64_is_refused_without_a_warning(self):
        """Finite samples of 1e200 square past float64's range: the energies and the VAD are
        refused, and the product warns nothing (the "error" warning filter would fail it)."""
        buf = audio.AudioBuffer(np.random.default_rng(19).uniform(-1e200, 1e200, 16000), 16000)
        for call in (audio.frame_log_energies, audio.energy_vad):
            with pytest.raises(ContractError, match="^frame energies overflow float64$"):
                call(buf)

    @pytest.mark.parametrize("field", ["energy_threshold", "energy_mean_scale"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_thresholds_rejected(self, field, value):
        # unchecked, NaN drops every frame and an infinity keeps all or none
        with pytest.raises(ContractError, match="energy_threshold and energy_mean_scale must be finite"):
            audio.VadConfig(**{field: value})


class TestApplyVad:
    def _feats(self, t=5, f=3):
        return audio.FeatureMatrix(np.arange(t * f, dtype=float).reshape(t, f))

    def test_all_true_identity(self):
        feats = self._feats()
        out = audio.apply_vad(feats, np.ones(5, bool))
        np.testing.assert_array_equal(out.values, feats.values)

    def test_all_false_empty(self):
        out = audio.apply_vad(self._feats(), np.zeros(5, bool))
        assert out.values.shape == (0, 3)

    def test_selection_order(self):
        feats = self._feats(t=3)
        out = audio.apply_vad(feats, np.array([True, False, True]))
        np.testing.assert_array_equal(out.values, feats.values[[0, 2]])

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            audio.apply_vad(self._feats(), np.ones(4, bool))

    def test_composed_masks(self):
        rng = np.random.default_rng(23)
        feats = audio.FeatureMatrix(rng.normal(size=(40, 4)))
        m1 = rng.random(40) < 0.6
        m2 = rng.random(40) < 0.6
        combined = audio.apply_vad(feats, m1 & m2)
        staged = audio.apply_vad(audio.apply_vad(feats, m1), m2[m1])
        np.testing.assert_array_equal(combined.values, staged.values)
