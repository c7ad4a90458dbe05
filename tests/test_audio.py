import wave

import numpy as np
import pytest

from oracles import oracle_resample

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
        with pytest.raises(ContractError):
            audio.resample(audio.AudioBuffer(np.zeros(10), 8000), 0)

    @pytest.mark.parametrize("src, target, seconds", [(16000, 8000, 2.0), (8000, 16000, 3.0)])
    def test_integer_ratio_bitwise_equals_oracle(self, src, target, seconds):
        x = np.random.default_rng(src).uniform(-1, 1, int(seconds * src))
        out = audio.resample(audio.AudioBuffer(x, src), target)
        np.testing.assert_array_equal(out.samples, oracle_resample(x, src, target))

    # 16000 -> 44101 has 44101 phases, more than one block of outputs
    @pytest.mark.parametrize("target, seconds", [(44100, 3.0), (11025, 3.0), (44101, 0.75)])
    def test_fractional_ratio_matches_oracle(self, target, seconds):
        x = np.random.default_rng(target).uniform(-1, 1, int(seconds * 16000))
        out = audio.resample(audio.AudioBuffer(x, 16000), target)
        want = oracle_resample(x, 16000, target)
        assert out.samples.shape == want.shape
        assert np.max(np.abs(out.samples - want)) <= 1e-9


class TestFbank:
    def test_frame_count_1s_16k(self):
        buf = audio.AudioBuffer(np.random.default_rng(0).normal(0, 0.1, 16000), 16000)
        feats = audio.log_mel_fbank(buf)
        # 1 + (16000 - 400) // 160
        assert feats.values.shape == (98, 80)
        assert feats.frame_shift_ms == 10.0
        assert feats.source_rate == 16000

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

    def test_bad_band_edges(self):
        buf = audio.AudioBuffer(np.zeros(16000), 16000)
        with pytest.raises(ContractError):
            audio.log_mel_fbank(buf, audio.FbankConfig(low_freq=50.0, high_freq=40.0))
        with pytest.raises(ContractError):
            audio.log_mel_fbank(buf, audio.FbankConfig(high_freq=9000.0))


class TestVad:
    def test_uniform_energy_all_below_threshold(self):
        # constant frame energy exp(8): threshold = 5 + 0.5 * 8 = 9 > 8
        amp = np.sqrt(np.exp(8.0) / 400)
        buf = audio.AudioBuffer(np.full(16000, amp), 16000)
        cfg = audio.VadConfig(energy_mean_scale=0.5, energy_threshold=5.0)
        energies = audio.frame_log_energies(buf, cfg)
        np.testing.assert_allclose(energies, 8.0, atol=1e-9)
        mask = audio.energy_vad(buf, cfg)
        assert not mask.any()

    def test_silence_then_burst(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([np.zeros(8000), rng.uniform(-0.9, 0.9, 8000)])
        buf = audio.AudioBuffer(x, 16000)
        mask = audio.energy_vad(buf, audio.VadConfig())
        energies = audio.frame_log_energies(buf, audio.VadConfig())
        t = len(energies)
        # interior of each half, clear of the boundary and smoothing context
        assert not mask[: t // 2 - 8].any()
        assert mask[t // 2 + 8 :].all()

    def test_context_zero_equals_raw(self):
        rng = np.random.default_rng(11)
        buf = audio.AudioBuffer(rng.uniform(-1, 1, 16000) * rng.uniform(0, 1, 16000), 16000)
        cfg = audio.VadConfig(context_frames=0)
        energies = audio.frame_log_energies(buf, cfg)
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


class TestApplyVad:
    def _feats(self, t=5, f=3):
        vals = np.arange(t * f, dtype=float).reshape(t, f)
        return audio.FeatureMatrix(vals, 10.0, 16000)

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
        feats = audio.FeatureMatrix(rng.normal(size=(40, 4)), 10.0, 16000)
        m1 = rng.random(40) < 0.6
        m2 = rng.random(40) < 0.6
        combined = audio.apply_vad(feats, m1 & m2)
        staged = audio.apply_vad(audio.apply_vad(feats, m1), m2[m1])
        np.testing.assert_array_equal(combined.values, staged.values)
