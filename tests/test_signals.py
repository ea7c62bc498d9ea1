"""Signal generators, the Signal type, and WAV round trips."""

import struct

import numpy as np
import pytest

from upsample_audit import signals as sig
from upsample_audit.analysis import spectrogram


class TestSignalType:
    def test_mono_vector_is_promoted_to_one_channel(self):
        s = sig.Signal([1.0, 2.0], 8000)
        assert s.data.shape == (1, 2)
        assert s.channels == 1
        assert s.num_samples == 2

    def test_duration(self):
        assert sig.Signal(np.zeros(4000), 8000).duration_s == 0.5

    def test_data_is_read_only(self):
        s = sig.Signal([1.0, 2.0], 8000)
        with pytest.raises(ValueError):
            s.data[0, 0] = 3.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            sig.Signal([1.0, np.nan], 8000)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one sample"):
            sig.Signal(np.zeros((1, 0)), 8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="sample rate"):
            sig.Signal([1.0], 0)

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="1D or 2D"):
            sig.Signal(np.zeros((1, 2, 3)), 8000)


class TestWhiteNoise:
    def test_deterministic_for_seed(self):
        a = sig.white_noise(4, 8000, 7)
        b = sig.white_noise(4, 8000, 7)
        np.testing.assert_array_equal(a.data, b.data)

    def test_seeds_differ(self):
        a = sig.white_noise(64, 8000, 1)
        b = sig.white_noise(64, 8000, 2)
        assert np.any(a.data != b.data)

    def test_mean_near_zero(self):
        s = sig.white_noise(32768, 8000, 1)
        assert abs(s.data.mean()) < 0.02

    def test_bounds(self):
        s = sig.white_noise(1 << 16, 8000, 3)
        assert s.data.min() >= -1.0
        assert s.data.max() < 1.0

    def test_single_channel(self):
        assert sig.white_noise(16, 8000, 0).channels == 1

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            sig.white_noise(0, 8000, 1)


class TestOnes:
    def test_values(self):
        np.testing.assert_array_equal(sig.ones(3, 8000).data[0], [1.0, 1.0, 1.0])

    def test_minimal_length(self):
        np.testing.assert_array_equal(sig.ones(1, 8000).data[0], [1.0])

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            sig.ones(0, 8000)

    def test_rect_spectrum_concentrates_at_dc(self):
        # A rectangular window over the exact length leaves no leakage, so
        # every non-DC bin sits at the dB floor.
        view = spectrogram(sig.ones(8192, 8000), window_size=8192, hop=8192, window="rect")
        frame = view.magnitudes_db[0]
        assert frame[0] == pytest.approx(0.0, abs=1e-9)
        assert frame[1:].max() <= frame[0] - 80.0


class TestTone:
    def test_quarter_period_samples(self):
        s = sig.tone(4, 8000, 2000.0)
        np.testing.assert_allclose(s.data[0], [0.0, 1.0, 0.0, -1.0], atol=1e-12)

    def test_spectral_peak_at_nearest_bin(self):
        s = sig.tone(8192, 8000, 1000.0)
        mags = np.abs(np.fft.rfft(s.data[0]))
        expected_bin = round(1000.0 / 8000 * 8192)
        assert int(np.argmax(mags)) == expected_bin

    def test_amplitude(self):
        s = sig.tone(128, 8000, 2000.0, amplitude=0.25)
        assert np.max(np.abs(s.data)) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("f0", [4000.0, 5000.0, 0.0, -100.0])
    def test_out_of_band_frequency_rejected(self, f0):
        with pytest.raises(ValueError, match="f0"):
            sig.tone(8, 8000, f0)


class TestWavRoundTrip:
    def test_float32_bit_exact(self, tmp_path):
        x = sig.white_noise(256, 8000, 1)
        exact = sig.Signal(x.data.astype(np.float32).astype(np.float64), 8000)
        path = tmp_path / "mono.wav"
        sig.write_wav(path, exact, fmt="float32")
        back = sig.read_wav(path)
        assert back.sample_rate_hz == 8000
        np.testing.assert_array_equal(back.data, exact.data)

    def test_float32_quantizes_doubles_once(self, tmp_path):
        x = sig.white_noise(64, 8000, 2)
        path = tmp_path / "x.wav"
        sig.write_wav(path, x, fmt="float32")
        back = sig.read_wav(path)
        np.testing.assert_array_equal(back.data, x.data.astype(np.float32).astype(np.float64))

    def test_float32_stereo(self, tmp_path):
        data = np.vstack([sig.white_noise(100, 44100, 5).data, sig.white_noise(100, 44100, 6).data])
        x = sig.Signal(data.astype(np.float32).astype(np.float64), 44100)
        path = tmp_path / "stereo.wav"
        sig.write_wav(path, x, fmt="float32")
        back = sig.read_wav(path)
        assert back.channels == 2
        np.testing.assert_array_equal(back.data, x.data)

    def test_pcm16_half_amplitude(self, tmp_path):
        path = tmp_path / "half.wav"
        sig.write_wav(path, sig.Signal([0.5], 8000), fmt="pcm16")
        back = sig.read_wav(path)
        assert abs(back.data[0, 0] - 0.5) < 1.0 / 32768

    def test_pcm16_round_trip_error_bound(self, tmp_path):
        x = sig.white_noise(512, 8000, 9)
        path = tmp_path / "q.wav"
        sig.write_wav(path, x, fmt="pcm16")
        back = sig.read_wav(path)
        assert np.max(np.abs(back.data - x.data)) < 1.0 / 32768

    def test_pcm16_clipping_warns_and_saturates(self, tmp_path):
        path = tmp_path / "clip.wav"
        with pytest.warns(UserWarning, match="saturated"):
            sig.write_wav(path, sig.Signal([1.5, -2.0, 0.0], 8000), fmt="pcm16")
        back = sig.read_wav(path)
        np.testing.assert_allclose(back.data[0], [1.0, -1.0, 0.0], atol=1.0 / 32768)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported format"):
            sig.write_wav(tmp_path / "x.wav", sig.ones(4, 8000), fmt="mp3")

    def test_three_channels_rejected(self, tmp_path):
        x = sig.Signal(np.zeros((3, 8)), 8000)
        with pytest.raises(ValueError, match="mono and stereo"):
            sig.write_wav(tmp_path / "x.wav", x)

    def test_data_chunk_over_the_riff_limit_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sig, "MAX_WAV_DATA_BYTES", 255)
        x = sig.ones(64, 8000)
        with pytest.raises(ValueError, match="64 samples of 4 bytes exceed the WAV data limit of 255 bytes"):
            sig.write_wav(tmp_path / "x.wav", x)
        assert not (tmp_path / "x.wav").exists()
        sig.write_wav(tmp_path / "x.wav", x, fmt="pcm16")
        assert sig.read_wav(tmp_path / "x.wav").num_samples == 64


class TestWavReader:
    def test_tiny_file_rejected(self, tmp_path):
        path = tmp_path / "tiny.wav"
        path.write_bytes(b"RIFF\x00")
        with pytest.raises(ValueError, match="RIFF/WAVE"):
            sig.read_wav(path)

    def test_truncated_data_chunk_rejected(self, tmp_path):
        good = tmp_path / "good.wav"
        sig.write_wav(good, sig.ones(64, 8000), fmt="pcm16")
        bad = tmp_path / "bad.wav"
        bad.write_bytes(good.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            sig.read_wav(bad)

    def test_unsupported_codec_rejected(self, tmp_path):
        fmt_chunk = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 1, 8000, 8000 * 3, 3, 24)
        data_chunk = struct.pack("<4sI", b"data", 3) + b"\x00\x00\x00"
        body = fmt_chunk + data_chunk
        path = tmp_path / "x24.wav"
        path.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)
        with pytest.raises(ValueError, match="unsupported codec"):
            sig.read_wav(path)

    def test_missing_data_chunk_rejected(self, tmp_path):
        fmt_chunk = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 1, 8000, 16000, 2, 16)
        path = tmp_path / "nodata.wav"
        path.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(fmt_chunk), b"WAVE") + fmt_chunk)
        with pytest.raises(ValueError, match="missing fmt or data"):
            sig.read_wav(path)

    def test_unknown_chunks_are_skipped(self, tmp_path):
        x = sig.Signal(np.arange(4.0) / 8.0, 8000)
        plain = tmp_path / "plain.wav"
        sig.write_wav(plain, x, fmt="float32")
        raw = plain.read_bytes()
        # Splice a junk chunk right after the RIFF header.
        junk = struct.pack("<4sI", b"LIST", 6) + b"noise\x00"
        patched = raw[:12] + junk + raw[12:]
        patched = patched[:4] + struct.pack("<I", len(patched) - 8) + patched[8:]
        spliced = tmp_path / "spliced.wav"
        spliced.write_bytes(patched)
        back = sig.read_wav(spliced)
        np.testing.assert_array_equal(back.data, x.data.astype(np.float32).astype(np.float64))
