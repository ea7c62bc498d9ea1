"""Arrays handed over instead of copied: Signal's ownership rule, the streamed
WAV writer against a one-shot encoding, and the memory bounds of apply, WAV
I/O and the streamed upsample command on stereo input of 200,001 samples at x4."""

import os
import stat
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from upsample_audit import cli
from upsample_audit import signals as sig
from upsample_audit.analysis import Spectrogram
from upsample_audit.upsamplers import KINDS, LiftingParams, UpsamplerSpec, apply
from upsample_audit.upsamplers.config import WAVELET_KINDS


def _frozen_noise(shape, seed=0):
    arr = np.random.Generator(np.random.Philox(seed)).standard_normal(shape)
    arr.flags.writeable = False
    return arr


class TestOwnership:
    def test_read_only_owned_float64_is_taken_over(self):
        arr = _frozen_noise((2, 100))
        s = sig.Signal(arr, 8000)
        assert s.data is arr

    def test_read_only_owned_vector_is_taken_over_as_one_channel(self):
        arr = _frozen_noise(100)
        s = sig.Signal(arr, 8000)
        assert s.data.shape == (1, 100)
        assert np.shares_memory(s.data, arr)

    def test_writeable_input_is_copied(self):
        arr = np.random.Generator(np.random.Philox(1)).standard_normal((2, 100))
        s = sig.Signal(arr, 8000)
        arr[0, 0] = 7.0
        assert s.data[0, 0] != 7.0
        assert not np.shares_memory(s.data, arr)

    def test_read_only_view_of_writeable_data_is_copied(self):
        base = np.zeros((2, 100))
        view = base[:, :50]
        view.flags.writeable = False
        s = sig.Signal(view, 8000)
        base[0, 0] = 7.0
        assert s.data[0, 0] == 0.0
        assert not np.shares_memory(s.data, base)

    def test_non_contiguous_input_is_copied(self):
        arr = np.asfortranarray(_frozen_noise((2, 100)))
        arr.flags.writeable = False
        assert arr.flags.owndata and not arr.flags.c_contiguous
        s = sig.Signal(arr, 8000)
        assert not np.shares_memory(s.data, arr)
        assert s.data.flags.c_contiguous
        np.testing.assert_array_equal(s.data, arr)

    def test_float32_input_is_copied(self):
        arr = _frozen_noise((2, 100)).astype(np.float32)
        arr.flags.writeable = False
        s = sig.Signal(arr, 8000)
        assert s.data.dtype == np.float64
        assert not np.shares_memory(s.data, arr)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_taken_over_data_is_still_scanned(self, bad):
        arr = np.zeros((2, 100))
        arr[1, 50] = bad
        arr.flags.writeable = False
        with pytest.raises(ValueError, match="finite"):
            sig.Signal(arr, 8000)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_spectrogram_is_scanned(self, bad):
        arr = np.zeros((3, 5))
        arr[2, 4] = bad
        with pytest.raises(ValueError, match="^spectrogram magnitudes must be finite$"):
            Spectrogram(arr, 8000, 8, 4, "hann")

    def test_spectrogram_without_frames_is_accepted(self):
        assert Spectrogram(np.zeros((0, 5)), 8000, 8, 4, "hann").num_frames == 0


def _one_shot_wav(signal, fmt):
    """The WAV bytes encoded from one interleaved copy of the whole signal."""
    interleaved = signal.data.T.reshape(-1)
    if fmt == "pcm16":
        payload = np.round(np.clip(interleaved, -1.0, 1.0) * 32767.0).astype("<i2").tobytes()
        audio_format, bits = 1, 16
    else:
        payload = interleaved.astype("<f4").tobytes()
        audio_format, bits = 3, 32
    ch, rate = signal.channels, signal.sample_rate_hz
    chunks = struct.pack("<4sIHHIIHH", b"fmt ", 16, audio_format, ch, rate,
                         rate * ch * bits // 8, ch * bits // 8, bits)
    if audio_format == 3:
        chunks += struct.pack("<4sII", b"fact", 4, signal.num_samples)
    chunks += struct.pack("<4sI", b"data", len(payload)) + payload
    return struct.pack("<4sI4s", b"RIFF", 4 + len(chunks), b"WAVE") + chunks


def _frames_per_block(channels):
    return sig.BLOCK_BYTES // (8 * channels)


class TestStreamedWriter:
    @pytest.mark.parametrize("fmt", ["float32", "pcm16"])
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (0, 3), (1, -1), (1, 0), (1, 1), (2, 7)])
    def test_bytes_equal_the_one_shot_encoding(self, tmp_path, fmt, channels, blocks, extra):
        n = blocks * _frames_per_block(channels) + extra
        x = sig.Signal(1.2 * _frozen_noise((channels, n), seed=n), 8000 * channels)
        path = tmp_path / "x.wav"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sig.write_wav(path, x, fmt)
        assert path.read_bytes() == _one_shot_wav(x, fmt)

    def test_pcm16_saturation_warns_once_and_an_error_filter_leaves_no_file(self, tmp_path):
        x = sig.Signal(np.full((2, 3 * _frames_per_block(2)), 1.5), 8000)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sig.write_wav(tmp_path / "a.wav", x, "pcm16")
        assert [str(w.message) for w in caught] == ["samples outside [-1, 1] are saturated in pcm16 export"]
        path = tmp_path / "b.wav"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="saturated"):
                sig.write_wav(path, x, "pcm16")
        assert sorted(os.listdir(tmp_path)) == ["a.wav"]

    def test_float32_overflow_in_a_later_block_leaves_an_existing_file_as_it_was(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sig, "BLOCK_BYTES", 64)  # blocks of 8 mono frames
        data = np.zeros(40)
        data[-1] = 1e300
        path = tmp_path / "x.wav"
        path.write_bytes(b"earlier contents")
        passed = []
        blocks = sig.frame_blocks
        monkeypatch.setattr(sig, "frame_blocks", lambda *a: (passed.append(c) or c for c in blocks(*a)))
        with pytest.raises(ValueError, match="a sample of magnitude 1e\\+300 is beyond float32's range"):
            sig.write_wav(path, sig.Signal(data, 8000))
        assert len(passed) == 5  # the refusal came in the last block, after four were written
        assert path.read_bytes() == b"earlier contents"
        assert os.listdir(tmp_path) == ["x.wav"]

    @pytest.mark.parametrize("make", [os.mkdir, os.mkfifo], ids=["directory", "fifo"])
    def test_a_target_that_is_no_regular_file_is_refused_and_left_alone(self, tmp_path, make):
        path = tmp_path / "x.wav"
        make(path)
        with pytest.raises(ValueError, match=f"^{path} is not a regular file$"):
            sig.write_wav(path, sig.ones(8, 8000))
        assert os.listdir(tmp_path) == ["x.wav"]
        assert path.is_dir() if make is os.mkdir else stat.S_ISFIFO(path.stat().st_mode)


def _spec(kind, factor):
    return UpsamplerSpec(
        kind=kind,
        factor=factor,
        filter_length=9 if kind in ("transposed", "subpixel") else None,
        stride=factor if kind == "transposed" else None,
        lifting=LiftingParams(0.5, 0.25, 1.2) if kind == "wavelet-lifting" else None,
    )


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def stereo_in():
    return sig.Signal(np.random.Generator(np.random.Philox(7)).uniform(-1.0, 1.0, (2, 200_001)), 8000)


@pytest.fixture(scope="module")
def stereo_out(stereo_in):
    return apply(_spec("sinc", 4), stereo_in)


class TestMemoryBounds:
    @pytest.mark.parametrize("kind", KINDS)
    def test_apply_peak_stays_near_its_output(self, stereo_in, kind):
        y, peak = _traced_peak(apply, _spec(kind, 4), stereo_in)
        # The output plus one tile's convolution per branch. Wavelet kinds also
        # hold one block of the first level's output while the second runs,
        # and lifting that block's input divided by A.
        assert peak < (1.4 if kind in WAVELET_KINDS else 1.2) * y.data.nbytes

    @pytest.mark.parametrize("fmt, gain", [("float32", 1.0), ("pcm16", 1.0), ("pcm16", 2.0)])
    def test_write_wav_peak_is_a_fraction_of_the_signal(self, tmp_path, stereo_out, fmt, gain):
        x = stereo_out if gain == 1.0 else sig.Signal(gain * stereo_out.data, stereo_out.sample_rate_hz)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, peak = _traced_peak(sig.write_wav, tmp_path / "x.wav", x, fmt)
        assert peak < 0.5 * x.data.nbytes

    @pytest.mark.parametrize("fmt", ["float32", "pcm16"])
    def test_read_wav_peak_stays_near_its_signal(self, tmp_path, stereo_out, fmt):
        path = tmp_path / "x.wav"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sig.write_wav(path, stereo_out, fmt)
        back, peak = _traced_peak(sig.read_wav, path)
        assert peak < 1.75 * back.data.nbytes

    @pytest.mark.parametrize("fmt", ["float32", "pcm16"])
    def test_read_wav_holds_one_block_of_file_bytes(self, tmp_path, stereo_out, fmt, monkeypatch):
        path = tmp_path / "x.wav"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sig.write_wav(path, stereo_out, fmt)
        monkeypatch.setattr(sig, "BLOCK_BYTES", 1 << 16)
        back, peak = _traced_peak(sig.read_wav, path)
        np.testing.assert_array_equal(back.data, sig.read_wav(path).data)
        # The signal and one block, with room to spare.
        assert peak < 1.125 * back.data.nbytes + 4 * sig.BLOCK_BYTES

    @pytest.mark.parametrize(
        "flags",
        [
            ["--layer", "stretch", "--factor", 4],
            ["--layer", "nearest", "--factor", 4],
            ["--layer", "linear", "--factor", 4],
            ["--layer", "sinc", "--factor", 4],
            ["--layer", "sinc", "--factor", 16],
            ["--layer", "transposed", "--length", 9, "--stride", 4],
            ["--layer", "subpixel", "--length", 9, "--factor", 4],
            ["--layer", "wavelet-lazy", "--factor", 4],
            ["--layer", "wavelet-haar", "--factor", 4],
            ["--layer", "wavelet-lifting", "--P", 0.5, "--U", 0.25, "--A", 1.2, "--factor", 4],
            ["--layer", "wavelet-lifting", "--P", 0.5, "--U", 0.25, "--A", 1.2, "--factor", 4,
             "--wavelet-mode", "roundtrip"],
        ],
        ids=lambda flags: "-".join(map(str, flags[1:2] + flags[-1:])),
    )
    def test_upsample_holds_its_input_and_a_few_blocks(self, tmp_path, stereo_in, flags, monkeypatch, capsys):
        src = tmp_path / "in.wav"
        sig.write_wav(src, stereo_in)
        monkeypatch.setattr(sig, "BLOCK_BYTES", 1 << 16)
        argv = ["upsample", "--in", str(src), "--out", str(tmp_path / "out.wav"), *map(str, flags)]
        assert cli.main(argv) == 0  # the first command in a process also pays for one-time set-up
        code, peak = _traced_peak(cli.main, argv)
        assert code == 0
        # No whole input (49 blocks of float64): one buffer of float32 frames
        # (half a block), the input columns one output block reads, and the
        # kernel's temporaries, 1.4 to 2.3 blocks measured; 4.6 for the round
        # trip, which also holds a block's bands and synthesis output. That is
        # whatever the output's length: 98 blocks of float64 at x4, 391 at x16.
        blocks = 5 if "roundtrip" in flags else 3
        assert peak < blocks * sig.BLOCK_BYTES

    @pytest.mark.parametrize(
        "make",
        [lambda a: sig.Signal(a, 8000).data, lambda a: Spectrogram(a, 8000, 2046, 512, "hann").magnitudes_db],
        ids=["signal", "spectrogram"],
    )
    def test_taking_over_scans_without_a_temporary(self, make):
        arr = _frozen_noise((1000, 1024))
        stored, peak = _traced_peak(make, arr)
        assert stored is arr
        assert peak < 0.01 * arr.nbytes
