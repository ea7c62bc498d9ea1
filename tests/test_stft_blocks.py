"""The blocked STFT front end against one-shot numpy references, and its memory bounds."""

import tracemalloc

import numpy as np
import pytest

from upsample_audit import analysis as ana
from upsample_audit import cli
from upsample_audit.signals import Signal, white_noise
from upsample_audit.upsamplers import UpsamplerSpec, apply

WINDOW = 512
BLOCK = ana.BLOCK_BYTES // (8 * WINDOW)  # frames per block at this window size
FRAME_COUNTS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + BLOCK // 2)
_WINDOWS = {"hann": np.hanning, "rect": np.ones}


def _one_shot_mags(samples, window_size, hop, window="hann"):
    w = _WINDOWS[window](window_size)
    frames = np.lib.stride_tricks.sliding_window_view(samples, window_size)[::hop]
    return np.abs(np.fft.rfft(frames * w, axis=1)), w


def _db(magnitudes):
    return 20.0 * np.log10(np.maximum(magnitudes, 10.0 ** (ana.DB_FLOOR / 20.0)))


def _signal(channels, frames, hop, seed):
    n = WINDOW + (frames - 1) * hop
    rng = np.random.Generator(np.random.Philox(seed))
    return Signal(rng.standard_normal((channels, n)), 32000)


def _assert_identical(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("frames", FRAME_COUNTS)
@pytest.mark.parametrize("window, hop", [("hann", 1), ("hann", 128), ("rect", 128), ("rect", WINDOW)])
def test_spectrogram_matches_one_shot(channels, frames, window, hop):
    x = _signal(channels, frames, hop, seed=frames + hop)
    mags, w = _one_shot_mags(x.data.mean(axis=0), WINDOW, hop, window)
    view = ana.spectrogram(x, WINDOW, hop, window)
    assert view.num_frames == frames
    _assert_identical(view.magnitudes_db, _db(mags / w.sum()))


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("frames", (16, *FRAME_COUNTS[1:]))
def test_avg_spectrum_matches_one_shot(channels, frames):
    x = _signal(channels, frames, WINDOW // 2, seed=frames)
    mags, w = _one_shot_mags(x.data.mean(axis=0), WINDOW, WINDOW // 2)
    spectrum = ana.avg_spectrum(x, WINDOW)
    assert spectrum.num_frames == frames
    _assert_identical(spectrum.magnitude_db, _db(mags.mean(axis=0) / w.sum()))


@pytest.mark.parametrize("frames", FRAME_COUNTS[1:])
def test_measure_response_matches_one_shot(frames):
    spec = UpsamplerSpec(kind="stretch", factor=2, seed=5)
    trim = 2048
    # Trimmed output of 2n - 2*trim samples holds `frames` frames at 50% overlap.
    n = (2 * trim + WINDOW + (frames - 1) * WINDOW // 2) // 2
    acc, total = 0.0, 0
    for r in range(2):
        out = apply(spec, white_noise(n, 8000, spec.seed + 1_000_000 + r))
        mags, _ = _one_shot_mags(out.data.mean(axis=0)[trim:-trim], WINDOW, WINDOW // 2)
        assert mags.shape[0] == frames
        acc = acc + (mags**2).sum(axis=0)
        total += mags.shape[0]
    db = 10.0 * np.log10(np.maximum(acc / total, 1e-30))
    response = ana.measure_response(spec, 8000, realizations=2, n=n, window_size=WINDOW)
    _assert_identical(response.magnitude_db, db - db[0])


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_mono():
    return white_noise(1 << 21, 32000, 3)


def test_spectrogram_peak_stays_near_its_matrix(long_mono):
    view, peak = _traced_peak(ana.spectrogram, long_mono)
    assert peak < 1.5 * view.magnitudes_db.nbytes


def test_pgm_export_peak_stays_near_its_image(long_mono, tmp_path):
    view = ana.spectrogram(long_mono)
    _, peak = _traced_peak(cli._write_pgm, tmp_path / "s.pgm", view)
    assert peak < 3 * view.num_frames * view.num_bins
