"""The blocked STFT front end against one-shot numpy references, and its memory bounds."""

import tracemalloc

import numpy as np
import pytest

from upsample_audit import analysis as ana
from upsample_audit import cli, signals
from upsample_audit.signals import Signal, white_noise
from upsample_audit.upsamplers import UpsamplerSpec, apply

WINDOW = 512
BLOCK = ana.BLOCK_BYTES // (8 * WINDOW)  # frames per BLOCK_BYTES at this window size: SLOTS frame blocks
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


def spectrogram_and_average(x, window_size=512, hop=128, window="hann"):
    """The spectrogram and the avg_spectrum of x from the one pass analyze makes, over x's Blocks."""
    db, spectrum = ana._spectrogram_stream(signals.Blocks.of(x), window_size, hop, window,
                                           lambda frames: np.empty((frames, window_size // 2 + 1)), True)
    return ana.Spectrogram(signals.frozen(db), x.sample_rate_hz, window_size, hop, window), spectrum


ONE_PASS_HOPS = (1, 2, 64, 128, 256, 100)  # 100 does not divide 256: the two-call fallback


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("window", ["hann", "rect"])
@pytest.mark.parametrize("hop", ONE_PASS_HOPS)
def test_one_pass_matches_the_two_calls(channels, window, hop):
    # Enough frames at both hops for several blocks, and a length that is no
    # whole number of hops past the first frame.
    frames = max(2 * BLOCK + 300, 40 * WINDOW // hop)
    x = _signal(channels, frames, hop, seed=hop)
    x = Signal(x.data[:, : x.num_samples - hop // 2], x.sample_rate_hz)
    view, spectrum = spectrogram_and_average(x, WINDOW, hop, window)
    want_view = ana.spectrogram(x, WINDOW, hop, window)
    want = ana.avg_spectrum(x, WINDOW)
    _assert_identical(view.magnitudes_db, want_view.magnitudes_db)
    assert (view.sample_rate_hz, view.window_size, view.hop, view.window_kind) == (
        want_view.sample_rate_hz, WINDOW, hop, window)
    _assert_identical(spectrum.magnitude_db, want.magnitude_db)
    _assert_identical(spectrum.freqs_hz, want.freqs_hz)
    assert (spectrum.sample_rate_hz, spectrum.num_frames) == (want.sample_rate_hz, want.num_frames)


@pytest.mark.parametrize("frames_per_block", [1, 3, 7, 200])
@pytest.mark.parametrize("hop", [2, 64])
def test_one_pass_with_blocks_that_split_the_stride(monkeypatch, frames_per_block, hop):
    # Blocks whose starts are no multiple of the avg_spectrum stride
    # (WINDOW/2 // hop frames), and blocks that hold no averaged frame at all.
    monkeypatch.setattr(signals, "BLOCK_BYTES", frames_per_block * ana.SLOTS * 8 * WINDOW)
    x = _signal(2, 20 * WINDOW // (2 * hop) + 5, hop, seed=frames_per_block)
    view, spectrum = spectrogram_and_average(x, WINDOW, hop)
    _assert_identical(view.magnitudes_db, ana.spectrogram(x, WINDOW, hop).magnitudes_db)
    _assert_identical(spectrum.magnitude_db, ana.avg_spectrum(x, WINDOW).magnitude_db)


def _error(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def _two_calls(x, window_size, hop, window="hann"):
    ana.avg_spectrum(x, window_size)
    ana.spectrogram(x, window_size, hop, window)


@pytest.mark.parametrize(
    "samples, window_size, hop",
    [
        (WINDOW + 14 * WINDOW // 2, WINDOW, 128),  # 15 averaged frames
        (WINDOW + 14 * WINDOW // 2, WINDOW, 100),
        (8192, WINDOW, 0),
        (8192, WINDOW, -128),
        (8192, WINDOW, WINDOW + 1),
        (8192, 500, 125),
        (8192, 2, 1),
        (100, WINDOW, 128),
    ],
)
def test_one_pass_refuses_as_the_two_calls_do(samples, window_size, hop):
    x = _signal(1, 1, 1, seed=samples)
    x = Signal(np.resize(x.data[0], samples), 32000)
    want = _error(_two_calls, x, window_size, hop)
    assert _error(spectrogram_and_average, x, window_size, hop) == want


@pytest.mark.parametrize("hop", [128, 100])
def test_one_pass_refuses_cancelling_channels(hop):
    left = _signal(1, 64, hop, seed=4).data[0]
    x = Signal(np.stack([left, -left]), 32000)
    want = _error(_two_calls, x, WINDOW, hop)
    assert "cancel" in want
    assert _error(spectrogram_and_average, x, WINDOW, hop) == want


@pytest.mark.parametrize("samples", [500, 4000])  # shorter than one window; 14 averaged frames
def test_cancelling_stereo_is_refused_as_analyze_refuses_its_file(tmp_path, capsys, samples):
    # The library mixes a Signal down where analyze mixes its file down, in
    # the pass: framing and frame-count errors come before the cancellation.
    left = np.resize(_signal(1, 1, 1, seed=samples).data[0], samples)
    src = tmp_path / "in.wav"
    signals.write_wav(src, Signal(np.stack([left, -left]), 32000))
    x = signals.read_wav(src)
    averaged, alone = _error(_two_calls, x, WINDOW, 128), _error(ana.spectrogram, x, WINDOW, 128)
    assert _error(spectrogram_and_average, x, WINDOW, 128) == averaged
    assert ("cancel" in alone) == (samples == 4000) and "cancel" not in averaged
    for flags, want in (([], alone), (["--fs-in", "8000", "--factor", "4"], averaged)):
        assert cli.main(["analyze", "--in", str(src), "--report", str(tmp_path / "r.json"), *flags]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {want}"]


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


def test_stereo_avg_spectrum_peak_stays_below_its_mixdown(workers):
    # At 2**22 samples the mono mixdown (32 MiB) is several times the pass's
    # working set, so a whole mixdown would show. Each block is mixed down
    # into its slot's buffer, which the rFFT does not keep alive: measured
    # 0.63 bytes a sample on one worker (one slot), 1.51 on two (three
    # slots) and 2.14 on eight (SLOTS = 4).
    rng = np.random.Generator(np.random.Philox(6))
    x = Signal(signals.frozen(rng.uniform(-1.0, 1.0, (2, 1 << 22))), 32000)
    for count, bound in ((1, 1.0), (2, 2.0), (8, 2.5)):
        workers(count)
        _, peak = _traced_peak(ana.avg_spectrum, x)
        assert peak < bound * x.num_samples


def _write_csv(path, matrix):
    """analyze's CSV of one spectrogram, formatted by cli._Exports one block of frames at a time."""
    with open(path, "wb") as fh:
        exports = cli._Exports(*matrix.shape, csv=fh)
        for rows in signals.frame_blocks(len(matrix), 8 * WINDOW):
            exports[rows] = exports.prepare(matrix[rows])


def _write_pgm(path, view):
    """analyze's PGM of one spectrogram, stored by cli._Exports one block of frames at a time."""
    with open(path, "wb") as fh:
        fh.write(cli._pgm_header(view.num_frames, view.num_bins))
        exports = cli._Exports(view.num_frames, view.num_bins, pgm=fh)
        for rows in signals.frame_blocks(view.num_frames, 8 * view.num_bins):
            exports[rows] = exports.prepare(view.magnitudes_db[rows].copy())  # prepare scales its dB in place


def test_pgm_export_peak_stays_near_its_image(long_mono, tmp_path):
    view = ana.spectrogram(long_mono)
    _, peak = _traced_peak(_write_pgm, tmp_path / "s.pgm", view)
    assert peak < 3 * view.num_frames * view.num_bins


def test_one_pass_peak_stays_near_its_spectrogram(long_mono):
    (view, _), peak = _traced_peak(spectrogram_and_average, long_mono)
    assert peak < 1.5 * view.magnitudes_db.nbytes


def test_pass_peaks_stay_near_their_matrix_on_eight_workers(long_mono, workers):
    # At most SLOTS blocks of BLOCK_BYTES / SLOTS are in flight, however many CPUs: measured 1.05 of the
    # matrix on one worker, 1.14 on two and 1.19 on eight, alone or with the average.
    workers(8)
    for fn in (ana.spectrogram, spectrogram_and_average):
        result, peak = _traced_peak(fn, long_mono)
        view = result if fn is ana.spectrogram else result[0]
        assert peak < 1.5 * view.magnitudes_db.nbytes


@pytest.mark.parametrize("estimator", [ana.spectrogram, ana.avg_spectrum, spectrogram_and_average])
def test_short_signal_is_refused_before_the_window_is_built(estimator):
    x = white_noise(1000, 32000, 5)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="window of 4194304 samples exceeds signal length 1000"):
            estimator(x, 2**22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_csv_export_peak_stays_near_one_block(long_mono, tmp_path):
    view = ana.spectrogram(long_mono)
    path = tmp_path / "s.csv"
    _, peak = _traced_peak(_write_csv, path, view.magnitudes_db)
    assert peak < 2 * ana.BLOCK_BYTES
    assert path.stat().st_size > 8 * ana.BLOCK_BYTES  # so the whole text was never held
