"""Spectral estimators, artifact metrics, and response measurement."""

import numpy as np
import pytest

from upsample_audit import analysis as ana
from upsample_audit import signals as sig
from upsample_audit.signals import Signal, ones, tone, white_noise
from upsample_audit.upsamplers import (
    LiftingParams,
    UpsamplerSpec,
    apply,
    cascade_synthesis,
    random_filters,
)


def _flat_spectrum(db_value, bins=257, fs=8000, frames=16):
    return ana.AveragedSpectrum(np.full(bins, float(db_value)), fs, frames)


class TestSpectrogram:
    def test_tone_occupies_one_bin_in_every_frame(self):
        view = ana.spectrogram(tone(8192, 8000, 1000.0), window_size=512, hop=128)
        assert view.num_bins == 257
        peaks = np.argmax(view.magnitudes_db, axis=1)
        np.testing.assert_array_equal(peaks, np.full(view.num_frames, 64))

    def test_silence_sits_at_the_floor(self):
        view = ana.spectrogram(Signal(np.zeros(2048), 8000))
        assert np.all(view.magnitudes_db == ana.DB_FLOOR)

    def test_rect_window_preserves_frame_energy(self):
        x = white_noise(4096, 8000, 77)
        view = ana.spectrogram(x, window_size=512, hop=512, window="rect")
        mags = 10.0 ** (view.magnitudes_db / 20.0)
        for i in range(view.num_frames):
            frame = x.data[0, i * 512 : (i + 1) * 512]
            m = mags[i]
            spectral = 512.0 * (m[0] ** 2 + 2.0 * np.sum(m[1:-1] ** 2) + m[-1] ** 2)
            assert spectral == pytest.approx(np.sum(frame**2), rel=1e-6)

    def test_frame_count_and_freq_grid(self):
        view = ana.spectrogram(white_noise(1024, 16000, 3), window_size=256, hop=64)
        assert view.num_frames == (1024 - 256) // 64 + 1
        assert view.freqs_hz[0] == 0.0
        assert view.freqs_hz[-1] == 8000.0

    def test_stereo_is_mixed_down(self):
        left = tone(2048, 8000, 1000.0)
        stereo = Signal(np.vstack([left.data, np.zeros_like(left.data)]), 8000)
        view = ana.spectrogram(stereo)
        mono = ana.spectrogram(Signal(left.data / 2.0, 8000))
        assert np.array_equal(view.magnitudes_db, mono.magnitudes_db)

    def test_cancelling_channels_are_refused(self):
        left = tone(8000, 32000, 3000.0)
        stereo = Signal(np.vstack([left.data, -left.data]), 32000)
        with pytest.raises(ValueError, match="^the 2 channels cancel in the mixdown"):
            ana.spectrogram(stereo)
        with pytest.raises(ValueError, match="^the 2 channels cancel in the mixdown"):
            ana.avg_spectrum(stereo)

    @pytest.mark.parametrize("window,hop", [("hann", 128), ("hann", 200), ("rect", 512)])
    def test_stereo_matches_numpy_exactly(self, window, hop):
        stereo = Signal(
            np.vstack([white_noise(3001, 8000, 5).data, tone(3001, 8000, 700.0).data]), 8000
        )
        view = ana.spectrogram(stereo, window_size=512, hop=hop, window=window)
        mono = (stereo.data[0] + stereo.data[1]) / 2.0
        w = np.hanning(512) if window == "hann" else np.ones(512)
        frames = np.stack([mono[i : i + 512] for i in range(0, 3001 - 512 + 1, hop)])
        mags = np.abs(np.fft.rfft(frames * w, axis=1)) / w.sum()
        expected = 20.0 * np.log10(np.maximum(mags, 10.0 ** (ana.DB_FLOOR / 20.0)))
        assert np.array_equal(view.magnitudes_db, expected)

    def test_window_longer_than_signal_rejected(self):
        with pytest.raises(ValueError, match="exceeds signal length"):
            ana.spectrogram(white_noise(100, 8000, 0), window_size=512)

    def test_window_size_must_be_a_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            ana.spectrogram(white_noise(2048, 8000, 0), window_size=500)

    def test_hop_bounds(self):
        with pytest.raises(ValueError, match="hop"):
            ana.spectrogram(white_noise(2048, 8000, 0), window_size=512, hop=0)
        with pytest.raises(ValueError, match="hop"):
            ana.spectrogram(white_noise(2048, 8000, 0), window_size=512, hop=513)

    def test_unknown_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ana.spectrogram(white_noise(2048, 8000, 0), window="kaiser")


class TestAveragedSpectrum:
    def test_white_noise_is_flat(self):
        spec = ana.avg_spectrum(white_noise(1 << 17, 8000, 101))
        band = (spec.freqs_hz >= 0.05 * 4000) & (spec.freqs_hz <= 0.95 * 4000)
        db = spec.magnitude_db[band]
        assert np.max(np.abs(db - np.median(db))) < 1.0

    def test_constant_signal_concentrates_at_dc(self):
        spec = ana.avg_spectrum(ones(1 << 15, 8000))
        # The Hann main lobe spills into bin 1; everything past it must sit
        # far below DC.
        assert np.max(spec.magnitude_db[2:]) <= spec.magnitude_db[0] - 60.0

    def test_tone_peaks_at_its_own_bin(self):
        spec = ana.avg_spectrum(tone(1 << 14, 8000, 1000.0))
        assert int(np.argmax(spec.magnitude_db)) == 64

    def test_frame_count_is_tracked(self):
        spec = ana.avg_spectrum(white_noise(1 << 13, 8000, 5))
        assert spec.num_frames == (8192 - 512) // 256 + 1

    def test_short_signals_rejected(self):
        with pytest.raises(ValueError, match="at least 16 frames"):
            ana.avg_spectrum(white_noise(2048, 8000, 0))

    def test_zero_sum_window_rejected(self):
        # Both samples of a 2-point Hann window are 0, so normalising by its sum divides by 0.
        with pytest.raises(ValueError, match="^hann window of 2 samples has no positive sum$"):
            ana.avg_spectrum(white_noise(2048, 8000, 0), 2)


class TestGrid:
    """Both 1-D spectrum types derive their grid from their rate and bin count: the rFFT grid bin_of reads."""

    @pytest.mark.parametrize("window_size", [256, 512])
    def test_freqs_are_the_rfft_grid_of_the_rate(self, window_size):
        spectra = [ana.avg_spectrum(white_noise(1 << 13, 8000, 5), window_size),
                   ana.analytic_response(np.ones(4), window_size, 32000),
                   ana.measure_response(UpsamplerSpec(kind="stretch", factor=2), 8000, 1, 1 << 13, window_size)]
        for spectrum in spectra:
            want = ana._rfft_freqs(spectrum.sample_rate_hz, window_size)
            assert np.array_equal(spectrum.freqs_hz, want) and spectrum.num_bins == want.size
            np.testing.assert_allclose(spectrum.freqs_hz, np.fft.rfftfreq(window_size, 1 / spectrum.sample_rate_hz))

    @pytest.mark.parametrize("freq", [250.0, 992.0, 1000.0, 3007.0])
    def test_a_line_at_bin_of_reads_its_own_prominence(self, freq):
        # 992 Hz is the line a stored non-uniform grid once hid: bin_of then picked the bin at 250 Hz.
        db = np.full(257, -60.0)
        db[0] = 0.0  # a response's DC reference
        for make in (lambda d: ana.AveragedSpectrum(d, 8000, 16), lambda d: ana.FrequencyResponse(d, 8000)):
            line = db.copy()
            line[make(db).bin_of(freq)] = 0.0
            assert ana.tonal_prominence(make(line), freq) == 60.0


class TestAverageSpectra:
    def test_mean_of_linear_magnitudes(self):
        a = _flat_spectrum(0.0)
        b = _flat_spectrum(-20.0)
        merged = ana.average_spectra([a, b])
        # (1 + 0.1) / 2 in linear magnitude.
        assert merged.magnitude_db[10] == pytest.approx(20.0 * np.log10(0.55), abs=1e-9)
        assert merged.num_frames == 32

    def test_mismatched_grids_rejected(self):
        a = _flat_spectrum(0.0, bins=257)
        b = _flat_spectrum(0.0, bins=129)
        with pytest.raises(ValueError, match="grid"):
            ana.average_spectra([a, b])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ana.average_spectra([])


class TestReplicaPrediction:
    @pytest.mark.parametrize(
        "fs_in,factor,expected",
        [
            (8000, 4, [8000.0, 16000.0]),
            (8000, 2, [8000.0]),
            (16000, 4, [16000.0, 32000.0]),
            (8000, 3, [8000.0]),
        ],
    )
    def test_offsets_are_input_rate_multiples(self, fs_in, factor, expected):
        assert ana.replica_frequencies(fs_in, factor) == expected

    def test_factor_validation(self):
        with pytest.raises(ValueError, match="factor"):
            ana.replica_frequencies(8000, 1)


class TestTonalProminence:
    def test_isolated_line_over_flat_background(self):
        spec = _flat_spectrum(-60.0)
        db = spec.magnitude_db.copy()
        db[128] = 0.0
        spec = ana.AveragedSpectrum(db, 8000, 16)
        assert ana.tonal_prominence(spec, 2000.0) == pytest.approx(60.0, abs=1e-12)

    def test_invariant_under_global_gain(self):
        freqs = np.linspace(0.0, 4000.0, 257)
        rng = np.random.Generator(np.random.Philox(8))
        db = -60.0 + rng.normal(0.0, 3.0, 257)
        db[100] += 30.0
        a = ana.AveragedSpectrum(db, 8000, 16)
        b = ana.AveragedSpectrum(db + 12.5, 8000, 16)
        pa = ana.tonal_prominence(a, freqs[100])
        pb = ana.tonal_prominence(b, freqs[100])
        assert pa == pytest.approx(pb, abs=1e-12)

    def test_flat_spectrum_has_zero_prominence(self):
        assert ana.tonal_prominence(_flat_spectrum(-30.0), 1000.0) == pytest.approx(0.0)

    def test_out_of_band_candidate_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ana.tonal_prominence(_flat_spectrum(0.0), 5000.0)

    def test_spectrum_too_short_for_a_background_rejected(self):
        with pytest.raises(ValueError, match="no background bins around 1000.0 Hz in a 5-bin spectrum"):
            ana.tonal_prominence(_flat_spectrum(0.0, bins=5), 1000.0)

    def test_detection_uses_the_threshold(self):
        spec = _flat_spectrum(-60.0)
        db = spec.magnitude_db.copy()
        db[128] = -52.0
        spec = ana.AveragedSpectrum(db, 8000, 16)
        hits = ana.detect_tonal_peaks(spec, [2000.0], threshold_db=6.0)
        assert len(hits) == 1
        assert hits[0].freq_hz == 2000.0
        assert hits[0].prominence_db == pytest.approx(8.0, abs=1e-12)
        assert ana.detect_tonal_peaks(spec, [2000.0], threshold_db=10.0) == []

    def test_replica_lines_in_a_stretched_tone(self):
        stretched = apply(UpsamplerSpec(kind="stretch", factor=4), tone(1 << 14, 8000, 1000.0))
        spec = ana.avg_spectrum(stretched, window_size=512)
        for freq in (1000.0, 7000.0, 9000.0, 15000.0):
            assert ana.tonal_prominence(spec, freq) > 40.0


class TestBandAttenuation:
    def test_flat_spectrum_shows_no_attenuation(self):
        bands = ana.band_attenuation(_flat_spectrum(-10.0, bins=257, fs=32000), 8000, 4)
        np.testing.assert_allclose(bands, np.zeros(4), atol=1e-12)

    def test_known_band_profile(self):
        freqs = np.linspace(0.0, 16000.0, 257)
        db = np.zeros(257)
        db[freqs >= 4000.0] = -12.0
        db[freqs >= 8000.0] = -24.0
        db[freqs >= 12000.0] = -36.0
        spec = ana.AveragedSpectrum(db, 32000, 16)
        bands = ana.band_attenuation(spec, 8000, 4)
        assert bands[0] == pytest.approx(0.0, abs=0.2)
        np.testing.assert_allclose(np.diff(bands), [-12.0, -12.0, -12.0], atol=0.5)

    def test_span_validation(self):
        with pytest.raises(ValueError, match="spans"):
            ana.band_attenuation(_flat_spectrum(0.0, fs=8000), 8000, 4)

    def test_bands_narrower_than_a_bin_are_refused(self):
        spec = ana.avg_spectrum(white_noise(1 << 14, 8000, seed=1), window_size=512)
        with pytest.raises(ValueError, match=r"^bands of fs_in/2 = 0\.5 Hz are narrower than one rFFT bin \(15\.625 Hz\)$"):
            ana.band_attenuation(spec, 1, 8000)
        assert ana.band_attenuation(spec, 32, 250).shape == (250,)  # 16 Hz bands each hold a bin


class TestIntegerParameters:
    """Rates, sizes and factors follow UpsamplerSpec's rule: 8000.0 and numpy integers pass, and a
    non-integral value is refused with one line that names it, not truncated."""

    @pytest.mark.parametrize("call, name, value", [
        (lambda: Signal(np.zeros(8), 8000.7), "sample_rate_hz", 8000.7),
        (lambda: ana.spectrogram(white_noise(4096, 8000, seed=1), 512.9, 128.5), "window_size", 512.9),
        (lambda: ana.spectrogram(white_noise(4096, 8000, seed=1), 512, 128.5), "hop", 128.5),
        (lambda: ana.avg_spectrum(white_noise(1 << 14, 8000, seed=1), 512.5), "window_size", 512.5),
        (lambda: ana.analytic_response(np.ones(4), 512.5, 32000), "window_size", 512.5),
        (lambda: ana.replica_frequencies(8000, 4.5), "factor", 4.5),
        (lambda: ana.replica_frequencies(8000, 1.5), "factor", 1.5),
        (lambda: ana.band_attenuation(_flat_spectrum(-10.0, fs=32000), 8000, 4.5), "factor", 4.5),
        (lambda: ana.band_attenuation(_flat_spectrum(-10.0, fs=32000), 0, 4.5), "factor", 4.5),
        (lambda: ana.replica_frequencies(8000.5, 4), "fs_in", 8000.5),
        (lambda: ana.band_attenuation(_flat_spectrum(-10.0, fs=32000), 8000.5, 4), "fs_in", 8000.5),
        (lambda: ana.measure_response(UpsamplerSpec(kind="stretch", factor=2), 8000.5), "fs_in", 8000.5),
        (lambda: ana.measure_response(UpsamplerSpec(kind="stretch", factor=2), 8000, realizations=1.5),
         "realizations", 1.5),
        (lambda: ana.measure_response(UpsamplerSpec(kind="stretch", factor=2), 8000, n=4096.5), "n", 4096.5),
        (lambda: ana.measure_response(UpsamplerSpec(kind="stretch", factor=2), 8000, window_size=512.5),
         "window_size", 512.5),
    ], ids=["Signal", "spectrogram-window", "spectrogram-hop", "avg_spectrum", "analytic_response",
            "replica_frequencies", "replica_frequencies-below-2", "band_attenuation", "band_attenuation-factor-first",
            "replica_frequencies-fs_in", "band_attenuation-fs_in", "measure_response-fs_in",
            "measure_response-realizations", "measure_response-n", "measure_response-window_size"])
    def test_a_non_integral_value_is_refused_not_truncated(self, call, name, value):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"{name} must be an integer, got {value!r}"

    def test_integral_floats_and_numpy_integers_are_taken_as_ints(self):
        for rate in (8000.0, np.int64(8000)):
            x = Signal(np.zeros(8), rate)
            assert type(x.sample_rate_hz) is int and x.sample_rate_hz == 8000
        x = white_noise(4096, 8000, seed=1)
        np.testing.assert_array_equal(ana.spectrogram(x, 512.0, np.int64(128)).magnitudes_db,
                                      ana.spectrogram(x, 512, 128).magnitudes_db)
        np.testing.assert_array_equal(ana.avg_spectrum(x, np.int64(256)).magnitude_db,
                                      ana.avg_spectrum(x, 256).magnitude_db)
        np.testing.assert_array_equal(ana.analytic_response(np.ones(4), 512.0, 32000).magnitude_db,
                                      ana.analytic_response(np.ones(4), 512, 32000).magnitude_db)
        assert ana.replica_frequencies(8000, 4.0) == ana.replica_frequencies(8000, np.int64(4)) == [8000.0, 16000.0]
        spectrum = _flat_spectrum(-10.0, fs=32000)
        np.testing.assert_array_equal(ana.band_attenuation(spectrum, 8000, 4.0), ana.band_attenuation(spectrum, 8000, 4))

    @pytest.mark.parametrize("rate, message", [(0, "sample rate must be positive, got 0"),
                                               (-8000, "sample rate must be positive, got -8000"),
                                               (8000.5, "sample_rate_hz must be an integer, got 8000.5")],
                             ids=["0", "-8000", "8000.5"])
    @pytest.mark.parametrize("make", [
        lambda rate: Signal(np.zeros(8), rate),
        lambda rate: sig.Blocks(1, 8, rate, lambda out, cols: None),
        lambda rate: ana.Spectrogram(np.zeros((3, 5)), rate, 8, 4, "hann"),
        lambda rate: ana.AveragedSpectrum(np.zeros(5), rate, 16),
        lambda rate: ana.FrequencyResponse(np.zeros(5), rate),
    ], ids=["Signal", "Blocks", "Spectrogram", "AveragedSpectrum", "FrequencyResponse"])
    def test_every_type_that_carries_a_rate_follows_signals_rule(self, make, rate, message):
        with pytest.raises(ValueError) as info:
            make(rate)
        assert str(info.value) == message

    def test_a_rate_of_zero_is_still_refused_as_not_positive(self):
        with pytest.raises(ValueError, match="^sample rate must be positive, got 0.0$"):
            Signal(np.zeros(8), 0.0)

    @pytest.mark.parametrize("fs_in", [0, -8000, 0.0])
    def test_a_non_positive_input_rate_is_refused(self, fs_in):
        spectrum = _flat_spectrum(-10.0, fs=32000)
        for call in (lambda: ana.replica_frequencies(fs_in, 4), lambda: ana.band_attenuation(spectrum, fs_in, 4),
                     lambda: ana.measure_response(UpsamplerSpec(kind="stretch", factor=2), fs_in)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"input rate must be positive, got {int(fs_in)}"

    def test_measure_response_takes_integral_floats_and_numpy_integers(self):
        spec = UpsamplerSpec(kind="stretch", factor=2)
        want = ana.measure_response(spec, 8000, realizations=1, n=4096, window_size=512)
        got = ana.measure_response(spec, 8000.0, realizations=np.int64(1), n=4096.0, window_size=512.0)
        assert got.sample_rate_hz == want.sample_rate_hz == 16000 and type(got.sample_rate_hz) is int
        np.testing.assert_array_equal(got.freqs_hz, want.freqs_hz)
        np.testing.assert_array_equal(got.magnitude_db, want.magnitude_db)


class TestArtifactReport:
    def test_stretched_ones_read_as_tonal(self):
        spec = ana.avg_spectrum(apply(UpsamplerSpec(kind="stretch", factor=4), ones(1 << 15, 8000)))
        report = ana.artifact_report(spec, 8000, 4)
        assert report.tonal_detected
        assert [p.freq_hz for p in report.tonal_peaks] == [8000.0, 16000.0]
        assert all(p.prominence_db > 40.0 for p in report.tonal_peaks)
        assert list(report.predicted_replicas_hz) == [8000.0, 16000.0]

    def test_sinc_noise_reads_as_filtered(self):
        interpolated = apply(UpsamplerSpec(kind="sinc", factor=4), white_noise(1 << 15, 8000, 11))
        spec = ana.avg_spectrum(interpolated)
        report = ana.artifact_report(spec, 8000, 4)
        assert report.filtering_detected
        assert not report.tonal_detected
        assert report.band_attenuation_db[-1] < -30.0

    @pytest.mark.parametrize("fs_in,factor", [(8000, 2), (8000, 8), (4000, 4)])
    def test_rate_inconsistent_arguments_rejected(self, fs_in, factor):
        spec = ana.avg_spectrum(apply(UpsamplerSpec(kind="stretch", factor=4), ones(1 << 15, 8000)))
        with pytest.raises(ValueError, match="spectrum rate 32000 Hz is not fs_in"):
            ana.artifact_report(spec, fs_in, factor)


def _branch_sums(spec):
    """Sum of each of the M polyphase branches, built from the layer's filters."""
    m = spec.factor
    if spec.kind == "stretch":
        return np.eye(m)[0]
    w = random_filters(spec)
    if spec.kind == "transposed":
        return np.array([w[0, 0, j::m].sum() for j in range(m)])
    return w[:, 0, :].sum(axis=1)


class TestTonalLevelsClosedForm:
    # A constant input leaves the M-periodic sequence of branch sums s_j, whose
    # line at k*fs_in has amplitude |DFT_k(s)| / M.
    @pytest.mark.parametrize(
        "spec",
        [
            UpsamplerSpec(kind="stretch", factor=4),
            UpsamplerSpec(kind="transposed", factor=4, filter_length=9, stride=4, seed=101),
            UpsamplerSpec(kind="subpixel", factor=4, filter_length=9, seed=201),
        ],
        ids=["stretch", "transposed-L9-seed101", "subpixel-L9-seed201"],
    )
    def test_line_levels_match_branch_sums(self, spec):
        spectrum = ana.avg_spectrum(apply(spec, ones(1 << 15, 8000)))
        predicted = 20.0 * np.log10(np.abs(np.fft.fft(_branch_sums(spec))[1:3]) / spec.factor)
        bins = [int(np.argmin(np.abs(spectrum.freqs_hz - k * 8000.0))) for k in (1, 2)]
        measured = spectrum.magnitude_db[bins]
        print(f"{spec.kind}: measured {np.round(measured, 3)} dB, predicted {np.round(predicted, 3)} dB")
        np.testing.assert_allclose(measured, predicted, atol=0.01)


class TestMeasureResponse:
    def test_doubling_hold_matches_the_closed_form(self):
        spec = UpsamplerSpec(kind="nearest", factor=2)
        resp = ana.measure_response(spec, 8000)
        k = np.arange(resp.freqs_hz.size)
        with np.errstate(divide="ignore"):
            expected = 20.0 * np.log10(np.abs(np.cos(np.pi * k / 512.0)))
        keep = ana.null_exclusion_mask(resp.magnitude_db)
        assert np.max(np.abs(resp.magnitude_db[keep] - expected[keep])) < 1.0

    def test_measurement_is_deterministic(self):
        spec = UpsamplerSpec(kind="linear", factor=2, seed=4)
        a = ana.measure_response(spec, 8000, realizations=4, n=1 << 14)
        b = ana.measure_response(spec, 8000, realizations=4, n=1 << 14)
        np.testing.assert_array_equal(a.magnitude_db, b.magnitude_db)

    def test_dc_is_the_reference(self):
        resp = ana.measure_response(UpsamplerSpec(kind="stretch", factor=4), 8000, realizations=2)
        assert resp.magnitude_db[0] == 0.0

    def test_two_level_wavelet_drive_matches_numpy(self):
        # Factor 4 drives two cascade levels: the coarse band and the first
        # detail band at fs_in, the second detail band at 2 * fs_in.
        spec = UpsamplerSpec(kind="wavelet-lifting", factor=4, seed=9, lifting=LiftingParams(0.4, 0.3, 1.2))
        n, fs, realizations = 1 << 13, 8000, 3
        resp = ana.measure_response(spec, fs, realizations=realizations, n=n)
        w = np.hanning(512)
        acc, total = None, 0
        for r in range(realizations):
            s = spec.seed + 1_000_000 + r
            bands = [white_noise(n, fs, s + 100_000), white_noise(2 * n, 2 * fs, s + 200_000)]
            out = cascade_synthesis(white_noise(n, fs, s), bands, "lifting", spec.lifting)
            trimmed = out.data.mean(axis=0)[2048:-2048]
            frames = np.stack([trimmed[i : i + 512] for i in range(0, trimmed.size - 512 + 1, 256)])
            power = (np.abs(np.fft.rfft(frames * w, axis=1)) ** 2).sum(axis=0)
            acc = power if acc is None else acc + power
            total += frames.shape[0]
        db = 10.0 * np.log10(np.maximum(acc / total, 1e-30))
        assert resp.sample_rate_hz == 4 * fs
        assert np.array_equal(resp.freqs_hz, np.linspace(0.0, 2.0 * fs, 257))
        assert np.array_equal(resp.magnitude_db, db - db[0])

    @pytest.mark.parametrize("block_bytes", [1 << 22, 64 << 10], ids=["default", "64KiB"])
    @pytest.mark.parametrize("spec", [UpsamplerSpec(kind="sinc", factor=4, seed=5),
                                      UpsamplerSpec(kind="transposed", factor=4, filter_length=9, stride=4, seed=6)],
                             ids=["sinc", "transposed"])
    def test_a_streamed_layer_measures_as_its_whole_output(self, monkeypatch, workers, spec, block_bytes):
        # The layer's blocks go straight to the STFT and the edges are trimmed by a column offset; the
        # numbers are those of the whole output, trimmed by a copy, bit for bit.
        monkeypatch.setattr(sig, "BLOCK_BYTES", block_bytes)
        workers(1)
        n, fs, realizations = 1 << 13, 8000, 2
        resp = ana.measure_response(spec, fs, realizations=realizations, n=n)
        w = np.hanning(512)
        acc, total = None, 0
        for r in range(realizations):
            trimmed = apply(spec, white_noise(n, fs, spec.seed + 1_000_000 + r)).data[0, 2048:-2048]
            frames = np.stack([trimmed[i : i + 512] for i in range(0, trimmed.size - 512 + 1, 256)])
            power = (np.abs(np.fft.rfft(frames * w, axis=1)) ** 2).sum(axis=0)
            acc = power if acc is None else acc + power
            total += frames.shape[0]
        db = 10.0 * np.log10(np.maximum(acc / total, 1e-30))
        assert np.array_equal(resp.magnitude_db, db - db[0])

    def test_window_size_must_be_a_power_of_two(self):
        with pytest.raises(ValueError, match="power of two, got 500"):
            ana.measure_response(UpsamplerSpec(kind="stretch", factor=2), 8000, realizations=1, window_size=500)

    def test_short_signals_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            ana.measure_response(UpsamplerSpec(kind="stretch", factor=2), 8000, n=1024)

    @pytest.mark.parametrize("realizations", [0, -1])
    def test_realizations_must_be_positive(self, realizations):
        with pytest.raises(ValueError, match=f"need at least one realization, got {realizations}"):
            ana.measure_response(UpsamplerSpec(kind="stretch", factor=2), 8000, realizations)

    def test_analytic_response_refuses_an_odd_window(self):
        # 511 points give 256 bins, whose last np.fft.rfftfreq puts at 15968.7 Hz, not at Nyquist.
        with pytest.raises(ValueError, match="^window size must be even, got 511$"):
            ana.analytic_response(np.ones(4), 511, 32000)

    def test_analytic_response_of_a_two_tap_hold(self):
        resp = ana.analytic_response(np.array([1.0, 1.0]), 512, 16000.0)
        k = np.arange(resp.freqs_hz.size)
        expected = 20.0 * np.log10(np.maximum(np.abs(np.cos(np.pi * k / 512.0)), 1e-12))
        # The Nyquist bin is a true null and bottoms out at the numeric
        # floor; compare the rest exactly and only bound the null.
        measurable = expected > -200.0
        np.testing.assert_allclose(
            resp.magnitude_db[measurable], expected[measurable], atol=1e-9
        )
        assert resp.magnitude_db[-1] < -200.0


class TestNullExclusion:
    def test_notches_deep_bins_and_endpoints_are_cleared(self):
        db = np.zeros(257)
        db[99:102] = [-50.0, -90.0, -50.0]
        db[40] = -71.0
        db[41] = -72.0
        db[255] = -10.0
        db[256] = -30.0
        keep = ana.null_exclusion_mask(db)
        assert not keep[98:103].any()
        assert not keep[38:44].any()
        assert not keep[254:257].any()
        assert keep[0] and keep[50] and keep[97] and keep[103] and keep[253]

    def test_flat_response_keeps_everything(self):
        assert ana.null_exclusion_mask(np.zeros(64)).all()


class TestFrequencyResponseType:
    def test_dc_normalization_enforced(self):
        with pytest.raises(ValueError, match="0 dB at DC"):
            ana.FrequencyResponse(np.full(257, -3.0), 8000)


class TestPerfectReconstruction:
    @pytest.mark.parametrize(
        "base,levels,lifting",
        [
            ("haar", 1, None),
            ("lazy", 2, None),
            ("lifting", 2, LiftingParams(0.3, -0.2, 1.7)),
        ],
    )
    def test_error_is_numerical_noise(self, base, levels, lifting):
        x = white_noise(1024, 8000, 19)
        err = ana.perfect_reconstruction_error(base, levels, x, lifting=lifting)
        assert err < 1e-9

    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize(
        "base,lifting",
        [("haar", None), ("lazy", None), ("lifting", LiftingParams(0.3, -0.2, 1.7)),
         ("lifting", LiftingParams(-1.9, 1.4, -0.15))],
    )
    def test_a_stacked_signal_errs_by_the_max_of_its_rows(self, base, levels, lifting):
        # verify's pr suite relies on this when it checks 50 signals as the
        # rows of one Signal: every wavelet step is elementwise within a row
        rows = 2.0 * np.random.Generator(np.random.Philox(31)).random((50, 1024)) - 1.0
        each = [ana.perfect_reconstruction_error(base, levels, Signal(row, 8000), lifting) for row in rows]
        assert ana.perfect_reconstruction_error(base, levels, Signal(rows, 8000), lifting) == max(each)
