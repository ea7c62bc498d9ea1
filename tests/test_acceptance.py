"""Acceptance gate: one test per layer-level claim, numbered 01 through 10.

Each test prints the measured quantities before asserting, so a failing
run still shows how far off the measurement landed. Thresholds match the
documented claims; loosening them here is never the fix for a regression.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from dense_reference import (
    FULL_OVERLAP,
    NO_OVERLAP,
    PARTIAL_OVERLAP,
    classify_overlap,
    periodic_shuffle,
    periodic_unshuffle,
)
from upsample_audit import analysis as ana
from upsample_audit.signals import Signal, ones, read_wav, tone, white_noise
from upsample_audit.upsamplers import (
    HAAR_PARAMS,
    LiftingParams,
    UpsamplerSpec,
    WaveletFilters,
    apply,
    cascade_analysis,
    cascade_synthesis,
    haar_analysis,
    lifting_analysis,
    lifting_param_grads,
    rectangular_filter,
    sinc_filter,
    triangular_filter,
)

FS_IN = 8000
SQRT2 = float(np.sqrt(2.0))


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _random_lifting(rng):
    return LiftingParams(
        p=float(rng.uniform(-2.0, 2.0)),
        u=float(rng.uniform(-2.0, 2.0)),
        a=float(rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])),
    )


def _prominences_on_ones(spec, n=1 << 15):
    out = apply(spec, ones(n, FS_IN))
    spectrum = ana.avg_spectrum(out)
    return [
        ana.tonal_prominence(spectrum, f)
        for f in ana.replica_frequencies(FS_IN, spec.factor)
    ]


def test_criterion_01_perfect_reconstruction():
    start = time.perf_counter()
    rng = _rng(20260801)
    configs = [("lazy", None), ("haar", None)]
    configs += [("lifting", _random_lifting(rng)) for _ in range(20)]
    signals = [white_noise(1024, FS_IN, seed) for seed in range(50)]
    worst = 0.0
    for base, lifting in configs:
        for levels in (1, 2):
            for x in signals:
                coarse, details = cascade_analysis(x, base, levels, lifting=lifting)
                y = cascade_synthesis(coarse, details, base, lifting=lifting)
                worst = max(worst, float(np.max(np.abs(y.data - x.data))))
    elapsed = time.perf_counter() - start
    print(f"[criterion 01] round-trip max abs error {worst:.3e} (< 1e-9), {elapsed:.2f} s (< 5 s)")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_02_lifting_haar_equivalence():
    x = white_noise(4096, FS_IN, 77)
    cl, dl = lifting_analysis(x, LiftingParams(1.0, 0.5, SQRT2))
    ch, dh = haar_analysis(x)
    coarse_dev = float(np.max(np.abs(cl.data - ch.data)))
    detail_dev = min(
        float(np.max(np.abs(dl.data - dh.data))),
        float(np.max(np.abs(dl.data + dh.data))),
    )
    print(f"[criterion 02] coarse deviation {coarse_dev:.3e}, detail deviation {detail_dev:.3e} (< 1e-12)")
    assert coarse_dev < 1e-12
    assert detail_dev < 1e-12


def test_criterion_03_haar_flatness():
    f = WaveletFilters.haar()
    omega = np.linspace(0.0, np.pi, 4096)
    grid = np.exp(-1j * np.outer(omega, np.arange(2)))
    total = np.abs(grid @ f.ls) ** 2 + np.abs(grid @ f.hs) ** 2
    grid_dev = float(np.max(np.abs(total - 2.0)))
    resp = ana.measure_response(UpsamplerSpec(kind="wavelet-haar", factor=2), FS_IN)
    flatness = float(np.max(np.abs(resp.magnitude_db)))
    print(f"[criterion 03] |Ls|^2+|Hs|^2 deviation {grid_dev:.3e} (< 1e-9), measured flatness {flatness:.3f} dB (<= 1)")
    assert grid_dev < 1e-9
    assert flatness <= 1.0


def test_criterion_04_stretch_flatness():
    spec = UpsamplerSpec(kind="stretch", factor=4)
    spectra = []
    for r in range(32):
        x = white_noise(1 << 17, FS_IN, 5000 + r)
        spectra.append(ana.avg_spectrum(apply(spec, x)))
    bands = ana.band_attenuation(ana.average_spectra(spectra), FS_IN, 4)
    spread = float(np.max(np.abs(bands)))
    print(f"[criterion 04] stretch band attenuation {np.round(bands, 4).tolist()} dB, max |dev| {spread:.3f} (<= 1)")
    assert spread <= 1.0


def test_criterion_05_interpolator_responses():
    filters = {
        "nearest": rectangular_filter(4),
        "linear": triangular_filter(4),
        "sinc": sinc_filter(4),
    }
    diffs = {}
    for kind, taps in filters.items():
        spec = UpsamplerSpec(kind=kind, factor=4, seed=7)
        measured = ana.measure_response(spec, FS_IN)
        analytic = ana.analytic_response(taps, 512, 4 * FS_IN)
        keep = ana.null_exclusion_mask(analytic.magnitude_db)
        diffs[kind] = float(
            np.max(np.abs(measured.magnitude_db[keep] - analytic.magnitude_db[keep]))
        )
    spectra = [
        ana.avg_spectrum(apply(UpsamplerSpec(kind="sinc", factor=4), white_noise(1 << 17, FS_IN, 9000 + r)))
        for r in range(8)
    ]
    measured_bands = ana.band_attenuation(ana.average_spectra(spectra), FS_IN, 4)
    analytic_sinc = ana.analytic_response(filters["sinc"], 512, 4 * FS_IN)
    band_idx = np.minimum((analytic_sinc.freqs_hz // (FS_IN / 2.0)).astype(int), 3)
    analytic_bands = [float(analytic_sinc.magnitude_db[band_idx == b].mean()) for b in range(4)]
    print(
        f"[criterion 05] measured-vs-analytic max diff (dB): "
        f"nearest {diffs['nearest']:.3f}, linear {diffs['linear']:.3f}, sinc {diffs['sinc']:.3f} (< 1); "
        f"sinc stopband measured {np.round(measured_bands[1:], 2).tolist()}, "
        f"analytic {np.round(analytic_bands[1:], 2).tolist()} dB (<= -30)"
    )
    for kind, diff in diffs.items():
        assert diff < 1.0, kind
    assert all(b <= -30.0 for b in measured_bands[1:])
    assert all(b <= -30.0 for b in analytic_bands[1:])


def test_criterion_06_offset_replica_tonal_artifacts():
    stretch_proms = _prominences_on_ones(UpsamplerSpec(kind="stretch", factor=4))
    smooth_proms = {
        kind: max(_prominences_on_ones(UpsamplerSpec(kind=kind, factor=4)))
        for kind in ("nearest", "linear", "sinc")
    }
    hits = {}
    for length in (4, 8, 9):
        count = 0
        for s in range(10):
            spec = UpsamplerSpec(
                kind="transposed", factor=4, filter_length=length, stride=4, seed=300 + s
            )
            if _prominences_on_ones(spec)[0] > 6.0:
                count += 1
        hits[f"transposed L={length}"] = count
    count = 0
    for s in range(10):
        spec = UpsamplerSpec(kind="subpixel", factor=4, filter_length=9, seed=400 + s)
        if _prominences_on_ones(spec)[0] > 6.0:
            count += 1
    hits["subpixel L=9"] = count
    print(
        f"[criterion 06] stretch prominence {np.round(stretch_proms, 2).tolist()} dB (>= 40); "
        f"interpolators max {max(smooth_proms.values()):.2f} dB (<= 6); "
        f"random-filter hits {hits} (>= 9/10)"
    )
    assert all(p >= 40.0 for p in stretch_proms)
    assert all(p <= 6.0 for p in smooth_proms.values())
    assert all(count >= 9 for count in hits.values())


def test_criterion_07_imaging_theorem():
    x = tone(8192, FS_IN, 1000.0)
    predicted_hz = (1000.0, 7000.0, 9000.0, 15000.0)
    spectrum = ana.avg_spectrum(apply(UpsamplerSpec(kind="stretch", factor=4), x))
    bin_hz = spectrum.freqs_hz[1] - spectrum.freqs_hz[0]
    offsets = []
    for f in predicted_hz:
        center = int(round(f / bin_hz))
        lo = max(center - 5, 0)
        window = spectrum.magnitude_db[lo : center + 6]
        offsets.append(abs(int(np.argmax(window)) + lo - center))
    sinc_spectrum = ana.avg_spectrum(apply(UpsamplerSpec(kind="sinc", factor=4), x))
    carrier = sinc_spectrum.magnitude_db[round(1000.0 / bin_hz)]
    suppression = []
    for f in predicted_hz[1:]:
        center = int(round(f / bin_hz))
        window = sinc_spectrum.magnitude_db[center - 2 : center + 3]
        suppression.append(float(window.max() - carrier))
    print(
        f"[criterion 07] stretch line offsets {offsets} bins (<= 1); "
        f"sinc image levels {np.round(suppression, 2).tolist()} dB rel carrier (<= -30)"
    )
    assert all(off <= 1 for off in offsets)
    assert all(s <= -30.0 for s in suppression)


def test_criterion_08_overlap_taxonomy():
    assert classify_overlap(4, 4) == NO_OVERLAP
    assert classify_overlap(8, 4) == FULL_OVERLAP
    assert classify_overlap(9, 4) == PARTIAL_OVERLAP
    mismatches = 0
    for length in range(1, 33):
        for stride in range(1, 33):
            if length == stride:
                expected = NO_OVERLAP
            elif length > stride and length % stride == 0:
                expected = FULL_OVERLAP
            else:
                expected = PARTIAL_OVERLAP
            mismatches += classify_overlap(length, stride) != expected
    print(f"[criterion 08] reference cases match; grid mismatches {mismatches}/1024 (= 0)")
    assert mismatches == 0


def test_criterion_09_gradient_check():
    rng = _rng(20260809)
    h = 1e-6
    worst = 0.0
    for case in range(100):
        x = white_noise(64, FS_IN, 60000 + case)
        params = _random_lifting(rng)
        grads = lifting_param_grads(x, params)

        def bands(p):
            coarse, detail = lifting_analysis(x, p)
            return coarse.data, detail.data

        for name, bump in (("p", (h, 0.0, 0.0)), ("u", (0.0, h, 0.0)), ("a", (0.0, 0.0, h))):
            hi = bands(LiftingParams(params.p + bump[0], params.u + bump[1], params.a + bump[2]))
            lo = bands(LiftingParams(params.p - bump[0], params.u - bump[1], params.a - bump[2]))
            fd_coarse = (hi[0] - lo[0]) / (2.0 * h)
            fd_detail = (hi[1] - lo[1]) / (2.0 * h)
            scale = max(float(np.max(np.abs(fd_coarse))), float(np.max(np.abs(fd_detail))), 1e-9)
            err_c = float(np.max(np.abs(getattr(grads, f"coarse_wrt_{name}") - fd_coarse)))
            err_d = float(np.max(np.abs(getattr(grads, f"detail_wrt_{name}") - fd_detail)))
            worst = max(worst, err_c / scale, err_d / scale)
    print(f"[criterion 09] max relative error vs central differences {worst:.3e} (< 1e-6, 100 cases)")
    assert worst < 1e-6


def test_criterion_10_determinism_and_round_trips(tmp_path):
    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "upsample_audit.cli", *map(str, args)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    # Repeating the exact generate/upsample/analyze commands must overwrite
    # every output with identical bytes.
    src = tmp_path / "src.wav"
    up = tmp_path / "up.wav"
    report = tmp_path / "report.json"
    csv = tmp_path / "spec.csv"
    blobs = []
    for _ in range(2):
        cli("generate", "--kind", "noise", "--n", 8192, "--fs", FS_IN, "--seed", 42, "--out", src)
        cli("upsample", "--in", src, "--out", up, "--layer", "transposed",
            "--length", 9, "--stride", 4, "--seed", 5)
        cli("analyze", "--in", up, "--report", report, "--csv", csv,
            "--fs-in", FS_IN, "--factor", 4)
        blobs.append((src.read_bytes(), up.read_bytes(), report.read_bytes(), csv.read_bytes()))
    identical = blobs[0] == blobs[1]

    # Shuffle/unshuffle identity on assorted shapes.
    shuffle_exact = True
    rng = _rng(20260810)
    for channels, steps, m in ((4, 32, 2), (8, 7, 8), (6, 10, 3), (2, 5, 1)):
        z = Signal(rng.random((channels, steps)), FS_IN)
        back = periodic_unshuffle(periodic_shuffle(z, m), m)
        shuffle_exact &= bool(np.array_equal(back.data, z.data))

    # float32 WAV round trip is bit-exact for float32-representable data.
    x = white_noise(2048, FS_IN, 3)
    exact = Signal(x.data.astype(np.float32).astype(np.float64), FS_IN)
    from upsample_audit.signals import write_wav

    wav_path = tmp_path / "exact.wav"
    write_wav(wav_path, exact, fmt="float32")
    wav_exact = bool(np.array_equal(read_wav(wav_path).data, exact.data))

    # CSV dB round trip against the in-process spectrogram.
    from upsample_audit.analysis import spectrogram

    view = spectrogram(read_wav(up))
    matrix = np.loadtxt(csv, delimiter=",")
    csv_err = float(np.max(np.abs(matrix - view.magnitudes_db)))

    print(
        f"[criterion 10] seeded reruns byte-identical: {identical}; "
        f"shuffle identity: {shuffle_exact}; float32 WAV bit-exact: {wav_exact}; "
        f"CSV round-trip error {csv_err:.2e} (< 1e-6)"
    )
    assert identical
    assert shuffle_exact
    assert wav_exact
    assert csv_err < 1e-6


def test_verify_suite_runs_clean_and_fast():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "upsample_audit.cli", "verify", "--suite", "all"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"[verify] {summary['checks']} checks, {summary['failures']} failures, {elapsed:.1f} s (< 60 s)")
    assert summary["passed"] is True
    assert elapsed < 60.0
