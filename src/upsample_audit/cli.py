"""Command-line surface: generate, upsample, analyze, verify.

Every command is deterministic given its flags; reports carry a
"schema": 1 marker, no timestamps, and stable key order, so repeated
runs are byte-identical. Exit codes: 0 success, 1 failed verify checks,
2 usage or validation errors, including outputs too large for a WAV file
and failed allocations.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import analysis as ana
from . import signals as sig
from .upsamplers import (
    KINDS,
    LiftingParams,
    UpsamplerSpec,
    WaveletFilters,
    apply,
    apply_blocks,
    largest_array,
    lifting_analysis,
    lifting_param_grads,
    wavelet_roundtrip_blocks,
)
from .upsamplers.config import layer_filter


def _json_line(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "))


def _round6(value):
    return round(float(value), 6)


def _require_finite(args, *flags) -> None:
    """Refuse a nan or inf float flag before it reaches a file or a report."""
    for flag in flags:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    _require_finite(args, "--f0", "--amplitude")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    sig.check_wav_size(args.n)
    sig.check_wav_rate(args.fs)
    if args.kind == "noise":
        signal = sig.white_noise(args.n, args.fs, args.seed)
    elif args.kind == "ones":
        signal = sig.ones(args.n, args.fs)
    else:
        if args.f0 is None:
            raise ValueError("tone generation requires --f0")
        signal = sig.tone(args.n, args.fs, args.f0, args.amplitude)
    sig.write_wav(args.out, signal, fmt="float32")
    print(_json_line({
        "schema": 1,
        "command": "generate",
        "kind": args.kind,
        "n": args.n,
        "fs": args.fs,
        "seed": args.seed,
        "f0": args.f0,
        "amplitude": _round6(args.amplitude),
        "out": args.out,
    }))
    return 0


# ---------------------------------------------------------------------------
# upsample


def _spec_from_args(args) -> UpsamplerSpec:
    _require_finite(args, "--P", "--U", "--A")
    triple = (args.P, args.U, args.A)
    lifting = None
    if args.layer == "wavelet-lifting":
        if None in triple:
            raise ValueError("wavelet-lifting requires --P, --U and --A")
        lifting = LiftingParams(*triple)
    elif triple != (None, None, None):
        raise ValueError(f"--P, --U and --A apply to wavelet-lifting layers only, not {args.layer}")
    factor = args.factor
    if factor is None:
        if args.layer == "transposed" and args.stride is not None:
            factor = args.stride
        else:
            raise ValueError("--factor is required")
    return UpsamplerSpec(
        kind=args.layer,
        factor=factor,
        filter_length=args.length,
        stride=args.stride,
        sinc_taps=args.taps,
        lifting=lifting,
        seed=args.seed,
    )


def _check_target(path: str, flag: str) -> None:
    """Refuse an existing path that is not a regular file, as signals.replacing does, naming the flag."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise ValueError(f"{flag} {path} is not a regular file")


def cmd_upsample(args) -> int:
    """Stream the input WAV file to the output one block of output columns at a time, so neither is whole.

    Each block reads only the input columns it needs from the file
    (signals.wav_blocks), refusing a non-finite one as it reads it, and
    signals.write_wav_blocks fills the block straight into the file's
    float32 frames and checks it as it writes it, into a file that
    replaces the target only once every block has passed. So a refusal
    found while writing leaves no file behind, and `--out` may name the
    input, which is read until the output replaces it.
    """
    spec = _spec_from_args(args)
    _check_target(args.out, "--out")
    source = sig.wav_blocks(getattr(args, "in"))
    if args.wavelet_mode == "roundtrip":
        blocks = wavelet_roundtrip_blocks(spec, source)
    else:
        sig.check_wav_size(largest_array(spec, source.channels, source.num_samples))
        sig.check_wav_rate(spec.factor * source.sample_rate_hz, 4 * source.channels)
        blocks = apply_blocks(spec, source)
    sig.write_wav_blocks(args.out, blocks)
    print(_json_line({
        "schema": 1,
        "command": "upsample",
        "in": getattr(args, "in"),
        "layer": spec.kind,
        "factor": spec.factor,
        "length": spec.filter_length,
        "stride": spec.stride,
        "taps": spec.sinc_taps,
        "P": None if spec.lifting is None else _round6(spec.lifting.p),
        "U": None if spec.lifting is None else _round6(spec.lifting.u),
        "A": None if spec.lifting is None else _round6(spec.lifting.a),
        "seed": spec.seed,
        "wavelet_mode": args.wavelet_mode,
        "out": args.out,
        "out_sample_rate_hz": blocks.sample_rate_hz,
    }))
    return 0


# ---------------------------------------------------------------------------
# analyze


def _ascii_words(text: str) -> np.ndarray:
    """Consecutive 4-character groups of an ASCII string as uint32 words."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint32)


# Four-byte pieces of "%.6f" text for |x| < 1000, so each value is three
# table words: sign and integer part right-aligned behind NUL padding
# (indexed by integer part + 1000 if negative), ".ddd", and "ddd" followed
# by the separator.
_CSV_WHOLE = _ascii_words("".join(f"{sign}{i}".rjust(4, "\0") for sign in ("", "-") for i in range(1000)))
_CSV_POINT = _ascii_words("".join(f".{i:03d}" for i in range(1000)))
_CSV_COMMA = _ascii_words("".join(f"{i:03d}," for i in range(1000)))
_CSV_NEWLINE = _ascii_words("".join(f"{i:03d}\n" for i in range(1000)))


def _csv_text(block: np.ndarray) -> np.ndarray:
    """The rows of `block` as "%.6f" text joined by "," and ended by "\n", as ASCII bytes.

    Each value is rounded to round(|x|·1e6) micro-units and written as three
    table words, whose NUL padding is then dropped. float64 holds every
    half-integer below 2^52, so the rounded product |x|·1e6 stays on the
    exact product's side of each rounding boundary unless it lands on one;
    there "%.6f" gives the digits. A block holding a value that may round
    to 1000 or more (|x| >= 999.999999, or not finite) is formatted by "%"
    throughout.
    """
    values = block.ravel()
    scaled = np.abs(values)
    if not scaled.max() < 999.999999:
        return np.frombuffer(
            "".join(",".join("%.6f" % v for v in row) + "\n" for row in block).encode("ascii"), dtype=np.uint8
        )
    scaled *= 1e6
    units = np.rint(scaled)
    ties = np.flatnonzero(np.abs(scaled - units) == 0.5)
    units = units.astype(np.int32)
    for i in ties:
        units[i] = int(("%.6f" % abs(values[i])).replace(".", ""))
    whole, frac = np.divmod(units, 1_000_000)
    np.add(whole, 1000, out=whole, where=np.signbit(values))
    high, low = np.divmod(frac, 1000)
    words = np.empty((values.size, 3), dtype=np.uint32)
    words[:, 0] = _CSV_WHOLE[whole]
    words[:, 1] = _CSV_POINT[high]
    words[:, 2] = _CSV_COMMA[low]
    words.reshape(len(block), -1, 3)[:, -1, 2] = _CSV_NEWLINE[low.reshape(len(block), -1)[:, -1]]
    text = words.view(np.uint8).reshape(-1)
    return text[text != 0]


def _gray_levels(db: np.ndarray) -> np.ndarray:
    """dB in [-80, 0] mapped to [0, 255] as uint8, scaled in place in db."""
    levels = np.clip(db, -80.0, 0.0, out=db)
    levels += 80.0
    levels /= 80.0
    levels *= 255.0
    return np.round(levels, out=levels).astype(np.uint8)


def _pgm_header(frames: int, bins: int) -> bytes:
    """The header of an 8-bit binary PGM of `frames` columns and `bins` rows."""
    return f"P5\n{frames} {bins}\n255\n".encode("ascii")


class _Exports:
    """The spectrogram exports, stored one block of frames at a time in frame order:
    `exports[rows] = exports.prepare(db)`.

    `prepare` is pure and may run on any thread: it formats the block's CSV
    text in slices of about BLOCK_BYTES/8 of temporaries (about 64 bytes
    per CSV value) and maps db to gray levels in place. The store writes the
    text to `csv`, an open binary file, and fills a band of about
    BLOCK_BYTES of image columns (bin 0 at the bottom row). `pgm` is an open
    binary file holding the PGM's header, sized for the whole image (see
    _pgm_header); a full band, and the last, goes to it one image row
    segment at a time, at offset header + row*frames + band start. So no
    more than a band of the bins x frames image is ever held.
    """

    def __init__(self, frames: int, bins: int, csv=None, pgm=None):
        self.frames = frames
        self.csv = csv
        self.pgm = pgm
        if pgm is not None:
            self.origin = pgm.tell()
            self.band = np.empty((bins, min(frames, max(1, sig.BLOCK_BYTES // bins))), dtype=np.uint8)
            self.start = 0  # the band's first frame

    def prepare(self, db: np.ndarray) -> tuple:
        """(the CSV text of each slice of db's rows, db's gray levels), each None if not exported."""
        text = None if self.csv is None else [
            _csv_text(db[part]) for part in sig.frame_blocks(len(db), 8 * 64 * db.shape[1])
        ]
        return text, None if self.pgm is None else _gray_levels(db)

    def __setitem__(self, rows: slice, made: tuple) -> None:
        text, levels = made
        for part in text or ():
            self.csv.write(part)
        done = 0
        while levels is not None and done < len(levels):
            at = rows.start + done - self.start
            n = min(len(levels) - done, self.band.shape[1] - at)
            self.band[::-1, at : at + n] = levels[done : done + n].T
            done += n
            if at + n == self.band.shape[1] or rows.start + done == self.frames:
                self._write_band(at + n)

    def _write_band(self, width: int) -> None:
        for row, segment in enumerate(self.band[:, :width]):
            self.pgm.seek(self.origin + row * self.frames + self.start)
            self.pgm.write(segment)
        self.start += width


def cmd_analyze(args) -> int:
    """Stream the input WAV file to the exports, so neither the signal, the spectrogram nor the image is ever whole.

    The report, the CSV and the PGM are each written through
    signals.replacing on one ExitStack and moved into place together once
    all three are written, so a refusal found during or after the pass
    (non-finite samples, cancelling channels, the report's checks, an
    output that cannot be written) leaves none of them behind. The CSV and
    the PGM are opened when the frame count is known, before the pass. Each
    frame block of the pass reads its own samples from the file.
    """
    if (args.fs_in is None) != (args.factor is None):
        raise ValueError("replica prediction requires both --fs-in and --factor")
    _require_finite(args, "--threshold-db")
    targets = {flag: target for flag, target in (("--csv", args.csv), ("--pgm", args.pgm), ("--report", args.report))
               if target}
    if len({os.path.realpath(target) for target in targets.values()}) < len(targets):
        raise ValueError("--report, --csv and --pgm must name different files")
    for flag, target in targets.items():  # before the input is read, as upsample checks --out
        _check_target(target, flag)
    path = getattr(args, "in")
    blocks = sig.wav_blocks(path)
    bins = args.stft_size // 2 + 1
    artifacts = None

    with contextlib.ExitStack() as outputs:

        def exports(frames):
            csv = outputs.enter_context(sig.replacing(args.csv)) if args.csv else None
            pgm = None
            if args.pgm:
                header = _pgm_header(frames, bins)
                pgm = outputs.enter_context(sig.replacing(args.pgm, len(header) + bins * frames))
                pgm.write(header)
            return _Exports(frames, bins, csv, pgm)

        spect, spectrum = ana._spectrogram_stream(
            blocks, args.stft_size, args.hop, args.window, exports, args.fs_in is not None
        )
        if spectrum is not None:
            report = ana.artifact_report(spectrum, args.fs_in, args.factor, threshold_db=args.threshold_db)
            artifacts = {
                "predicted_replicas_hz": [_round6(f) for f in report.predicted_replicas_hz],
                "tonal_peaks": [
                    {"freq_hz": _round6(p.freq_hz), "prominence_db": _round6(p.prominence_db)}
                    for p in report.tonal_peaks
                ],
                "band_attenuation_db": [_round6(b) for b in report.band_attenuation_db],
                "tonal_detected": bool(report.tonal_detected),
                "filtering_detected": bool(report.filtering_detected),
            }
        body = {
            "schema": 1,
            "command": "analyze",
            "config": {
                "in": path,
                "stft_size": args.stft_size,
                "hop": args.hop,
                "window": args.window,
                "fs_in": args.fs_in,
                "factor": args.factor,
                "threshold_db": _round6(args.threshold_db),
            },
            "input": {
                "sample_rate_hz": blocks.sample_rate_hz,
                "channels": blocks.channels,
                "num_samples": blocks.num_samples,
            },
            "spectrogram": {
                "frames": spect.frames,
                "bins": bins,
                "csv": args.csv,
                "pgm": args.pgm,
            },
            "artifacts": artifacts,
        }
        report_file = outputs.enter_context(sig.replacing(args.report))
        report_file.write((json.dumps(body, indent=2) + "\n").encode("utf-8"))
    print(_json_line({"schema": 1, "command": "analyze", "report": args.report}))
    return 0


# ---------------------------------------------------------------------------
# verify

_FS_IN = 8000
_FACTOR = 4


class _Suite:
    def __init__(self, name: str):
        self.name = name
        self.failures = 0
        self.checks = 0

    def check(self, name: str, value: float, threshold: float, ok: bool, relation: str):
        self.checks += 1
        verdict = "PASS" if ok else "FAIL"
        if not ok:
            self.failures += 1
        print(f"[{self.name}] {name}: value={value:.6g} {relation} {threshold:g} {verdict}")

    def below(self, name: str, value: float, threshold: float):
        self.check(name, value, threshold, value < threshold, "<")

    def at_most(self, name: str, value: float, threshold: float):
        self.check(name, value, threshold, value <= threshold, "<=")

    def at_least(self, name: str, value: float, threshold: float):
        self.check(name, value, threshold, value >= threshold, ">=")


def _pr_suite(suite: _Suite) -> None:
    rng = sig._rng(424242)
    signals = [sig.Signal(2.0 * rng.random(1024) - 1.0, _FS_IN) for _ in range(50)]
    triples = []
    while len(triples) < 20:
        p, u = rng.uniform(-2, 2, size=2)
        a = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
        triples.append(LiftingParams(p, u, a))

    for base, lifting, label in (
        ("haar", None, "haar"),
        ("lazy", None, "lazy"),
    ):
        for levels in (1, 2):
            worst = max(
                ana.perfect_reconstruction_error(base, levels, x, lifting) for x in signals
            )
            suite.below(f"{label} levels={levels} round trip", worst, 1e-9)
    for levels in (1, 2):
        worst = max(
            ana.perfect_reconstruction_error("lifting", levels, x, params)
            for params in triples
            for x in signals
        )
        suite.below(f"lifting 20 random triples levels={levels} round trip", worst, 1e-9)
    odd = sig.Signal(2.0 * rng.random(1023) - 1.0, _FS_IN)
    suite.below(
        "haar odd-length pad round trip",
        ana.perfect_reconstruction_error("haar", 1, odd),
        1e-9,
    )


def _masked_response_diff(spec: UpsamplerSpec) -> float:
    _, taps, *_ = next(layer_filter(spec, 1))
    measured = ana.measure_response(spec, _FS_IN)
    reference = ana.analytic_response(taps, 512, spec.factor * _FS_IN)
    keep = ana.null_exclusion_mask(reference.magnitude_db)
    return float(np.max(np.abs(measured.magnitude_db[keep] - reference.magnitude_db[keep])))


def _response_suite(suite: _Suite) -> None:
    filters = WaveletFilters.haar()
    omega = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    grid = np.exp(-1j * np.outer(omega, np.arange(2)))
    ls = np.abs(grid @ filters.ls) ** 2
    hs = np.abs(grid @ filters.hs) ** 2
    suite.below("haar |Ls|^2+|Hs|^2 = 2 on 4096-point grid", float(np.max(np.abs(ls + hs - 2.0))), 1e-9)

    haar_spec = UpsamplerSpec(kind="wavelet-haar", factor=2, seed=11)
    flat = ana.measure_response(haar_spec, _FS_IN)
    suite.at_most("haar synthesis path flatness", float(np.max(np.abs(flat.magnitude_db))), 1.0)

    stretch_spec = UpsamplerSpec(kind="stretch", factor=_FACTOR, seed=12)
    flat = ana.measure_response(stretch_spec, _FS_IN)
    suite.at_most("stretch response flatness", float(np.max(np.abs(flat.magnitude_db))), 1.0)

    spectra = [
        ana.avg_spectrum(apply(stretch_spec, sig.white_noise(1 << 17, _FS_IN, 500 + r)))
        for r in range(32)
    ]
    bands = ana.band_attenuation(ana.average_spectra(spectra), _FS_IN, _FACTOR)
    suite.at_most("stretch band attenuation spread", float(np.max(np.abs(bands))), 1.0)

    suite.at_most(
        "nearest x4 vs analytic rectangular response",
        _masked_response_diff(UpsamplerSpec(kind="nearest", factor=4, seed=13)),
        1.0,
    )
    suite.at_most(
        "linear x4 vs analytic triangular response",
        _masked_response_diff(UpsamplerSpec(kind="linear", factor=4, seed=14)),
        1.0,
    )
    suite.at_most(
        "sinc x4 vs analytic windowed-sinc response",
        _masked_response_diff(UpsamplerSpec(kind="sinc", factor=4, seed=15)),
        1.0,
    )
    suite.at_most(
        "nearest x2 vs analytic two-tap response",
        _masked_response_diff(UpsamplerSpec(kind="nearest", factor=2, seed=16)),
        1.0,
    )

    noise_specs = {}
    for kind in ("nearest", "linear", "sinc"):
        layer = UpsamplerSpec(kind=kind, factor=_FACTOR, seed=17)
        spectra = [
            ana.avg_spectrum(apply(layer, sig.white_noise(1 << 15, _FS_IN, 600 + r)))
            for r in range(8)
        ]
        noise_specs[kind] = ana.band_attenuation(ana.average_spectra(spectra), _FS_IN, _FACTOR)
    suite.at_least("sinc stopband attenuation (bands 1-3)", float(-np.max(noise_specs["sinc"][1:])), 30.0)
    suite.below(
        "linear band 3 below nearest band 3",
        float(noise_specs["linear"][3] - noise_specs["nearest"][3]),
        0.0,
    )


def _tonal_hits(base: sig.Signal, first_seed: int, **layer) -> int:
    """How many of 10 seeded x4 layers put the 8 kHz line over 6 dB above its background."""
    hits = 0
    for seed in range(first_seed, first_seed + 10):
        spectrum = ana.avg_spectrum(apply(UpsamplerSpec(factor=4, seed=seed, **layer), base))
        hits += ana.tonal_prominence(spectrum, 8000.0) > 6.0
    return hits


def _tonal_suite(suite: _Suite) -> None:
    base = sig.ones(1 << 15, _FS_IN)
    replicas = ana.replica_frequencies(_FS_IN, _FACTOR)

    stretched = apply(UpsamplerSpec(kind="stretch", factor=_FACTOR), base)
    spectrum = ana.avg_spectrum(stretched)
    for freq in replicas:
        suite.at_least(
            f"stretch on ones prominence at {freq:.0f} Hz",
            ana.tonal_prominence(spectrum, freq),
            40.0,
        )

    for kind in ("nearest", "linear", "sinc"):
        out = apply(UpsamplerSpec(kind=kind, factor=_FACTOR), base)
        spectrum = ana.avg_spectrum(out)
        worst = max(ana.tonal_prominence(spectrum, f) for f in replicas)
        suite.at_most(f"{kind} on ones max prominence", worst, 6.0)

    for length in (4, 8, 9):
        hits = _tonal_hits(base, 100, kind="transposed", filter_length=length, stride=4)
        suite.at_least(f"transposed L={length} S=4 tonal hits over 10 seeds", hits, 9)
    hits = _tonal_hits(base, 200, kind="subpixel", filter_length=9)
    suite.at_least("subpixel L=9 tonal hits over 10 seeds", hits, 9)

    tone_in = sig.tone(8192, _FS_IN, 1000.0)
    expected_hz = (1000.0, 7000.0, 9000.0, 15000.0)
    spectrum = ana.avg_spectrum(apply(UpsamplerSpec(kind="stretch", factor=_FACTOR), tone_in))
    worst_offset = 0
    for freq in expected_hz:
        center = spectrum.bin_of(freq)
        lo = max(0, center - 5)
        local = int(np.argmax(spectrum.magnitude_db[lo : center + 6])) + lo
        worst_offset = max(worst_offset, abs(local - center))
    suite.at_most("stretch imaging line placement (bins off prediction)", worst_offset, 1)

    spectrum = ana.avg_spectrum(apply(UpsamplerSpec(kind="sinc", factor=_FACTOR), tone_in))
    carrier = spectrum.magnitude_db[spectrum.bin_of(1000.0)]
    worst_image = -np.inf
    for freq in expected_hz[1:]:
        center = spectrum.bin_of(freq)
        level = float(np.max(spectrum.magnitude_db[center - 2 : center + 3]))
        worst_image = max(worst_image, level - carrier)
    suite.at_most("sinc image suppression relative to carrier", worst_image, -30.0)


def _grads_suite(suite: _Suite) -> None:
    rng = sig._rng(31337)
    h = 1e-6
    worst = 0.0
    for _case in range(100):
        x = sig.Signal(2.0 * rng.random(64) - 1.0, _FS_IN)
        p, u = rng.uniform(-2, 2, size=2)
        a = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
        params = LiftingParams(p, u, a)
        grads = lifting_param_grads(x, params)
        analytic = {
            "p": (grads.coarse_wrt_p, grads.detail_wrt_p),
            "u": (grads.coarse_wrt_u, grads.detail_wrt_u),
            "a": (grads.coarse_wrt_a, grads.detail_wrt_a),
        }
        for name in ("p", "u", "a"):
            plus = dict(p=params.p, u=params.u, a=params.a)
            minus = dict(plus)
            plus[name] += h
            minus[name] -= h
            cp, dp = lifting_analysis(x, LiftingParams(**plus))
            cm, dm = lifting_analysis(x, LiftingParams(**minus))
            fd_coarse = (cp.data - cm.data) / (2 * h)
            fd_detail = (dp.data - dm.data) / (2 * h)
            for got, fd in zip(analytic[name], (fd_coarse, fd_detail)):
                scale = max(float(np.max(np.abs(fd))), 1e-9)
                worst = max(worst, float(np.max(np.abs(got - fd))) / scale)
    suite.below("lifting grads vs central differences (100 cases)", worst, 1e-6)


_SUITES = {
    "pr": _pr_suite,
    "response": _response_suite,
    "tonal": _tonal_suite,
    "grads": _grads_suite,
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    checks = 0
    for name in names:
        suite = _Suite(name)
        _SUITES[name](suite)
        failures += suite.failures
        checks += suite.checks
    print(_json_line({
        "schema": 1,
        "command": "verify",
        "suite": args.suite,
        "checks": checks,
        "failures": failures,
        "passed": failures == 0,
    }))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upsample-audit",
        description="Audio upsampling layers and artifact forensics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a deterministic test signal as float32 WAV")
    gen.add_argument("--kind", required=True, choices=("noise", "ones", "tone"))
    gen.add_argument("--n", required=True, type=int, help="sample count")
    gen.add_argument("--fs", required=True, type=int, help="sample rate in Hz")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--f0", type=float, default=None, help="tone frequency in Hz")
    gen.add_argument("--amplitude", type=float, default=1.0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    ups = sub.add_parser("upsample", help="apply an upsampling layer to a WAV file")
    ups.add_argument("--in", required=True, dest="in")
    ups.add_argument("--out", required=True)
    ups.add_argument("--layer", required=True, choices=KINDS)
    ups.add_argument("--factor", type=int, default=None)
    ups.add_argument("--length", type=int, default=None, help="filter length for transposed/subpixel")
    ups.add_argument("--stride", type=int, default=None, help="stride for transposed")
    ups.add_argument("--taps", type=int, default=None, help="tap count for sinc")
    ups.add_argument("--seed", type=int, default=0)
    ups.add_argument("--P", type=float, default=None)
    ups.add_argument("--U", type=float, default=None)
    ups.add_argument("--A", type=float, default=None)
    ups.add_argument(
        "--wavelet-mode",
        choices=("synthesis", "roundtrip"),
        default="synthesis",
        help="synthesis drives the upsampling path; roundtrip runs analysis then synthesis",
    )
    ups.set_defaults(func=cmd_upsample)

    anl = sub.add_parser("analyze", help="artifact report plus spectrogram export")
    anl.add_argument("--in", required=True, dest="in")
    anl.add_argument("--report", required=True, help="JSON report path")
    anl.add_argument("--csv", default=None, help="spectrogram CSV path (frames x bins, dB)")
    anl.add_argument("--pgm", default=None, help="spectrogram PGM path (P5, 8-bit)")
    anl.add_argument("--stft-size", type=int, default=512)
    anl.add_argument("--hop", type=int, default=128)
    anl.add_argument("--window", choices=("hann", "rect"), default="hann")
    anl.add_argument("--fs-in", type=int, default=None, help="source rate before upsampling")
    anl.add_argument("--factor", type=int, default=None, help="upsampling factor used")
    anl.add_argument("--threshold-db", type=float, default=6.0)
    anl.set_defaults(func=cmd_analyze)

    ver = sub.add_parser("verify", help="run invariant suites with fixed seeds")
    ver.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
