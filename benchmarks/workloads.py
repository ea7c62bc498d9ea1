"""Workload definitions: seeded inputs, the CLI commands each pass runs, and
the invariants every command's output must satisfy.

Every input is a pure function of the benchmark seed. Inputs are written to
WAV during set-up, so the program under test only ever sees files.
"""

from __future__ import annotations

import os

FS = 8000  # the paper's input rate
FACTOR = 4
FS_OUT = FS * FACTOR
STEREO_N = 5 * 60 * FS  # 5 min per channel
LONG_MONO_N = 10 * 60 * FS  # 10 min
SHORT_MONO_N = 1 * 60 * FS  # 1 min
DC_OFFSET = 0.25
STFT_SIZE = 512  # analyze defaults
HOP = 128
LIFTING_ARGS = ["--P", "0.5", "--U", "0.25", "--A", "1.2"]
# Samples `verify --suite all` hands to upsamplers.apply in one pass. The
# command takes no input file, so throughput on verify-all is this fixed
# volume over the wall time; the traced run recounts it and reports a
# mismatch.
VERIFY_APPLY_SAMPLES = 11_681_792

WORKLOADS = ("upsample-long", "analyze-long", "verify-all")

# upsample-long: one command per layer kind, plus one wavelet round trip.
UPSAMPLE_LAYERS = (
    ["--layer", "stretch"],
    ["--layer", "nearest"],
    ["--layer", "linear"],
    ["--layer", "sinc"],
    ["--layer", "transposed", "--length", "9", "--stride", "4"],
    ["--layer", "subpixel", "--length", "9"],
    ["--layer", "wavelet-lazy"],
    ["--layer", "wavelet-haar"],
    ["--layer", "wavelet-lifting", *LIFTING_ARGS],
    ["--layer", "wavelet-lifting", *LIFTING_ARGS, "--wavelet-mode", "roundtrip"],
)


def _frames(n: int) -> int:
    return (n - STFT_SIZE) // HOP + 1


def paths(work: str) -> dict:
    names = ("stereo", "long_sub", "stereo_sinc", "short_sinc", "out", "report", "pgm", "csv")
    ext = {"report": ".json", "pgm": ".pgm", "csv": ".csv"}
    return {k: os.path.join(work, k + ext.get(k, ".wav")) for k in names}


def commands(workload: str, seed: int, work: str) -> list:
    """The commands of one pass, each with its input volume and invariants."""
    p = paths(work)
    if workload == "upsample-long":
        cmds = []
        for layer in UPSAMPLE_LAYERS:
            roundtrip = "roundtrip" in layer
            if roundtrip:
                rate, length = FS, STEREO_N
            elif layer[1] == "transposed":
                rate, length = FS_OUT, (STEREO_N - 1) * 4 + 9  # current (K-1)*S+L contract
            else:
                rate, length = FS_OUT, FACTOR * STEREO_N
            argv = ["upsample", "--in", p["stereo"], "--out", p["out"], *layer,
                    "--factor", str(FACTOR), "--seed", str(seed)]
            cmds.append({
                "argv": argv,
                "in_samples": 2 * STEREO_N,
                "expect": {"rate": rate, "channels": 2, "length": length},
            })
        return cmds
    if workload == "analyze-long":
        cmds = []
        for src, channels, n, export in (  # cheapest first: it also serves as the warm-up
            ("short_sinc", 1, FACTOR * SHORT_MONO_N, "csv"),
            ("long_sub", 1, FACTOR * LONG_MONO_N, "pgm"),
            ("stereo_sinc", 2, FACTOR * STEREO_N, "pgm"),
        ):
            argv = ["analyze", "--in", p[src], "--report", p["report"], f"--{export}", p[export],
                    "--fs-in", str(FS), "--factor", str(FACTOR)]
            cmds.append({
                "argv": argv,
                "in_samples": channels * n,
                "expect": {
                    "sample_rate_hz": FS_OUT, "channels": channels, "num_samples": n,
                    "frames": _frames(n), "bins": STFT_SIZE // 2 + 1,
                    "replicas": [float(k * FS) for k in range(1, FACTOR // 2 + 1)],
                    export: p[export],
                },
            })
        return cmds
    if workload == "verify-all":
        return [{"argv": ["verify", "--suite", "all"], "in_samples": VERIFY_APPLY_SAMPLES,
                 "expect": {"checks": 29, "failures": 0}}]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def working_set_bytes(workload: str) -> int:
    """Largest float64 signal one command holds at once."""
    if workload == "upsample-long":
        return 8 * 2 * FACTOR * STEREO_N
    if workload == "analyze-long":
        return 8 * FACTOR * LONG_MONO_N
    return 8 * (1 << 17) * FACTOR  # verify: 131 k-sample noise at x4


def prepare(workload: str, seed: int, work: str) -> None:
    """Write the workload's input files; untimed set-up."""
    import numpy as np
    from upsample_audit import signals as sig
    from upsample_audit.upsamplers import UpsamplerSpec, apply

    p = paths(work)
    base = 1000 * seed  # generator seeds base+1 .. base+4, one per input signal

    def stereo():
        left = sig.white_noise(STEREO_N, FS, base + 1).data[0]
        right = sig.white_noise(STEREO_N, FS, base + 2).data[0]
        return sig.Signal(np.stack([left, right]), FS)

    if workload == "upsample-long":
        sig.write_wav(p["stereo"], stereo())
    elif workload == "analyze-long":
        noise = sig.white_noise(LONG_MONO_N, FS, base + 3)
        offset = sig.Signal(0.5 * noise.data + DC_OFFSET, FS)
        layer = UpsamplerSpec(kind="subpixel", factor=FACTOR, filter_length=9, seed=seed)
        sig.write_wav(p["long_sub"], apply(layer, offset))
        del noise, offset
        sinc = UpsamplerSpec(kind="sinc", factor=FACTOR)
        sig.write_wav(p["stereo_sinc"], apply(sinc, stereo()))
        sig.write_wav(p["short_sinc"], apply(sinc, sig.white_noise(SHORT_MONO_N, FS, base + 4)))
    elif workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
