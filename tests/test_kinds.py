"""Every layer kind in upsamplers.KINDS runs through apply and `upsample --layer`.

Each result keeps the README rate and length contract: M*K samples per
channel ((K-1)*S + L for transposed), the channel count, and rate M*fs.
"""

import numpy as np
import pytest

from upsample_audit import cli
from upsample_audit.signals import Signal, read_wav, white_noise, write_wav
from upsample_audit.upsamplers import KINDS, LiftingParams, UpsamplerSpec, apply

M, K, FS, LENGTH = 4, 37, 8000, 9

# The parameters each kind needs beyond its factor, as spec fields and as CLI flags.
NEEDS = {
    "transposed": ({"filter_length": LENGTH, "stride": M}, ["--length", LENGTH, "--stride", M]),
    "subpixel": ({"filter_length": LENGTH}, ["--length", LENGTH]),
    "wavelet-lifting": ({"lifting": LiftingParams(0.5, 0.25, 1.2)}, ["--P", 0.5, "--U", 0.25, "--A", 1.2]),
}


def _expected_samples(kind):
    return (K - 1) * M + LENGTH if kind == "transposed" else M * K


@pytest.fixture(scope="module")
def stereo():
    return Signal([white_noise(K, FS, 1).data[0], white_noise(K, FS, 2).data[0]], FS)


@pytest.mark.parametrize("kind", KINDS)
def test_apply_keeps_the_contract(kind, stereo):
    y = apply(UpsamplerSpec(kind=kind, factor=M, **NEEDS.get(kind, ({}, []))[0]), stereo)
    assert (y.channels, y.num_samples, y.sample_rate_hz) == (2, _expected_samples(kind), M * FS)


@pytest.mark.parametrize("kind", KINDS)
def test_upsample_layer_keeps_the_contract(kind, stereo, tmp_path, capsys):
    src, out = tmp_path / "in.wav", tmp_path / "out.wav"
    write_wav(src, stereo)
    flags = NEEDS.get(kind, ({}, []))[1]
    argv = ["upsample", "--in", src, "--out", out, "--layer", kind, "--factor", M, *flags]
    assert cli.main([str(arg) for arg in argv]) == 0
    y = read_wav(out)
    assert (y.channels, y.num_samples, y.sample_rate_hz) == (2, _expected_samples(kind), M * FS)
    assert f'"out_sample_rate_hz": {M * FS}' in capsys.readouterr().out


@pytest.mark.parametrize("kind", KINDS)
def test_negative_zero_comes_out_as_positive_zero(kind):
    # Every kind's FIR sums each output sample from +0.0, as np.convolve does.
    x = Signal(np.full((2, K), -0.0), FS)
    y = apply(UpsamplerSpec(kind=kind, factor=M, **NEEDS.get(kind, ({}, []))[0]), x)
    assert not np.signbit(y.data).any()


# Each optional layer flag, a value for it, the kinds that use it, and the
# refusal on any other kind.
STRAY = {
    "--length": (LENGTH, ("transposed", "subpixel"), "filter_length applies to transposed and subpixel layers only"),
    "--stride": (M, ("transposed",), "stride applies to transposed layers only"),
    "--taps": (33, ("sinc",), "sinc_taps applies to sinc layers only"),
    **{flag: (0.5, ("wavelet-lifting",), "--P, --U and --A apply to wavelet-lifting layers only")
       for flag in ("--P", "--U", "--A")},
}


@pytest.mark.parametrize(
    "kind, flag", [(kind, flag) for kind in KINDS for flag, (_, kinds, _) in STRAY.items() if kind not in kinds]
)
def test_a_flag_the_layer_does_not_use_is_refused(kind, flag, stereo, tmp_path, capsys):
    src, out = tmp_path / "in.wav", tmp_path / "out.wav"
    write_wav(src, stereo)
    value, _, message = STRAY[flag]
    argv = ["upsample", "--in", src, "--out", out, "--layer", kind, "--factor", M, *NEEDS.get(kind, ({}, []))[1],
            flag, value]
    assert cli.main([str(arg) for arg in argv]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}, not {kind}"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    *(["upsample", "--layer", kind, "--factor", M, *NEEDS.get(kind, ({}, []))[1]] for kind in KINDS),
    *(["generate", "--kind", kind, "--n", K, "--fs", FS, "--f0", 1000] for kind in ("noise", "ones", "tone")),
], ids=lambda argv: " ".join(map(str, argv[:3])))
def test_a_negative_seed_is_refused_by_name(argv, stereo, tmp_path, capsys):
    src, out = tmp_path / "in.wav", tmp_path / "out.wav"
    write_wav(src, stereo)
    paths = ["--in", src, "--out", out] if argv[0] == "upsample" else ["--out", out]
    assert cli.main([str(arg) for arg in [*argv, *paths, "--seed", -1]]) == 2
    flag = "--seed" if argv[0] == "generate" else "seed"
    assert capsys.readouterr().err.splitlines() == [f"error: {flag} must be non-negative, got -1"]
    assert not out.exists()
