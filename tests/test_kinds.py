"""Every layer kind in upsamplers.KINDS runs through apply and `upsample --layer`.

Each result keeps the README rate and length contract: M*K samples per
channel ((K-1)*S + L for transposed), the channel count, and rate M*fs.
"""

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
