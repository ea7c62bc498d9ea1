"""upsample streams its output to the WAV file: refusals found while writing,
the temporary file beside the target, and symlinked and in-place targets. Its
memory bound is in test_handover.py."""

import dataclasses
import os
import warnings

import numpy as np
import pytest

from upsample_audit import cli
from upsample_audit import signals as sig
from upsample_audit.upsamplers import UpsamplerSpec, apply_blocks, wavelet_roundtrip_blocks

FLOAT32_OVERFLOW = 2.0**128 - 2.0**103  # float32's largest value plus half a step: rounds to inf


def _write(path, data, rate=8000):
    sig.write_wav(path, sig.Signal(data, rate))


def _upsample(src, out, *flags):
    return cli.main(["upsample", "--in", str(src), "--out", str(out), *map(str, flags)])


def _leftovers(directory, keep):
    return sorted(name for name in os.listdir(directory) if name not in keep)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--factor", 2], "error: a sample of magnitude 1e+300 is beyond float32's range"),
        (["--factor", 4], "error: signal samples must be finite"),
    ],
    ids=["float32-range", "finite"],
)
@pytest.mark.parametrize("existing", [False, True])
def test_refusals_found_while_writing_leave_no_file(tmp_path, monkeypatch, capsys, flags, message, existing):
    # Zeros but for the last input sample, in blocks of 4 stereo columns:
    # the refusal comes after the blocks before it were written.
    data = np.zeros((2, 64))
    data[:, -1] = 1.0
    src, out = tmp_path / "in.wav", tmp_path / "out.wav"
    _write(src, data)
    if existing:
        out.write_bytes(b"earlier contents")
    monkeypatch.setattr(sig, "BLOCK_BYTES", 64)
    filled = []
    apply_blocks = cli.apply_blocks

    def counted(*args):
        blocks = apply_blocks(*args)

        def fill(out, cols):
            filled.append(cols)
            return blocks.fill(out, cols)

        return dataclasses.replace(blocks, fill=fill)

    monkeypatch.setattr(cli, "apply_blocks", counted)
    code = _upsample(src, out, "--layer", "wavelet-lifting", "--P", 0, "--U", 0, "--A", 1e-300, *flags)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert filled[-1].start > 0  # the refused block came after one was written
    assert _leftovers(tmp_path, {"in.wav", "out.wav"}) == []
    if existing:
        assert out.read_bytes() == b"earlier contents"
    else:
        assert not out.exists()


def test_a_directory_as_out_is_refused_before_the_input_is_read(tmp_path, capsys):
    out = tmp_path / "adir"
    out.mkdir()
    code = _upsample(tmp_path / "missing.wav", out, "--layer", "stretch", "--factor", 2)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: --out {out} is not a regular file"]
    assert _leftovers(tmp_path, {"adir"}) == [] and os.listdir(out) == []


def test_an_unwritable_out_is_named_by_its_own_path(tmp_path, capsys):
    src, out = tmp_path / "in.wav", tmp_path / "no" / "out.wav"
    _write(src, np.zeros((1, 16)))
    assert _upsample(src, out, "--layer", "stretch", "--factor", 2) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: [Errno 2] No such file or directory: '{out}'"]


def test_a_symlinked_out_is_written_through_the_link(tmp_path, capsys):
    src, real, link = tmp_path / "in.wav", tmp_path / "real.wav", tmp_path / "link.wav"
    _write(src, np.linspace(-1.0, 1.0, 50))
    real.write_bytes(b"earlier contents")
    link.symlink_to(real)
    assert _upsample(src, link, "--layer", "linear", "--factor", 3) == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert _upsample(src, tmp_path / "plain.wav", "--layer", "linear", "--factor", 3) == 0
    assert real.read_bytes() == (tmp_path / "plain.wav").read_bytes()
    assert _leftovers(tmp_path, {"in.wav", "real.wav", "link.wav", "plain.wav"}) == []


@pytest.mark.parametrize("flags", [["--layer", "sinc"], ["--layer", "wavelet-haar", "--wavelet-mode", "roundtrip"]])
def test_in_place_equals_out_of_place(tmp_path, monkeypatch, capsys, flags):
    src, inplace = tmp_path / "in.wav", tmp_path / "x.wav"
    _write(src, np.random.Generator(np.random.Philox(3)).uniform(-1.0, 1.0, (2, 301)))
    inplace.write_bytes(src.read_bytes())
    monkeypatch.setattr(sig, "BLOCK_BYTES", 256)
    assert _upsample(src, tmp_path / "y.wav", *flags, "--factor", 4) == 0
    assert _upsample(inplace, inplace, *flags, "--factor", 4) == 0
    assert inplace.read_bytes() == (tmp_path / "y.wav").read_bytes()
    assert _leftovers(tmp_path, {"in.wav", "x.wav", "y.wav"}) == []


def _unchecked(data, rate=8000):
    """A Signal holding data as it is, past Signal's finiteness check, as a faulty producer would."""
    x = sig.Signal(np.zeros_like(data), rate)
    object.__setattr__(x, "data", sig.frozen(data))
    return x


_LATER_BLOCK_WRITERS = {
    "kernel": lambda x: apply_blocks(UpsamplerSpec("sinc", 2), x),
    "roundtrip": lambda x: wavelet_roundtrip_blocks(UpsamplerSpec("wavelet-haar", 4), x),
    "write_wav": lambda x: x,  # the Signal itself, read as it is
}


@pytest.mark.parametrize("value", [1e300, np.nan], ids=["float32-range", "nan"])
@pytest.mark.parametrize("path", sorted(_LATER_BLOCK_WRITERS))
def test_a_later_block_beyond_float32_is_refused_with_its_float64_peak(tmp_path, monkeypatch, path, value):
    # Blocks of 4 stereo columns; the sample sits in the fourteenth of 16.
    monkeypatch.setattr(sig, "BLOCK_BYTES", 64)
    data = np.zeros((2, 64))
    data[1, 53] = value
    x = _unchecked(data)
    blocks = _LATER_BLOCK_WRITERS[path](x)
    if np.isnan(value):
        message = "signal samples must be finite"
    else:  # named by the float64 peak of the first block that float32 cannot hold
        peak = next(p for p in (np.abs(blocks.read(cols)).max()
                                for cols in sig.frame_blocks(blocks.num_samples, 8 * blocks.channels))
                    if p >= FLOAT32_OVERFLOW)
        message = f"a sample of magnitude {peak:g} is beyond float32's range"
    filled = []

    def fill(out, cols):
        filled.append(cols)
        return blocks.fill(out, cols)

    out = tmp_path / "x.wav"
    out.write_bytes(b"earlier contents")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as refused:
            if path == "write_wav":
                sig.write_wav(out, x)
            else:
                sig.write_wav(out, dataclasses.replace(blocks, fill=fill))
    assert caught == []
    assert str(refused.value).splitlines() == [message]
    assert path == "write_wav" or filled[0].start == 0 < filled[-1].start
    assert out.read_bytes() == b"earlier contents"
    assert os.listdir(tmp_path) == ["x.wav"]


def test_every_sample_of_a_kernel_window_is_written(monkeypatch):
    # Windows are filled into views of uninitialised buffers, so the kernel
    # stores every sample, the zeros of all-zero branches included.
    from upsample_audit.upsamplers import config

    def kernel(x, h, m, start, length, out):
        config._polyphase(sig.Signal(x, 1), m, h, start, None, out, slice(0, length))
        return out

    x = np.random.Generator(np.random.Philox(5)).uniform(-1.0, 1.0, (2, 37))
    for h in (np.ones(1), np.array([1.0, 0.0]), np.array([0.0, 0.5, 0.0, 0.25, 0.0]), np.zeros(3)):
        for m in (2, 3, 4):
            for start, length in ((0, m * 37), (3, 50), (m * 37 - 5, 5)):
                want = kernel(x, h, m, start, length, np.empty((2, length)))
                # A float64 array, and the transposed view of float32 frames that the WAV writer passes.
                for out in (np.full((2, length), np.nan), np.full((length, 2), np.nan, dtype=np.float32).T):
                    kernel(x, h, m, start, length, out)
                    assert not np.isnan(out).any()
                    np.testing.assert_array_equal(out, want.astype(out.dtype))
