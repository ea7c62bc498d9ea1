"""upsample streams its output to the WAV file: refusals found while writing,
the temporary file beside the target, and symlinked and in-place targets. Its
memory bound is in test_handover.py."""

import os

import numpy as np
import pytest

from upsample_audit import cli
from upsample_audit import signals as sig


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
    made = []
    apply_blocks = cli.apply_blocks

    def counted(*args):
        rate, length, blocks = apply_blocks(*args)
        return rate, length, (made.append(b) or b for b in blocks)

    monkeypatch.setattr(cli, "apply_blocks", counted)
    code = _upsample(src, out, "--layer", "wavelet-lifting", "--P", 0, "--U", 0, "--A", 1e-300, *flags)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert len(made) > 1  # the refused block came after one was written
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
