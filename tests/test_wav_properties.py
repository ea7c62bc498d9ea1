"""WAV round trips, garbage WAV bytes and the streamed upsample as hypothesis properties.

Writing and reading go one block of frames at a time, so the round trips
run with BLOCK_BYTES shrunk to a few frames and lengths that straddle the
block boundaries; so does upsample, which writes one block of output
columns at a time. hypothesis comes from the `test` extra.
"""

import contextlib
import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from upsample_audit import cli
from upsample_audit import signals as sig
from upsample_audit.upsamplers import (
    KINDS,
    WAVELET_KINDS,
    LiftingParams,
    UpsamplerSpec,
    apply,
    apply_blocks,
    cascade_analysis,
    cascade_synthesis,
    wavelet_roundtrip_blocks,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
BLOCK_BYTES = st.sampled_from([8, 24, 40])  # 1 to 5 frames of one or two float64 samples per block
FORMATS = [(channels, fmt) for channels in (1, 2) for fmt in ("pcm16", "float32")]


@pytest.fixture(scope="module")
def wav_path(tmp_path_factory):
    return tmp_path_factory.mktemp("wav") / "x.wav"


@st.composite
def _signals(draw, values):
    channels, frames = draw(st.sampled_from([1, 2])), draw(st.integers(1, 40))
    samples = draw(st.lists(values, min_size=channels * frames, max_size=channels * frames))
    rate = draw(st.sampled_from([8000, 11025, 48000]))
    return sig.Signal(np.array(samples).reshape(channels, frames), rate)


def _round_trip(path, x, fmt, block_bytes):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sig, "BLOCK_BYTES", block_bytes)
        sig.write_wav(path, x, fmt=fmt)
        back = sig.read_wav(path)
        stream = sig.wav_blocks(path)
        blocks = [stream.read(cols) for cols in stream.slices()]
    assert back.data.shape == x.data.shape
    assert back.sample_rate_hz == x.sample_rate_hz
    # read_wav is the collection of wav_blocks' C-ordered blocks of at most BLOCK_BYTES of float64.
    assert (stream.sample_rate_hz, stream.channels, stream.num_samples) == (
        x.sample_rate_hz, x.channels, x.num_samples)
    frames_per_block = max(1, block_bytes // (8 * x.channels))
    assert all(b.flags.c_contiguous and b.shape[1] <= frames_per_block for b in blocks)
    assert np.concatenate(blocks, axis=1).tobytes() == back.data.tobytes()
    return back


@PROPERTY
@given(x=_signals(st.floats(width=32, allow_nan=False, allow_infinity=False)), block_bytes=BLOCK_BYTES)
def test_float32_round_trip_is_bit_exact(wav_path, x, block_bytes):
    back = _round_trip(wav_path, x, "float32", block_bytes)
    assert back.data.tobytes() == x.data.tobytes()


@PROPERTY
@given(x=_signals(st.floats(-1.0, 1.0)), block_bytes=BLOCK_BYTES)
def test_pcm16_round_trip_is_within_one_step(wav_path, x, block_bytes):
    back = _round_trip(wav_path, x, "pcm16", block_bytes)
    assert np.max(np.abs(back.data - x.data)) <= 1.0 / 32767


@pytest.fixture(scope="module")
def valid_wavs(tmp_path_factory):
    """The bytes of one valid 12-frame WAV per (channels, format)."""
    wavs = {}
    for channels, fmt in FORMATS:
        path = tmp_path_factory.mktemp("valid") / "x.wav"
        sig.write_wav(path, sig.Signal(np.linspace(-1.0, 1.0, 12 * channels).reshape(channels, 12), 8000), fmt=fmt)
        wavs[channels, fmt] = path.read_bytes()
    return wavs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(FORMATS),
    edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=6),
    cut=st.integers(0, 300),
)
def test_mutated_bytes_give_a_signal_or_a_value_error(wav_path, valid_wavs, kind, edits, cut):
    raw = bytearray(valid_wavs[kind])
    for index, value in edits:
        raw[index % len(raw)] = value
    wav_path.write_bytes(bytes(raw[:cut]))
    try:
        x = sig.read_wav(wav_path)
    except ValueError as exc:
        x, error = None, str(exc)
    try:
        stream = sig.wav_blocks(wav_path)
        blocks = np.empty((stream.channels, stream.num_samples))
        for cols in stream.slices():  # each block filled unchecked into its columns of one array
            stream.fill(blocks[:, cols], cols)
    except ValueError as exc:
        # wav_blocks refuses a file with read_wav's header message.
        assert x is None and str(exc) == error
        return
    if x is None:
        # A header wav_blocks accepts; read_wav refused a sample, as Signal does.
        assert error == "signal samples must be finite" and not np.all(np.isfinite(blocks))
    else:
        assert isinstance(x, sig.Signal) and blocks.tobytes() == x.data.tobytes()


@st.composite
def _layers(draw):
    """An UpsamplerSpec, whether it runs as a wavelet round trip, and the upsample flags that give both."""
    kind = draw(st.sampled_from(KINDS))
    factor = draw(st.sampled_from([2, 4] if kind in WAVELET_KINDS else [2, 3, 4]))
    fields = {"kind": kind, "factor": factor, "seed": draw(st.integers(0, 3))}
    if kind == "transposed":
        fields.update(stride=factor, filter_length=draw(st.integers(factor, 12)))
    elif kind == "subpixel":
        fields.update(filter_length=draw(st.integers(1, 12)))
    elif kind == "sinc":
        fields.update(sinc_taps=2 * draw(st.integers(2 * factor, 6 * factor)) + 1)
    elif kind == "wavelet-lifting":
        p, u = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
        fields.update(lifting=LiftingParams(p, u, draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 2.0))))
    roundtrip = kind in WAVELET_KINDS and draw(st.booleans())
    spec = UpsamplerSpec(**fields)
    flags = ["--layer", kind, "--factor", factor, "--seed", spec.seed]
    for flag, value in (("--stride", spec.stride), ("--length", spec.filter_length), ("--taps", spec.sinc_taps)):
        if value is not None:
            flags += [flag, value]
    if spec.lifting is not None:
        flags += ["--P", repr(spec.lifting.p), "--U", repr(spec.lifting.u), "--A", repr(spec.lifting.a)]
    if roundtrip:
        flags += ["--wavelet-mode", "roundtrip"]
    return spec, roundtrip, flags


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@PROPERTY
@given(x=_signals(st.floats(-1.0, 1.0, width=32)), layer=_layers(), block_bytes=st.sampled_from([8, 24, 40, 56]))
def test_streamed_upsample_writes_the_bytes_of_the_whole_output(tmp_path_factory, x, layer, block_bytes):
    spec, roundtrip, flags = layer
    work = tmp_path_factory.mktemp("up")
    src, out, ref = work / "in.wav", work / "out.wav", work / "ref.wav"
    sig.write_wav(src, x)
    try:  # the whole output, made and written with blocks larger than it
        whole = cascade_synthesis(*cascade_analysis(x, spec.wavelet_base, spec.wavelet_levels, spec.lifting),
                                  spec.wavelet_base, spec.lifting) if roundtrip else apply(spec, x)
        sig.write_wav(ref, whole)
    except ValueError as exc:
        whole, error = None, f"error: {exc}"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sig, "BLOCK_BYTES", block_bytes)  # odd and one-column blocks of output
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["upsample", "--in", str(src), "--out", str(out), *map(str, flags)])
        if whole is None:
            assert (code, stderr.getvalue()) == (2, error + "\n")
            assert not out.exists()
        else:
            assert code == 0 and out.read_bytes() == ref.read_bytes()
            stream = (wavelet_roundtrip_blocks if roundtrip else apply_blocks)(spec, x)
            blocks = [stream.read(cols) for cols in stream.slices()]
            assert (stream.sample_rate_hz, stream.num_samples) == (whole.sample_rate_hz, whole.num_samples)
            assert _same_bits(np.concatenate(blocks, axis=1), whole.data)
            assert max(b.shape[1] for b in blocks) <= max(1, block_bytes // (8 * x.channels))
