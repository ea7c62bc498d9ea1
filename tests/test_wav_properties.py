"""WAV round trips and garbage WAV bytes as hypothesis properties.

Writing and reading go one block of frames at a time, so the round trips
run with BLOCK_BYTES shrunk to a few frames and lengths that straddle the
block boundaries. hypothesis comes from the `test` extra.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from upsample_audit import signals as sig

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
    assert back.data.shape == x.data.shape
    assert back.sample_rate_hz == x.sample_rate_hz
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
    except ValueError:
        return
    assert isinstance(x, sig.Signal)
