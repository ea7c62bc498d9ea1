"""The layer contract as a hypothesis property, read from the Blocks before any sample is computed.

apply_blocks(spec, x) carries the output rate M*fs and length (M*K, (K-1)*S + L
for transposed, M*K - M/2 for a padded wavelet input) without running the
kernel, and apply(spec, x) has that shape. UpsamplerSpec refuses a
parameter that is not integral instead of truncating it. hypothesis comes
from the `test` extra.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from upsample_audit.signals import Signal
from upsample_audit.upsamplers import KINDS, WAVELET_KINDS, LiftingParams, UpsamplerSpec, apply, apply_blocks, config


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(KINDS))
    m = draw(st.sampled_from([2, 4]) if kind in WAVELET_KINDS else st.integers(2, 7))
    fields = {}
    if kind == "transposed":
        fields = dict(filter_length=draw(st.integers(m, 4 * m + 3)), stride=m)
    elif kind == "subpixel":
        fields = dict(filter_length=draw(st.integers(1, 12)))
    elif kind == "sinc":
        fields = dict(sinc_taps=draw(st.none() | st.integers(2 * m, 6 * m).map(lambda t: 2 * t + 1)))
    elif kind == "wavelet-lifting":
        p, u = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
        fields = dict(lifting=LiftingParams(p, u, draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.25, 2.0))))
    spec = UpsamplerSpec(kind=kind, factor=m, seed=draw(st.integers(0, 99)), **fields)
    channels, k = draw(st.integers(1, 2)), draw(st.integers(1, 70))
    rate = draw(st.sampled_from([1, 7, 8000, 11025, 44101]))
    padded = kind in WAVELET_KINDS and draw(st.booleans())
    x = Signal(np.random.Generator(np.random.Philox(k)).uniform(-1.0, 1.0, (channels, k)), rate, padded)
    return spec, x


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_cases())
def test_blocks_carry_the_rate_and_length_before_any_sample(case):
    spec, x = case
    m, k = spec.factor, x.num_samples
    if spec.kind == "transposed":
        length = (k - 1) * spec.stride + spec.filter_length
    else:
        length = m * k - (m // 2 if x.padded else 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "_polyphase", lambda *a: pytest.fail("a sample was computed"))
        blocks = apply_blocks(spec, x)
    assert (blocks.channels, blocks.num_samples, blocks.sample_rate_hz) == (x.channels, length, m * x.sample_rate_hz)
    y = apply(spec, x)
    assert (y.data.shape, y.sample_rate_hz) == ((x.channels, length), m * x.sample_rate_hz)


@pytest.mark.parametrize("fields, name", [
    (dict(kind="sinc", factor=4.5), "factor"),
    (dict(kind="nearest", factor=float("nan")), "factor"),
    (dict(kind="transposed", factor=4, filter_length=9.9, stride=4), "filter_length"),
    (dict(kind="transposed", factor=4, filter_length=9, stride=4.5), "stride"),
    (dict(kind="subpixel", factor=4, filter_length=np.float64(2.5)), "filter_length"),
    (dict(kind="sinc", factor=4, sinc_taps=33.7), "sinc_taps"),
    (dict(kind="sinc", factor=4, seed=3.9), "seed"),
])
def test_a_non_integral_parameter_is_refused_not_truncated(fields, name):
    with pytest.raises(ValueError) as info:
        UpsamplerSpec(**fields)
    assert str(info.value) == f"{name} must be an integer, got {fields[name]!r}"


def test_integral_floats_and_numpy_integers_are_taken_as_ints():
    spec = UpsamplerSpec(kind="subpixel", factor=4.0, filter_length=np.int32(9), seed=np.uint8(3))
    assert spec == UpsamplerSpec(kind="subpixel", factor=4, filter_length=9, seed=3)
    assert [type(v) for v in (spec.factor, spec.filter_length, spec.seed)] == [int, int, int]
