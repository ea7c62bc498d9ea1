"""Every layer kind against independent oracles.

Stretch, nearest, linear, sinc and transposed are zero insertion followed by
an FIR filter, which scipy.signal.upfirdn computes directly. Subpixel is M
same-padded convolutions interleaved, computed here one branch at a time
with np.convolve. A wavelet kind with zero detail bands is, per cascade
level, upfirdn by 2 of the base's two-tap synthesis lowpass (lifting after
dividing the input by A), dropping a padded input's pad at the first level.
Both scipy and hypothesis come from the `test` extra.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
scipy_signal = pytest.importorskip("scipy.signal")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from upsample_audit.signals import Signal
from upsample_audit.upsamplers import (
    KINDS,
    LiftingParams,
    UpsamplerSpec,
    apply,
    random_filters,
    rectangular_filter,
    sinc_filter,
    subpixel_conv,
    transposed_conv,
    triangular_filter,
)

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _upfirdn(row, h, m, start, length):
    """Zero-insert by m, filter by h, keep [start, start + length), zeros past the end."""
    full = scipy_signal.upfirdn(h, row, up=m)
    out = np.zeros(start + length)
    out[: min(full.size, out.size)] = full[: out.size]
    return out[start:]


def _subpixel(row, branches):
    """Interleave the same-padded convolutions of row with each branch."""
    half = (branches.shape[1] - 1) // 2
    streams = [np.convolve(row, b)[half : half + row.size] for b in branches]
    return np.stack(streams, axis=1).reshape(-1)


def _wavelet_oracle(spec, x, padded):
    """Level by level: divide by A (lifting only), upfirdn by 2 of the two-tap h."""
    divisor, h = {
        "wavelet-lazy": lambda: (1.0, np.array([1.0, 0.0])),
        "wavelet-haar": lambda: (1.0, np.full(2, 1.0 / np.sqrt(2.0))),
        "wavelet-lifting": lambda: (spec.lifting.a, np.array([1.0, spec.lifting.p])),
    }[spec.kind]()
    pad = int(padded)
    for _level in range(spec.wavelet_levels):
        x = np.stack([_upfirdn(row / divisor, h, 2, 0, 2 * row.size - pad) for row in x])
        pad = 0
    return x


def _oracle(spec, x, padded):
    m, k = spec.factor, x.shape[1]
    if spec.kind.startswith("wavelet-"):
        return _wavelet_oracle(spec, x, padded)
    if spec.kind == "subpixel":
        return np.stack([_subpixel(row, random_filters(spec)[:, 0]) for row in x])
    if spec.kind == "transposed":
        h = random_filters(spec)[0, 0]
        start, length = 0, (k - 1) * m + h.size
    else:
        h = {
            "stretch": np.ones(1),
            "nearest": rectangular_filter(m),
            "linear": triangular_filter(m),
            "sinc": sinc_filter(m, spec.sinc_taps),
        }[spec.kind]
        start = 0 if spec.kind in ("stretch", "nearest") else (h.size - 1) // 2
        length = m * k
    return np.stack([_upfirdn(row, h, m, start, length) for row in x])


@settings(PROPERTY, max_examples=160)  # nine kinds
@given(
    kind=st.sampled_from(KINDS),
    m=st.integers(2, 8),
    length=st.integers(1, 17),
    channels=st.integers(1, 3),
    half_k=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
    padded=st.booleans(),
)
@example(kind="subpixel", m=4, length=9, channels=1, half_k=1, seed=0, padded=False)
@example(kind="wavelet-lifting", m=4, length=3, channels=2, half_k=0, seed=5, padded=True)
def test_apply_matches_the_oracle(kind, m, length, channels, half_k, seed, padded):
    k = 2 * half_k + 1  # odd lengths, many shorter than the filter
    rng = np.random.Generator(np.random.Philox(seed))
    extra = {}
    if kind == "transposed":
        extra = dict(filter_length=max(length, m), stride=m)
    elif kind == "subpixel":
        extra = dict(filter_length=length)
    elif kind == "sinc":
        extra = dict(sinc_taps=4 * m + 1 + 2 * (length % (2 * m + 1)))  # odd, in [4M+1, 8M+1]
    elif kind.startswith("wavelet-"):
        m = 2 if m % 2 else 4
        if kind == "wavelet-lifting":
            p, u, a = rng.uniform(-2.0, 2.0, 3)
            extra = dict(lifting=LiftingParams(p, u, np.copysign(0.25 + abs(a), a)))
    spec = UpsamplerSpec(kind=kind, factor=m, seed=seed % 1000, **extra)
    x = rng.uniform(-1.0, 1.0, (channels, k))
    y = apply(spec, Signal(x, 8000, padded))
    assert y.sample_rate_hz == 8000 * m
    np.testing.assert_allclose(y.data, _oracle(spec, x, padded), rtol=0, atol=1e-12)


@PROPERTY
@given(
    m=st.integers(2, 8),
    length=st.integers(1, 17),
    in_channels=st.integers(1, 3),
    out_channels=st.integers(1, 2),
    half_k=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_layers_sum_over_input_channels(m, length, in_channels, out_channels, half_k, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.uniform(-1.0, 1.0, (in_channels, 2 * half_k + 1))
    wt = rng.uniform(-1.0, 1.0, (out_channels, in_channels, max(length, m)))
    ws = rng.uniform(-1.0, 1.0, (out_channels * m, in_channels, length))

    y = transposed_conv(Signal(x, 8000), wt, m)
    expected = [
        sum(scipy_signal.upfirdn(wt[o, c], x[c], up=m) for c in range(in_channels))
        for o in range(out_channels)
    ]
    np.testing.assert_allclose(y.data, np.stack(expected), rtol=0, atol=1e-12)

    y = subpixel_conv(Signal(x, 8000), ws, m)
    expected = [
        sum(_subpixel(x[c], ws[o * m : (o + 1) * m, c]) for c in range(in_channels))
        for o in range(out_channels)
    ]
    np.testing.assert_allclose(y.data, np.stack(expected), rtol=0, atol=1e-12)
