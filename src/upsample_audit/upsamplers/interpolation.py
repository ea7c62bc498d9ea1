"""Interpolation upsamplers: stretch, nearest neighbor, linear, windowed sinc.

Each interpolator is zero-insertion upsampling (stretch) followed by a fixed
FIR filter h; they differ only in the filter (stretch's is [1]). Each runs
as h's M polyphase branches b_j = h[j::M] through the kernel in
convolution.py. All filters are amplitude preserving (DC gain M) so a
constant input maps to the same constant, and each output is cropped to
exactly M*K samples. Convolutions zero-pad at the boundaries.
"""

from __future__ import annotations

import numpy as np

from ..signals import Signal
from .convolution import _branches, _polyphase


def _check_factor(m: int) -> int:
    m = int(m)
    if m < 2:
        raise ValueError(f"upsampling factor must be at least 2, got {m}")
    return m


def rectangular_filter(m: int) -> np.ndarray:
    """M ones: the nearest-neighbor (sample-and-hold) kernel."""
    return np.ones(_check_factor(m))


def triangular_filter(m: int) -> np.ndarray:
    """Centered triangle of length 2M-1, t[i] = 1 - |i-(M-1)|/M.

    Equal to the normalized self-convolution of the rectangular filter, so
    its magnitude response is the rectangular response squared.
    """
    m = _check_factor(m)
    i = np.arange(2 * m - 1)
    return 1.0 - np.abs(i - (m - 1)) / m


def sinc_filter(m: int, taps: int | None = None) -> np.ndarray:
    """Hann-windowed sinc with cutoff pi/M and DC gain M.

    taps must be odd and at least 4M+1; the default is 8M+1. After
    windowing, each polyphase branch h[j::M] is normalized to sum exactly
    to 1. This keeps the DC gain at M while restoring the exact response
    nulls at multiples of the input rate that the window perturbs; without
    it a constant input picks up faint tonal residue at those frequencies.
    """
    m = _check_factor(m)
    if taps is None:
        taps = 8 * m + 1
    taps = int(taps)
    if taps % 2 == 0:
        raise ValueError(f"sinc tap count must be odd, got {taps}")
    if taps < 4 * m + 1:
        raise ValueError(f"sinc tap count must be at least 4M+1={4 * m + 1}, got {taps}")
    center = (taps - 1) / 2
    h = np.sinc((np.arange(taps) - center) / m) * np.hanning(taps)
    for j in range(m):
        h[j::m] /= h[j::m].sum()
    return h


def _interpolate(x: Signal, m: int, h: np.ndarray, start: int) -> Signal:
    """Stretch, filter by h, keep M*K samples from `start`; run as h's M polyphase branches."""
    return Signal(_polyphase(x.data, _branches(h, m), start, m * x.num_samples), m * x.sample_rate_hz)


def stretch(x: Signal, m: int) -> Signal:
    """Zero-insertion upsampling: y[kM] = x[k], zeros elsewhere.

    The spectrum is unchanged apart from the axis rescaling, so every
    replica of the input spectrum lands in band, unattenuated.
    """
    m = _check_factor(m)
    return _interpolate(x, m, np.ones(1), 0)


def nearest_neighbor(x: Signal, m: int) -> Signal:
    """Sample-and-hold: y[kM+j] = x[k] for j in [0, M).

    Equivalent to stretch followed by the causal rectangular filter, which
    copies each input sample forward.
    """
    m = _check_factor(m)
    return _interpolate(x, m, rectangular_filter(m), 0)


def linear_interpolate(x: Signal, m: int) -> Signal:
    """Stretch followed by the centered triangular filter.

    Input samples are preserved at the output grid (y[kM] = x[k]) and the
    samples between them are linearly interpolated; the run beyond the
    last input sample decays toward the zero padding.
    """
    m = _check_factor(m)
    return _interpolate(x, m, triangular_filter(m), m - 1)


def sinc_interpolate(x: Signal, m: int, taps: int | None = None) -> Signal:
    """Stretch followed by the centered Hann-windowed sinc filter (bandlimited interpolation)."""
    m = _check_factor(m)
    h = sinc_filter(m, taps)
    return _interpolate(x, m, h, (len(h) - 1) // 2)
