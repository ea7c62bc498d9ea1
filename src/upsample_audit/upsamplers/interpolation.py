"""FIR prototypes of the interpolation layers: rectangular, triangular, windowed sinc.

The interpolator kinds (stretch, nearest, linear, sinc) are zero-insertion
upsampling followed by a fixed FIR prototype h: [1] for stretch, then the
three filters here. `config.apply` runs h as its M polyphase branches
b_j = h[j::M] through the kernel in convolution.py and keeps M*K samples.
All prototypes are amplitude preserving (DC gain M), so a constant input
maps to the same constant.
"""

from __future__ import annotations

import numpy as np


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


def _sinc_taps(m: int, taps: int | None) -> int:
    """The sinc tap count for factor M: odd and at least 4M+1, default 8M+1."""
    taps = 8 * m + 1 if taps is None else int(taps)
    if taps % 2 == 0:
        raise ValueError(f"sinc tap count must be odd, got {taps}")
    if taps < 4 * m + 1:
        raise ValueError(f"sinc tap count must be at least 4M+1={4 * m + 1}, got {taps}")
    return taps


def sinc_filter(m: int, taps: int | None = None) -> np.ndarray:
    """Hann-windowed sinc with cutoff pi/M and DC gain M.

    taps must be odd and at least 4M+1; the default is 8M+1. After
    windowing, each polyphase branch h[j::M] is normalized to sum exactly
    to 1. This keeps the DC gain at M while restoring the exact response
    nulls at multiples of the input rate that the window perturbs; without
    it a constant input picks up faint tonal residue at those frequencies.
    """
    m = _check_factor(m)
    taps = _sinc_taps(m, taps)
    center = (taps - 1) / 2
    h = np.sinc((np.arange(taps) - center) / m) * np.hanning(taps)
    for j in range(m):
        h[j::m] /= h[j::m].sum()
    return h
