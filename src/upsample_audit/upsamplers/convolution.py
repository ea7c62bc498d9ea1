"""The polyphase kernel every layer kind runs, overlap classification, periodic shuffle.

`_polyphase` is zero insertion followed by one FIR filter h, computed
without the zeros; config.py's filter table holds each kind's h and window.
"""

from __future__ import annotations

import numpy as np

from ..signals import Signal, frozen

NO_OVERLAP = "no-overlap"
FULL_OVERLAP = "full-overlap"
PARTIAL_OVERLAP = "partial-overlap"


def _polyphase(x: np.ndarray, h: np.ndarray, m: int, start: int, length: int) -> np.ndarray:
    """Rows of x (C, K), zero-inserted by m and filtered by h, cropped to [start, start+length).

    The full output has M*(K+T-1) samples per row, T = ceil(len(h)/M): with
    the branches b_j = h[j::M], y[c, qM+j] = (x[c] * b_j)[q]. Each branch's
    convolution goes straight into the output samples it owns, every M-th
    from its first one inside the window, so the result is a fresh
    read-only (C, length) array that Signal takes over. All-zero branches
    (M-1 of stretch's M) are left at zero instead of convolved. Every
    sample is summed from +0.0, so a -0.0 input sample comes out +0.0.
    """
    branches = np.pad(h, (0, -len(h) % m)).reshape(-1, m).T
    out = np.zeros((x.shape[0], length))
    for j in np.flatnonzero(branches.any(axis=1)):
        first = -(-(start - j) // m)  # first q with qM + j >= start
        n0 = first * m + j - start
        count = len(range(n0, length, m))
        for c in range(x.shape[0]):
            out[c, n0::m] = np.convolve(x[c], branches[j])[first : first + count]
    return frozen(out)


def classify_overlap(length: int, stride: int) -> str:
    """Overlap regime of a transposed convolution.

    no-overlap when length == stride; full-overlap when length is a larger
    multiple of the stride; partial-overlap otherwise (consecutive kernel
    copies overlap on some output samples but not uniformly).
    """
    length, stride = int(length), int(stride)
    if length < 1 or stride < 1:
        raise ValueError(f"length and stride must be positive, got ({length}, {stride})")
    if length == stride:
        return NO_OVERLAP
    if length > stride and length % stride == 0:
        return FULL_OVERLAP
    return PARTIAL_OVERLAP


def periodic_shuffle(z: Signal, m: int) -> Signal:
    """Interleave channel groups into time: y_c[kM+j] = z_{cM+j}[k].

    Bijective; m=1 is the identity. The channel count must be divisible
    by m.
    """
    m = int(m)
    if m < 1:
        raise ValueError(f"shuffle factor must be positive, got {m}")
    if z.channels % m:
        raise ValueError(f"channel count {z.channels} not divisible by factor {m}")
    c_out = z.channels // m
    data = z.data.reshape(c_out, m, z.num_samples)
    out = data.transpose(0, 2, 1).reshape(c_out, z.num_samples * m)
    return Signal(out, m * z.sample_rate_hz)


def periodic_unshuffle(y: Signal, m: int) -> Signal:
    """Inverse of periodic_shuffle: split time into m interleaved channels."""
    m = int(m)
    if m < 1:
        raise ValueError(f"shuffle factor must be positive, got {m}")
    if y.num_samples % m:
        raise ValueError(f"time length {y.num_samples} not divisible by factor {m}")
    if y.sample_rate_hz % m:
        raise ValueError(f"sample rate {y.sample_rate_hz} not divisible by factor {m}")
    steps = y.num_samples // m
    data = y.data.reshape(y.channels, steps, m)
    out = data.transpose(0, 2, 1).reshape(y.channels * m, steps)
    return Signal(out, y.sample_rate_hz // m)
