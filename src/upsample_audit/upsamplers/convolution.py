"""The polyphase kernel, transposed and subpixel convolution, periodic shuffle.

Every interpolator and convolution layer computes the same thing: M branch
filters b_j, each convolved with the input, their outputs interleaved as
y[qM+j] = (x * b_j)[q]. `_polyphase` is that computation; the layers
differ only in their branches and in the window of the full output they
keep. Layers take and return Signal, one row of data per channel.
"""

from __future__ import annotations

import numpy as np

from ..signals import Signal, frozen

NO_OVERLAP = "no-overlap"
FULL_OVERLAP = "full-overlap"
PARTIAL_OVERLAP = "partial-overlap"


def _polyphase(x: np.ndarray, branches: np.ndarray, start: int, length: int) -> np.ndarray:
    """Rows of x (C, K) through branches (M, T), interleaved, cropped to [start, start+length).

    The full output has M*(K+T-1) samples per row: y[c, qM+j] = (x[c] * b_j)[q].
    Each branch's convolution goes straight into the output samples it owns,
    every M-th from its first one inside the window, so the result is a
    fresh read-only (C, length) array that Signal takes over. All-zero
    branches (M-1 of stretch's M) are left at zero instead of convolved.
    """
    m = branches.shape[0]
    out = np.zeros((x.shape[0], length))
    for j in np.flatnonzero(branches.any(axis=1)):
        first = -(-(start - j) // m)  # first q with qM + j >= start
        n0 = first * m + j - start
        count = len(range(n0, length, m))
        for c in range(x.shape[0]):
            out[c, n0::m] = np.convolve(x[c], branches[j])[first : first + count]
    return frozen(out)


def _branches(h: np.ndarray, m: int) -> np.ndarray:
    """Polyphase split b_j = h[j::M] as an (M, ceil(L/M)) array, zero-padded."""
    padded = np.zeros(-(-len(h) // m) * m)
    padded[: len(h)] = h
    return padded.reshape(-1, m).T


def _transposed(x: np.ndarray, h: np.ndarray, stride: int) -> np.ndarray:
    """Rows of x through one transposed-conv kernel: full (K-1)*stride + L samples."""
    return _polyphase(x, _branches(h, stride), 0, (x.shape[1] - 1) * stride + len(h))


def _subpixel(x: np.ndarray, branches: np.ndarray) -> np.ndarray:
    """Rows of x through M same-padded sub-filters, interleaved: M*K samples."""
    m, length = branches.shape
    return _polyphase(x, branches, m * ((length - 1) // 2), m * x.shape[1])


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


def _check_filters(filters: np.ndarray, in_channels: int) -> np.ndarray:
    w = np.asarray(filters, dtype=np.float64)
    if w.ndim != 3:
        raise ValueError(f"filters must have shape (out_channels, in_channels, length), got ndim={w.ndim}")
    if w.shape[1] != in_channels:
        raise ValueError(f"filter in-channel count {w.shape[1]} does not match input channels {in_channels}")
    if w.shape[2] < 1:
        raise ValueError("filters must have at least one tap")
    return w


def transposed_conv(x: Signal, filters: np.ndarray, stride: int) -> Signal:
    """y_o[n] = sum_c sum_k x_c[k] * w_{o,c}[n - k*stride].

    Each input sample stamps a weighted copy of the kernel every `stride`
    output samples; the full (K-1)*stride + L output is returned without
    cropping. Output rate is stride times the input rate. When the kernel
    copies have unequal overlap counts (see classify_overlap) the summed
    pattern repeats every stride samples, which is the periodicity behind
    the tonal artifacts this layer can introduce.
    """
    stride = int(stride)
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    w = _check_filters(filters, x.channels)
    if w.shape[2] < stride:
        raise ValueError(f"filter length {w.shape[2]} must be at least the stride {stride}")
    out = np.zeros((w.shape[0], (x.num_samples - 1) * stride + w.shape[2]))
    for o in range(w.shape[0]):
        for c in range(x.channels):
            out[o] += _transposed(x.data[c : c + 1], w[o, c], stride)[0]
    return Signal(frozen(out), stride * x.sample_rate_hz)


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


def subpixel_conv(x: Signal, filters: np.ndarray, m: int) -> Signal:
    """Same-padded stride-1 convolution to M*C_out channels, then periodic shuffle.

    Output channel o interleaves the M streams of filters oM..oM+M-1, so
    the shuffle is the kernel's interleave. When the sub-filters' energies
    differ, the interleaving imprints an M-periodic pattern on the output.
    """
    m = int(m)
    if m < 1:
        raise ValueError(f"upsampling factor must be positive, got {m}")
    w = _check_filters(filters, x.channels)
    if w.shape[0] % m:
        raise ValueError(f"filter output-channel count {w.shape[0]} not divisible by factor {m}")
    out = np.zeros((w.shape[0] // m, m * x.num_samples))
    for o in range(out.shape[0]):
        for c in range(x.channels):
            out[o] += _subpixel(x.data[c : c + 1], w[o * m : (o + 1) * m, c])[0]
    return Signal(frozen(out), m * x.sample_rate_hz)
