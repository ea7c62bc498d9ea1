"""The dense transposed and subpixel convolutions, overlap classes and the periodic shuffle, as a test reference.

The package runs every layer kind through one depthwise polyphase kernel
behind `apply`. This module writes the dense O×C layers out the long way, as
explicit zero insertion followed by `np.convolve`, and shares no code with
that kernel: it imports only the public `Signal`. Output row o sums, over
input rows c, the input row with M-1 zeros after each sample, convolved with
the filter from c to o and cropped to the layer's window. The window is the
whole convolution for transposed, (K-1)*S + L samples; for subpixel it is M*K
samples from M*floor((L-1)/2), which same-pads each of the M sub-filters.

`subpixel_streams` spells the subpixel rule a second way, as M same-padded
convolutions interleaved, so that the two spellings can check each other.
"""

import numpy as np

from upsample_audit.signals import Signal

NO_OVERLAP = "no-overlap"
FULL_OVERLAP = "full-overlap"
PARTIAL_OVERLAP = "partial-overlap"


def _filters(filters, in_channels):
    w = np.asarray(filters, dtype=np.float64)
    if w.ndim != 3:
        raise ValueError(f"filters must have shape (out_channels, in_channels, length), got ndim={w.ndim}")
    if w.shape[1] != in_channels:
        raise ValueError(f"filter in-channel count {w.shape[1]} does not match input channels {in_channels}")
    if w.shape[2] < 1:
        raise ValueError("filters must have at least one tap")
    return w


def _dense(x, hs, m, start, length):
    """Row o: the sum over c of x[c] zero-inserted by m and convolved with hs[o][c], kept in [start, start+length)."""
    out = np.zeros((len(hs), length))
    for o, row in enumerate(hs):
        for c, h in enumerate(row):
            stretched = np.zeros(m * x.num_samples)
            stretched[::m] = x.data[c]
            out[o] += np.convolve(stretched, h)[start : start + length]
    return Signal(out, m * x.sample_rate_hz)


def transposed_conv(x, filters, stride):
    """y_o[n] = sum_c sum_k x_c[k] * w_{o,c}[n - k*stride]: the full (K-1)*stride + L samples, at stride times the rate.

    Each input sample stamps a weighted copy of the kernel every `stride`
    output samples. When the copies overlap unequally (see classify_overlap),
    the summed pattern repeats every stride samples: the periodicity behind
    this layer's tonal artifacts.
    """
    stride = int(stride)
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    w = _filters(filters, x.channels)
    if w.shape[2] < stride:
        raise ValueError(f"filter length {w.shape[2]} must be at least the stride {stride}")
    return _dense(x, w, stride, 0, (x.num_samples - 1) * stride + w.shape[2])


def subpixel_conv(x, filters, m):
    """Same-padded stride-1 convolution to M*C_out channels, then periodic shuffle.

    Output channel o interleaves the M streams of filters oM..oM+M-1, so it
    is one filter h[tM+j] = w[oM+j, c, t] per input channel c.
    """
    m = int(m)
    if m < 1:
        raise ValueError(f"upsampling factor must be positive, got {m}")
    w = _filters(filters, x.channels)
    if w.shape[0] % m:
        raise ValueError(f"filter output-channel count {w.shape[0]} not divisible by factor {m}")
    hs = [[w[o : o + m, c].T.reshape(-1) for c in range(x.channels)] for o in range(0, w.shape[0], m)]
    return _dense(x, hs, m, m * ((w.shape[2] - 1) // 2), m * x.num_samples)


def subpixel_streams(row, branches):
    """One input row through M sub-filters: their same-padded convolutions with row, interleaved."""
    half = (branches.shape[1] - 1) // 2
    streams = [np.convolve(row, b)[half : half + row.size] for b in branches]
    return np.stack(streams, axis=1).reshape(-1)


def classify_overlap(length, stride):
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


def periodic_shuffle(z, m):
    """Interleave channel groups into time: y_c[kM+j] = z_{cM+j}[k]. Bijective; m=1 is the identity."""
    m = int(m)
    if m < 1:
        raise ValueError(f"shuffle factor must be positive, got {m}")
    if z.channels % m:
        raise ValueError(f"channel count {z.channels} not divisible by factor {m}")
    c_out = z.channels // m
    out = z.data.reshape(c_out, m, z.num_samples).transpose(0, 2, 1).reshape(c_out, z.num_samples * m)
    return Signal(out, m * z.sample_rate_hz)


def periodic_unshuffle(y, m):
    """Inverse of periodic_shuffle: split time into m interleaved channels."""
    m = int(m)
    if m < 1:
        raise ValueError(f"shuffle factor must be positive, got {m}")
    if y.num_samples % m:
        raise ValueError(f"time length {y.num_samples} not divisible by factor {m}")
    if y.sample_rate_hz % m:
        raise ValueError(f"sample rate {y.sample_rate_hz} not divisible by factor {m}")
    steps = y.num_samples // m
    out = y.data.reshape(y.channels, steps, m).transpose(0, 2, 1).reshape(y.channels * m, steps)
    return Signal(out, y.sample_rate_hz // m)
