"""One filter table for every layer kind, the kernel that runs it, and apply().

Every layer kind is zero insertion followed by one FIR filter h: the
inserted zeros make the spectral replicas, and h decides whether they
survive as tonal lines or are attenuated. `_polyphase` runs h without the
zeros. `_FILTERS` holds each kind's h and kept window: [1] for stretch;
the rectangular, triangular and windowed-sinc prototypes (DC gain M, so a
constant input maps to itself); seeded random filters for transposed and
subpixel; per wavelet cascade level, with the detail band at zero, the
base's two-tap synthesis lowpass. `apply` and `largest_array` read the
table. `apply_blocks` and `wavelet_roundtrip_blocks` read a layer's input,
a Signal or `signals.Blocks` as it is, and give its output as Blocks,
which carry the output rate and length before any sample is computed and
fill a block at a time into any float view (the file's float32 frames
when written, a float64 array when `apply` collects them into a Signal).
`_polyphase` fills a block one tile at a time, and each tile reads once
only the input columns it needs. Each level of a wavelet cascade is
Blocks over the last. A round trip fills any columns from the groups of
2**levels input samples that hold them. The transposed and subpixel
kinds are the depthwise (one filter per channel) case of the dense O×C
layers; the tests hold those dense layers, written out apart from this
kernel, as the reference `apply` is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..signals import Blocks, Signal, _integer, _rng, store_rows
from .wavelets import LiftingParams, WaveletFilters, cascade_analysis, cascade_synthesis

# Output samples per tile of _polyphase: 256 KiB of float64, inside a core's L2.
_TILE = 1 << 15


def _span(lo: int, hi: int, k: int, t: int) -> tuple:
    """Columns [lo, hi) of a row of k, clamped to the row and widened to t columns, or the whole row when k < t."""
    return (0, k) if k < t else (max(0, min(lo, k - t)), min(k, max(hi, t)))


def _polyphase(x, m: int, h: np.ndarray, start: int, divisor, out: np.ndarray, cols: slice) -> None:
    """Columns `cols` of one of layer_filter's levels run on x (C, K), a Signal or Blocks, written into out.

    The level divides x by `divisor` unless it is None, inserts zeros by m,
    filters by h and keeps the window that starts at column `start`. The
    full output has M*(K+T-1) samples per row, T = ceil(len(h)/M): with
    the branches b_j = h[j::M], y[c, qM+j] = (x[c] * b_j)[q]. The columns
    are walked in tiles of about _TILE output samples, that is, of rows q of
    that formula. Each tile reads once the input it needs, x[:, q-T+1 ... q]
    over its q, widened by _span to at least T columns or the whole row when
    K < T, and divides only that read. Every branch convolves the read and
    stores every M-th sample of the tile while it is in cache. As the read
    is never shorter than b_j unless it is the whole row, np.convolve never
    swaps its arguments where the whole-row call would not, and each sample
    kept is the same dot product over the same values as in one whole-row
    call: the result is bit-identical to it. `out` is a (C, len(cols))
    array or view of any float dtype; every element is written in place (a
    float32 view takes numpy's cast at the store). All-zero branches (M-1
    of stretch's M) store zeros in each tile instead of being convolved.
    Every sample is summed from +0.0, so a -0.0 input sample comes out +0.0.
    """
    k = x.num_samples
    branches = np.pad(h, (0, -len(h) % m)).reshape(-1, m).T
    t = branches.shape[1]
    start, length = start + cols.start, cols.stop - cols.start
    # (j, b_j, first, stop): rows [first, stop) of y are the ones with qM + j in the window; b_j is
    # None for an all-zero branch, whose rows are stored as zeros in the same tile, while it is in cache
    nonzero = branches.any(axis=1).tolist()
    parts = [(j, branches[j] if nonzero[j] else None, -(-(start - j) // m), -(-(start + length - j) // m))
             for j in range(m)]
    q_lo = min(first for _, _, first, _ in parts)
    q_hi = max(stop for _, _, _, stop in parts)
    rows = max(1, _TILE // m if k >= t else q_hi - q_lo)  # a row shorter than T is convolved once
    for q0 in range(q_lo, q_hi, rows):
        lo, hi = _span(q0 - t + 1, min(q0 + rows, q_hi), k, t)
        inp = x.read(slice(lo, hi))
        if divisor is not None:
            with np.errstate(over="ignore"):  # an inf is refused as a non-finite sample
                inp = inp / divisor
        for c in range(x.channels):
            for j, b, first, stop in parts:
                qa, qb = max(q0, first), min(q0 + rows, stop)
                if qa >= qb:
                    continue
                n0 = qa * m + j - start
                if b is None:
                    out[c, n0 : n0 + (qb - qa) * m : m] = 0.0
                else:
                    out[c, n0 : n0 + (qb - qa) * m : m] = np.convolve(inp[c], b)[qa - lo : qb - lo]


def _check_factor(m: int) -> int:
    m = _integer("factor", m)
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
    taps = 8 * m + 1 if taps is None else _integer("sinc_taps", taps)
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


# Windows of the full output, (start, kept length), for factor M, n = len(h)
# taps and K input samples.
def _upsampled(m, n, k):
    return 0, m * k


def _centred(m, n, k):
    return (n - 1) // 2, m * k


def _full(m, n, k):
    return 0, (k - 1) * m + n


def _same(m, n, k):  # each of the M interleaved sub-filters of n/M taps same-padded
    return m * ((n // m - 1) // 2), m * k


# kind: (len(h), known without building h; h; window; what the input is
# divided by first, or None). Wavelet rows are one cascade level. Lifting
# divides by A before [1, P] as lifting_synthesis does; [1/A, P/A] rounds
# differently.
_FILTERS = {
    "stretch": (lambda s: 1, lambda s: np.ones(1), _upsampled, None),
    "nearest": (lambda s: s.factor, lambda s: rectangular_filter(s.factor), _upsampled, None),
    "linear": (lambda s: 2 * s.factor - 1, lambda s: triangular_filter(s.factor), _centred, None),
    "sinc": (lambda s: _sinc_taps(s.factor, s.sinc_taps), lambda s: sinc_filter(s.factor, s.sinc_taps), _centred, None),
    "transposed": (lambda s: s.filter_length, lambda s: random_filters(s)[0, 0], _full, None),
    "subpixel": (lambda s: s.factor * s.filter_length, lambda s: random_filters(s)[:, 0].T.reshape(-1), _same, None),
    "wavelet-lazy": (lambda s: 2, lambda s: np.array([1.0, 0.0]), _upsampled, None),
    "wavelet-haar": (lambda s: 2, lambda s: WaveletFilters.haar().ls, _upsampled, None),
    "wavelet-lifting": (lambda s: 2, lambda s: np.array([1.0, s.lifting.p]), _upsampled, lambda s: s.lifting.a),
}
KINDS = tuple(_FILTERS)
WAVELET_KINDS = tuple(kind for kind in KINDS if kind.startswith("wavelet-"))
# The kinds that use each optional UpsamplerSpec parameter.
_PARAMETER_KINDS = {
    "filter_length": ("transposed", "subpixel"),
    "stride": ("transposed",),
    "sinc_taps": ("sinc",),
    "lifting": ("wavelet-lifting",),
}


@dataclass(frozen=True)
class UpsamplerSpec:
    """Layer kind plus the parameters that kind needs.

    factor is the upsampling ratio M. transposed layers require
    filter_length and stride with factor == stride (the stride is what
    raises the rate); subpixel layers require filter_length; sinc accepts
    an odd tap count of at least 4M+1 (default 8M+1); wavelet-lifting
    requires a LiftingParams triple. A parameter given to a kind that does
    not use it is refused. seed, non-negative, feeds every random draw.
    """

    kind: str
    factor: int
    filter_length: int | None = None
    stride: int | None = None
    sinc_taps: int | None = None
    lifting: LiftingParams | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}, expected one of {KINDS}")
        for name, kinds in _PARAMETER_KINDS.items():
            if getattr(self, name) is not None and self.kind not in kinds:
                raise ValueError(f"{name} applies to {' and '.join(kinds)} layers only, not {self.kind}")
        object.__setattr__(self, "factor", _check_factor(self.factor))
        if self.kind in WAVELET_KINDS and self.factor not in (2, 4):
            raise ValueError(f"wavelet layers support factor 2 or 4, got {self.factor}")
        if self.kind == "transposed":
            if self.filter_length is None or self.stride is None:
                raise ValueError("transposed layers require filter_length and stride")
            object.__setattr__(self, "filter_length", _integer("filter_length", self.filter_length))
            object.__setattr__(self, "stride", _integer("stride", self.stride))
            if self.stride < 1 or self.filter_length < self.stride:
                raise ValueError(
                    f"need filter_length >= stride >= 1, got ({self.filter_length}, {self.stride})"
                )
            if self.factor != self.stride:
                raise ValueError(
                    f"transposed factor must equal the stride, got factor={self.factor} stride={self.stride}"
                )
        if self.kind == "subpixel":
            if self.filter_length is None:
                raise ValueError("subpixel layers require filter_length")
            object.__setattr__(self, "filter_length", _integer("filter_length", self.filter_length))
            if self.filter_length < 1:
                raise ValueError(f"filter_length must be positive, got {self.filter_length}")
        if self.kind == "sinc" and self.sinc_taps is not None:
            object.__setattr__(self, "sinc_taps", _sinc_taps(self.factor, self.sinc_taps))
        if self.kind == "wavelet-lifting" and self.lifting is None:
            raise ValueError("wavelet-lifting layers require a LiftingParams triple")
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def wavelet_base(self) -> str:
        if self.kind not in WAVELET_KINDS:
            raise ValueError(f"{self.kind!r} is not a wavelet kind")
        return self.kind.split("-", 1)[1]

    @property
    def wavelet_levels(self) -> int:
        return 1 if self.factor == 2 else 2


def random_filters(spec: UpsamplerSpec) -> np.ndarray:
    """Seeded uniform filters in [-1/sqrt(L), 1/sqrt(L)).

    Shape (1, 1, L) for transposed layers and (M, 1, L) for subpixel
    layers (one sub-filter per interleaved branch). Deterministic per
    seed via Philox.
    """
    if spec.kind == "transposed":
        shape = (1, 1, spec.filter_length)
    elif spec.kind == "subpixel":
        shape = (spec.factor, 1, spec.filter_length)
    else:
        raise ValueError(f"random filters are defined for transposed and subpixel layers, not {spec.kind!r}")
    scale = 1.0 / np.sqrt(spec.filter_length)
    return (2.0 * _rng(spec.seed).random(shape) - 1.0) * scale


def layer_filter(spec: UpsamplerSpec, num_samples: int, padded: bool = False):
    """Yield the levels apply runs, in order: (M, h, start, kept length, input divisor or None) each.

    Each level's input is the previous level's output; a padded input to a
    wavelet cascade drops its pad at the first level only, as synthesis does.
    """
    _, fir, window, divisor = _FILTERS[spec.kind]
    wavelet = spec.kind in WAVELET_KINDS  # factor-2 levels
    h, k = fir(spec), num_samples
    for level, m in enumerate((2,) * spec.wavelet_levels if wavelet else (spec.factor,)):
        start, length = window(m, len(h), k)
        k = length - int(wavelet and padded and level == 0)
        yield m, h, start, k, divisor and divisor(spec)


def largest_array(spec: UpsamplerSpec, channels: int, num_samples: int) -> int:
    """An upper bound on the values of any one array apply allocates for (channels, num_samples) input.

    That is the larger of the output and C*M*(K+T-1) for T = ceil(len(h)/M)
    taps per branch, which bounds the branch filters (M*T taps), the
    input one tile of _polyphase reads (at most the whole input) and the
    row np.convolve returns from it, never longer than the whole row's
    K+T-1 samples. A wavelet cascade's factor-2 levels stay within the
    factor-M bound. len(h) comes from the filter table without building h,
    so a caller can refuse a size before apply runs.
    """
    taps, _, window, _ = _FILTERS[spec.kind]
    m, n = spec.factor, taps(spec)
    return channels * max(window(m, n, num_samples)[1], m * (num_samples + -(-n // m) - 1))


def apply_blocks(spec: UpsamplerSpec, x) -> Blocks:
    """apply(spec, x) as signals.Blocks at M times x's rate, one block of output columns at a time.

    x is a Signal or Blocks (a file's, say), read as it is. Each of
    layer_filter's levels is Blocks over the last (see _polyphase), so a
    wavelet cascade's x2 band is read, and checked to be finite, as a file
    is. Each block of the last is written straight into the view it is
    given, bit-identical to the same columns of the whole output and not
    checked to be finite; besides a Signal x, no array larger than a block
    is made.
    """
    for m, h, start, length, divisor in layer_filter(spec, x.num_samples, x.padded):
        x = Blocks(x.channels, length, m * x.sample_rate_hz, partial(_polyphase, x, m, h, start, divisor))
    return x


def apply(spec: UpsamplerSpec, x: Signal) -> Signal:
    """Run the configured layer on a signal: apply_blocks' blocks, each filled into one output array."""
    return apply_blocks(spec, x).signal()


def wavelet_roundtrip_blocks(spec: UpsamplerSpec, x) -> Blocks:
    """wavelet_roundtrip(spec, x) as signals.Blocks at x's rate, one block of columns at a time.

    x is a Signal or Blocks, read as it is. Analysis and synthesis are
    local to each group of 2**levels samples, so a fill widens `cols` to
    the groups that hold them, clamped to x's end, makes the round trip on
    those columns of x, read into a Signal, and stores the ones asked for,
    one channel at a time: only a span that ends at x's end can be odd,
    and it pads and trims as the whole signal does. So any columns, in any
    order, are those of wavelet_roundtrip bit for bit.
    """
    if spec.kind not in WAVELET_KINDS:
        raise ValueError(f"round trip is defined for wavelet kinds, not {spec.kind!r}")
    g = 2**spec.wavelet_levels

    def fill(out, cols):  # the input span is held by no name, so it is freed before the synthesis
        lo, hi = cols.start - cols.start % g, min(-(-cols.stop // g) * g, x.num_samples)
        coarse, details = cascade_analysis(Signal(x.read(slice(lo, hi)), x.sample_rate_hz), spec.wavelet_base,
                                           spec.wavelet_levels, spec.lifting)
        back = cascade_synthesis(coarse, details, spec.wavelet_base, spec.lifting)
        store_rows(out, back.data[:, cols.start - lo : cols.stop - lo])

    return Blocks(x.channels, x.num_samples, x.sample_rate_hz, fill)


def wavelet_roundtrip(spec: UpsamplerSpec, x: Signal) -> Signal:
    """Analysis followed by synthesis at the spec's cascade depth (same rate): the blocks of
    wavelet_roundtrip_blocks, collected."""
    return wavelet_roundtrip_blocks(spec, x).signal()

