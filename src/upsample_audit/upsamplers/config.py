"""Tagged upsampler configuration and apply(), the one entry point for every layer kind.

The six polyphase kinds are one kernel call each: the interpolators run
the M polyphase branches of their FIR prototype (interpolation.py) and keep
M*K samples from its start sample; transposed and subpixel run their
seeded filters through the window rules in convolution.py. Wavelet kinds
drive the cascade synthesis path with zero detail bands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..signals import Signal, frozen
from . import convolution
from .interpolation import _sinc_taps, rectangular_filter, sinc_filter, triangular_filter
from .wavelets import LiftingParams, cascade_analysis, cascade_synthesis, detail_shapes

# Interpolator kinds: the FIR prototype h of (M, sinc taps), and whether h is
# centred (the M*K samples kept start at its middle tap) or causal (at 0).
_INTERPOLATORS = {
    "stretch": (lambda m, taps: np.ones(1), True),
    "nearest": (lambda m, taps: rectangular_filter(m), False),
    "linear": (lambda m, taps: triangular_filter(m), True),
    "sinc": (sinc_filter, True),
}
WAVELET_KINDS = ("wavelet-lazy", "wavelet-haar", "wavelet-lifting")
KINDS = (*_INTERPOLATORS, "transposed", "subpixel", *WAVELET_KINDS)


@dataclass(frozen=True)
class UpsamplerSpec:
    """Layer kind plus the parameters that kind needs.

    factor is the upsampling ratio M. transposed layers require
    filter_length and stride with factor == stride (the stride is what
    raises the rate); subpixel layers require filter_length; sinc accepts
    an odd tap count of at least 4M+1 (default 8M+1); wavelet-lifting
    requires a LiftingParams triple. seed feeds every random draw.
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
        object.__setattr__(self, "factor", int(self.factor))
        if self.factor < 2:
            raise ValueError(f"upsampling factor must be at least 2, got {self.factor}")
        if self.kind in WAVELET_KINDS and self.factor not in (2, 4):
            raise ValueError(f"wavelet layers support factor 2 or 4, got {self.factor}")
        if self.kind == "transposed":
            if self.filter_length is None or self.stride is None:
                raise ValueError("transposed layers require filter_length and stride")
            object.__setattr__(self, "filter_length", int(self.filter_length))
            object.__setattr__(self, "stride", int(self.stride))
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
            object.__setattr__(self, "filter_length", int(self.filter_length))
            if self.filter_length < 1:
                raise ValueError(f"filter_length must be positive, got {self.filter_length}")
        if self.kind == "sinc" and self.sinc_taps is not None:
            object.__setattr__(self, "sinc_taps", _sinc_taps(self.factor, self.sinc_taps))
        if self.kind == "wavelet-lifting" and self.lifting is None:
            raise ValueError("wavelet-lifting layers require a LiftingParams triple")
        object.__setattr__(self, "seed", int(self.seed))

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
    rng = np.random.Generator(np.random.Philox(spec.seed))
    scale = 1.0 / np.sqrt(spec.filter_length)
    return (2.0 * rng.random(shape) - 1.0) * scale


def largest_array(spec: UpsamplerSpec, channels: int, num_samples: int) -> int:
    """An upper bound on the values of any one array apply allocates for (channels, num_samples) input.

    That is the larger of the output, (K-1)*S+L samples per channel for
    transposed and M*K for every other kind, and C*M*(K+T-1) for a
    polyphase kernel of T taps per branch. The second term bounds the
    filters (at most M*T taps: the FIR prototype, or subpixel's M
    sub-filters of L taps) and the K+T-1 samples np.convolve returns per
    branch. It is computed without allocating, so a caller can refuse a
    size before apply runs.
    """
    m, k = spec.factor, num_samples
    length = m * k
    taps = 1
    if spec.kind == "transposed":
        length = (k - 1) * spec.stride + spec.filter_length
        taps = -(-spec.filter_length // m)
    elif spec.kind == "subpixel":
        taps = spec.filter_length
    elif spec.kind == "linear":  # the 2M-1 triangle; stretch and nearest fit one tap
        taps = 2
    elif spec.kind == "sinc":
        taps = -(-_sinc_taps(m, spec.sinc_taps) // m)
    return channels * max(length, m * (k + taps - 1))


def apply(spec: UpsamplerSpec, x: Signal) -> Signal:
    """Run the configured layer on a signal.

    Interpolators and convolution layers upsample by spec.factor through
    one polyphase kernel call. Wavelet kinds drive the synthesis path with
    the input as the coarsest band and zero detail bands, doubling the
    rate per cascade level.
    """
    if spec.kind in WAVELET_KINDS:
        # Read-only zeros are taken over as they are, so their pages are never touched.
        zeros = [
            Signal(frozen(np.zeros(shape)), rate) for shape, rate in detail_shapes(x, spec.wavelet_levels)
        ]
        return cascade_synthesis(x, zeros, spec.wavelet_base, spec.lifting)
    m = spec.factor
    if spec.kind == "transposed":
        y = convolution._transposed(x.data, random_filters(spec)[0, 0], spec.stride)
    elif spec.kind == "subpixel":
        y = convolution._subpixel(x.data, random_filters(spec)[:, 0])
    else:
        prototype, centred = _INTERPOLATORS[spec.kind]
        h = prototype(m, spec.sinc_taps)
        start = (len(h) - 1) // 2 if centred else 0
        y = convolution._polyphase(x.data, convolution._branches(h, m), start, m * x.num_samples)
    return Signal(y, m * x.sample_rate_hz)


def wavelet_roundtrip(spec: UpsamplerSpec, x: Signal) -> Signal:
    """Analysis followed by synthesis at the spec's cascade depth (same rate)."""
    if spec.kind not in WAVELET_KINDS:
        raise ValueError(f"round trip is defined for wavelet kinds, not {spec.kind!r}")
    coarse, details = cascade_analysis(x, spec.wavelet_base, spec.wavelet_levels, spec.lifting)
    return cascade_synthesis(coarse, details, spec.wavelet_base, spec.lifting)
