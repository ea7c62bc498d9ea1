"""Wavelet downsampling/upsampling: Haar filter bank, lazy wavelet, lifting.

All variants split a signal into a coarse and a detail band at half the
rate and reconstruct exactly (perfect reconstruction). The lifting scheme
implements the split with three scalar parameters (P, U, A) that remain
meaningful as learnable values, so analytic parameter gradients are
provided. Cascading re-applies the base wavelet to the coarse band for
factor-4 operation. With a zero detail band, a synthesis level is zero
insertion plus the base's two-tap lowpass: `apply` runs wavelet kinds that
way (config.py), and synthesis here serves round trips and responses.

Conventions: analysis correlates the input pairs (even, odd) so that a
constant block produces a nonnegative coarse coefficient and a falling
edge produces a nonnegative detail coefficient. With this choice the
lifting realization of Haar (P=1, U=0.5, A=sqrt(2)) reproduces the filter
bank exactly on the coarse band and up to a global sign on the detail
band; both reconstruct perfectly.

Odd-length inputs are zero-padded by one trailing sample before the
split; the pad is flagged on the output bands' metadata and trimmed again
by synthesis. Analysis halves the sample rate exactly, so it refuses odd
rates instead of rounding them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..signals import Signal, frozen, readonly_float64

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class WaveletFilters:
    """Analysis pair (la, ha) and the synthesis pair (ls, hs) derived by time reversal, all read-only."""

    la: np.ndarray
    ha: np.ndarray
    ls: np.ndarray = field(init=False)
    hs: np.ndarray = field(init=False)

    def __post_init__(self):
        la, ha = readonly_float64(self.la), readonly_float64(self.ha)
        if la.ndim != 1 or ha.ndim != 1 or la.size == 0 or ha.size == 0:
            raise ValueError("wavelet filters must be non-empty 1D sequences")
        for name, arr in (("la", la), ("ha", ha), ("ls", la[::-1]), ("hs", ha[::-1])):
            object.__setattr__(self, name, readonly_float64(arr))

    @staticmethod
    def haar() -> "WaveletFilters":
        return WaveletFilters(la=[_INV_SQRT2, _INV_SQRT2], ha=[_INV_SQRT2, -_INV_SQRT2])


@dataclass(frozen=True)
class LiftingParams:
    """Prediction P, update U, and nonzero normalization A."""

    p: float
    u: float
    a: float

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "a", float(self.a))
        if not all(math.isfinite(v) for v in (self.p, self.u, self.a)):
            raise ValueError(f"lifting parameters must be finite, got ({self.p}, {self.u}, {self.a})")
        if self.a == 0.0:
            raise ValueError("normalization A must be nonzero")


LAZY_PARAMS = LiftingParams(p=0.0, u=0.0, a=1.0)
HAAR_PARAMS = LiftingParams(p=1.0, u=0.5, a=math.sqrt(2.0))


@dataclass(frozen=True)
class LiftingGradients:
    """Partial derivatives of the output bands with respect to (P, U, A).

    Arrays are shaped like the bands (channels x half-length). The detail
    band does not depend on U, so detail_wrt_u is identically zero.
    """

    coarse_wrt_p: np.ndarray
    coarse_wrt_u: np.ndarray
    coarse_wrt_a: np.ndarray
    detail_wrt_p: np.ndarray
    detail_wrt_u: np.ndarray
    detail_wrt_a: np.ndarray


def _split(x: Signal):
    """Even/odd polyphase split with zero padding to even length."""
    data = x.data
    padded = bool(data.shape[1] % 2)
    if padded:
        data = np.concatenate([data, np.zeros((data.shape[0], 1))], axis=1)
    return data[:, 0::2], data[:, 1::2], padded


def _band_pair(x: Signal, coarse: np.ndarray, detail: np.ndarray, padded: bool):
    if x.sample_rate_hz % 2:
        raise ValueError(f"wavelet analysis needs an even sample rate, got {x.sample_rate_hz} Hz")
    rate = x.sample_rate_hz // 2
    return Signal(frozen(coarse), rate, padded=padded), Signal(frozen(detail), rate, padded=padded)


def _synthesis_out(coarse: Signal, detail: Signal):
    """The synthesis output, its trailing pad already dropped, and its even and odd samples.

    Synthesis writes the two phases straight into these views; the odd
    view is one sample shorter than the bands when the pad is dropped.
    """
    if coarse.data.shape != detail.data.shape:
        raise ValueError(f"band shapes differ: {coarse.data.shape} vs {detail.data.shape}")
    channels, k = coarse.data.shape
    out = np.empty((channels, 2 * k - (coarse.padded or detail.padded)))
    return out, out[:, 0::2], out[:, 1::2]


def haar_analysis(x: Signal):
    """Split into coarse (e+o)/sqrt(2) and detail (e-o)/sqrt(2) bands."""
    even, odd, padded = _split(x)
    return _band_pair(x, (even + odd) * _INV_SQRT2, (even - odd) * _INV_SQRT2, padded)


def haar_synthesis(coarse: Signal, detail: Signal) -> Signal:
    """Exact inverse of haar_analysis."""
    a, d = coarse.data, detail.data
    out, even, odd = _synthesis_out(coarse, detail)
    n = odd.shape[1]
    np.multiply(np.add(a, d, out=even), _INV_SQRT2, out=even)
    np.multiply(np.subtract(a[:, :n], d[:, :n], out=odd), _INV_SQRT2, out=odd)
    return Signal(frozen(out), 2 * coarse.sample_rate_hz)


def lifting_analysis(x: Signal, params: LiftingParams):
    """Split, predict, update, normalize: d = o - P*e; c = e + U*d; out (A*c, d/A)."""
    even, odd, padded = _split(x)
    d = odd - params.p * even
    c = even + params.u * d
    return _band_pair(x, params.a * c, d / params.a, padded)


def lifting_synthesis(coarse: Signal, detail: Signal, params: LiftingParams) -> Signal:
    """Exact inverse of lifting_analysis for any nonzero A.

    d = A*detail, c = coarse/A, even = c - U*d, odd = d + P*even. d is
    built in the odd samples unless a pad is dropped there.
    """
    out, even, odd = _synthesis_out(coarse, detail)
    n = odd.shape[1]
    d = np.multiply(params.a, detail.data, out=odd if n == even.shape[1] else None)
    np.divide(coarse.data, params.a, out=even)
    np.subtract(even, params.u * d, out=even)
    np.add(d[:, :n], params.p * even[:, :n], out=odd)
    return Signal(frozen(out), 2 * coarse.sample_rate_hz)


def lifting_param_grads(x: Signal, params: LiftingParams) -> LiftingGradients:
    """Analytic partials of lifting_analysis outputs with respect to P, U, A.

    With e, o the polyphase phases, d = o - P*e and c = e + U*d:
      d(A*c)/dP = -A*U*e      d(d/A)/dP = -e/A
      d(A*c)/dU = A*d         d(d/A)/dU = 0
      d(A*c)/dA = c           d(d/A)/dA = -d/A^2
    """
    even, odd, _ = _split(x)
    d = odd - params.p * even
    c = even + params.u * d
    return LiftingGradients(
        coarse_wrt_p=-params.a * params.u * even,
        coarse_wrt_u=params.a * d,
        coarse_wrt_a=c,
        detail_wrt_p=-even / params.a,
        detail_wrt_u=np.zeros_like(d),
        detail_wrt_a=-d / params.a**2,
    )


_BASES = ("lazy", "haar", "lifting")


def _resolve_base(base: str, lifting: LiftingParams | None):
    if base not in _BASES:
        raise ValueError(f"unknown wavelet base {base!r}, expected one of {_BASES}")
    if base == "haar":
        return haar_analysis, haar_synthesis
    params = LAZY_PARAMS if base == "lazy" else lifting
    if params is None:
        raise ValueError("lifting base requires LiftingParams")
    return lambda x: lifting_analysis(x, params), lambda c, d: lifting_synthesis(c, d, params)


def cascade_analysis(x: Signal, base: str, levels: int, lifting: LiftingParams | None = None):
    """Apply the base wavelet `levels` times, re-splitting the coarse band.

    Returns (coarse, details) with details ordered coarsest first, so
    cascade_synthesis folds them back in list order. Each level pads
    odd-length input independently and flags its own bands.
    """
    if levels not in (1, 2):
        raise ValueError(f"cascade depth must be 1 or 2, got {levels}")
    analyze, _ = _resolve_base(base, lifting)
    coarse = x
    details = []
    for _level in range(levels):
        coarse, detail = analyze(coarse)
        details.append(detail)
    details.reverse()
    return coarse, details


def detail_shapes(coarse: Signal, levels: int) -> list:
    """(shape, rate) of each detail band cascade_synthesis folds into coarse, coarsest first.

    Band l has K * 2**l samples per channel at fs * 2**l, K and fs being the
    coarse band's length and rate, less 2**l // 2 if the coarse band is
    padded (synthesis drops that pad at the first level).
    """
    channels, k = coarse.data.shape
    pad = int(coarse.padded)
    return [
        ((channels, k * 2**level - pad * 2**level // 2), coarse.sample_rate_hz * 2**level)
        for level in range(levels)
    ]


def cascade_synthesis(coarse: Signal, details, base: str, lifting: LiftingParams | None = None) -> Signal:
    """Inverse of cascade_analysis; `details` ordered coarsest first."""
    if not 1 <= len(details) <= 2:
        raise ValueError(f"cascade depth must be 1 or 2, got {len(details)} detail bands")
    _, synthesize = _resolve_base(base, lifting)
    out = coarse
    for detail in details:
        out = synthesize(out, detail)
    return out
