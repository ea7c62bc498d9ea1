"""Upsampling layers: interpolators, transposed/subpixel convolution, wavelets.

`apply(UpsamplerSpec(kind=...), x)` runs every kind in `KINDS` as zero
insertion plus one FIR filter per level, read from one table in config.py.
"""

from .config import (
    KINDS,
    WAVELET_KINDS,
    UpsamplerSpec,
    apply,
    largest_array,
    random_filters,
    subpixel_conv,
    transposed_conv,
    wavelet_roundtrip,
)
from .convolution import (
    FULL_OVERLAP,
    NO_OVERLAP,
    PARTIAL_OVERLAP,
    classify_overlap,
    periodic_shuffle,
    periodic_unshuffle,
)
from .interpolation import (
    rectangular_filter,
    sinc_filter,
    triangular_filter,
)
from .wavelets import (
    HAAR_PARAMS,
    LAZY_PARAMS,
    LiftingGradients,
    LiftingParams,
    WaveletFilters,
    cascade_analysis,
    cascade_synthesis,
    haar_analysis,
    haar_synthesis,
    lifting_analysis,
    lifting_param_grads,
    lifting_synthesis,
)

__all__ = [
    "KINDS",
    "WAVELET_KINDS",
    "UpsamplerSpec",
    "apply",
    "largest_array",
    "random_filters",
    "wavelet_roundtrip",
    "FULL_OVERLAP",
    "NO_OVERLAP",
    "PARTIAL_OVERLAP",
    "classify_overlap",
    "periodic_shuffle",
    "periodic_unshuffle",
    "subpixel_conv",
    "transposed_conv",
    "rectangular_filter",
    "sinc_filter",
    "triangular_filter",
    "HAAR_PARAMS",
    "LAZY_PARAMS",
    "LiftingGradients",
    "LiftingParams",
    "WaveletFilters",
    "cascade_analysis",
    "cascade_synthesis",
    "haar_analysis",
    "haar_synthesis",
    "lifting_analysis",
    "lifting_param_grads",
    "lifting_synthesis",
]
