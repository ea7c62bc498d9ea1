"""Upsampling layers: the filter table (config.py) and the wavelet cascade (wavelets.py).

`apply(UpsamplerSpec(kind=...), x)` runs every kind in `KINDS` as zero
insertion plus one FIR filter per level, read from one table in config.py.
"""

from .config import (
    KINDS,
    WAVELET_KINDS,
    UpsamplerSpec,
    apply,
    apply_blocks,
    largest_array,
    random_filters,
    rectangular_filter,
    sinc_filter,
    triangular_filter,
    wavelet_roundtrip,
    wavelet_roundtrip_blocks,
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
    "apply_blocks",
    "largest_array",
    "random_filters",
    "wavelet_roundtrip",
    "wavelet_roundtrip_blocks",
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
