"""Interpolation-family layer kinds, run through apply, and their FIR prototypes.

The frequency-domain identities here are checked against plain DFTs of
the generating filters rather than against measured spectra; the measured
comparisons live in the acceptance tests.
"""

import numpy as np
import pytest

from upsample_audit.signals import Signal, white_noise
from upsample_audit.upsamplers import (
    UpsamplerSpec,
    apply,
    rectangular_filter,
    sinc_filter,
    triangular_filter,
)

INTERPOLATORS = pytest.mark.parametrize(
    "kind",
    ["stretch", "nearest", "linear", "sinc"],
    ids=["stretch", "nearest_neighbor", "linear_interpolate", "sinc_interpolate"],
)


def _normalized_dft_db(taps, size=4096):
    mags = np.abs(np.fft.rfft(taps, size))
    mags = np.maximum(mags / mags[0], 1e-15)
    return 20.0 * np.log10(mags)


class TestStretch:
    def test_example(self):
        y = apply(UpsamplerSpec(kind="stretch", factor=4), Signal([1.0, 2.0, 3.0], 8000))
        np.testing.assert_array_equal(
            y.data[0], [1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0]
        )
        assert y.sample_rate_hz == 32000

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_keeps_inputs_on_the_coarse_grid(self, m):
        x = white_noise(37, 8000, 11)
        y = apply(UpsamplerSpec(kind="stretch", factor=m), x)
        assert y.num_samples == 37 * m
        np.testing.assert_array_equal(y.data[0, ::m], x.data[0])
        mask = np.ones(y.num_samples, dtype=bool)
        mask[::m] = False
        assert not y.data[0, mask].any()

    def test_factor_below_two_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            apply(UpsamplerSpec(kind="stretch", factor=1), white_noise(8, 8000, 0))


class TestNearestNeighbor:
    def test_example(self):
        y = apply(UpsamplerSpec(kind="nearest", factor=2), Signal([1.0, 2.0], 8000))
        np.testing.assert_array_equal(y.data[0], [1, 1, 2, 2])

    def test_preserves_constants(self):
        y = apply(UpsamplerSpec(kind="nearest", factor=4), Signal(np.full(16, 0.7), 8000))
        np.testing.assert_array_equal(y.data[0], np.full(64, 0.7))

    @pytest.mark.parametrize("m", [2, 4, 5])
    def test_equals_stretch_followed_by_rect_filter(self, m):
        x = white_noise(50, 8000, 3)
        y = apply(UpsamplerSpec(kind="nearest", factor=m), x)
        up = apply(UpsamplerSpec(kind="stretch", factor=m), x).data[0]
        held = np.convolve(up, rectangular_filter(m))[: 50 * m]
        np.testing.assert_allclose(y.data[0], held, atol=1e-15)


class TestLinear:
    def test_example(self):
        y = apply(UpsamplerSpec(kind="linear", factor=2), Signal([0.0, 1.0, 0.0], 8000))
        np.testing.assert_allclose(y.data[0], [0.0, 0.5, 1.0, 0.5, 0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_passes_through_input_samples(self, m):
        x = white_noise(40, 8000, 5)
        y = apply(UpsamplerSpec(kind="linear", factor=m), x)
        np.testing.assert_allclose(y.data[0, ::m], x.data[0], atol=1e-12)

    def test_midpoints_average_neighbors(self):
        x = Signal([0.0, 4.0, -2.0, 6.0], 8000)
        y = apply(UpsamplerSpec(kind="linear", factor=2), x).data[0]
        np.testing.assert_allclose(y[1:6:2], [2.0, 1.0, 2.0], atol=1e-12)

    def test_triangle_is_rect_convolved_with_rect(self):
        for m in (2, 3, 4, 8):
            rect = rectangular_filter(m)
            tri = triangular_filter(m)
            np.testing.assert_allclose(tri, np.convolve(rect, rect) / m, atol=1e-12)

    def test_triangle_response_is_rect_response_squared(self):
        # In dB the triangle response is exactly twice the rect response,
        # so its replica nulls fall at the same frequencies but twice as deep.
        for m in (2, 4):
            rect_db = _normalized_dft_db(rectangular_filter(m))
            tri_db = _normalized_dft_db(triangular_filter(m))
            keep = (rect_db > -70) & (tri_db > -140)
            np.testing.assert_allclose(tri_db[keep], 2.0 * rect_db[keep], atol=1e-6)


class TestSinc:
    def test_default_tap_count(self):
        assert sinc_filter(4).size == 33
        assert sinc_filter(2).size == 17

    def test_even_taps_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            sinc_filter(4, taps=32)

    def test_short_taps_rejected(self):
        with pytest.raises(ValueError, match="tap count"):
            sinc_filter(4, taps=15)

    @pytest.mark.parametrize("taps,message", [(32, "odd"), (15, "at least 4M")], ids=["even", "short"])
    def test_spec_refuses_bad_taps(self, taps, message):
        with pytest.raises(ValueError, match=message):
            UpsamplerSpec(kind="sinc", factor=4, sinc_taps=taps)

    def test_polyphase_branches_sum_to_one(self):
        for m in (2, 4, 8):
            h = sinc_filter(m)
            for j in range(m):
                assert h[j::m].sum() == pytest.approx(1.0, abs=1e-12)

    def test_constant_input_stays_flat_in_the_interior(self):
        m = 4
        y = apply(UpsamplerSpec(kind="sinc", factor=m), Signal(np.ones(256), 8000))
        taps = sinc_filter(m).size
        interior = y.data[0, taps : y.num_samples - taps]
        np.testing.assert_allclose(interior, 1.0, atol=0.01)
        assert np.max(np.abs(interior - 1.0)) < 1e-9

    def test_custom_tap_count_is_used(self):
        y_short = apply(UpsamplerSpec(kind="sinc", factor=4, sinc_taps=17), white_noise(64, 8000, 2))
        y_long = apply(UpsamplerSpec(kind="sinc", factor=4, sinc_taps=65), white_noise(64, 8000, 2))
        assert np.any(y_short.data != y_long.data)

    def test_stopband_deeper_than_linear(self):
        sinc_db = _normalized_dft_db(sinc_filter(4))
        tri_db = _normalized_dft_db(triangular_filter(4))
        # The windowed sinc needs a transition band; past 1.4x the input
        # Nyquist (bin 704 of 2049 on the 4096-point grid) its worst-case
        # leakage must sit well below the triangle's.
        assert sinc_db[704:].max() < tri_db[704:].max() - 10.0


class TestSharedBehavior:
    @INTERPOLATORS
    def test_rates_and_lengths(self, kind):
        x = white_noise(33, 16000, 8)
        y = apply(UpsamplerSpec(kind=kind, factor=4), x)
        assert y.sample_rate_hz == 64000
        assert y.num_samples == 132

    @INTERPOLATORS
    def test_linearity(self, kind):
        xa = white_noise(64, 8000, 21)
        xb = white_noise(64, 8000, 22)
        mix = Signal(1.25 * xa.data - 0.5 * xb.data, 8000)
        layer = UpsamplerSpec(kind=kind, factor=4)
        lhs = apply(layer, mix).data
        rhs = 1.25 * apply(layer, xa).data - 0.5 * apply(layer, xb).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @INTERPOLATORS
    def test_channels_are_independent(self, kind):
        left = white_noise(48, 8000, 31)
        right = white_noise(48, 8000, 32)
        stereo = Signal(np.vstack([left.data, right.data]), 8000)
        layer = UpsamplerSpec(kind=kind, factor=3)
        y = apply(layer, stereo)
        assert y.channels == 2
        np.testing.assert_array_equal(y.data[0], apply(layer, left).data[0])
        np.testing.assert_array_equal(y.data[1], apply(layer, right).data[0])

    @INTERPOLATORS
    def test_factor_validation(self, kind):
        with pytest.raises(ValueError, match="factor"):
            apply(UpsamplerSpec(kind=kind, factor=1), white_noise(16, 8000, 0))

    def test_dc_gains_match_the_factor(self):
        for m in (2, 4):
            assert rectangular_filter(m).sum() == pytest.approx(m, abs=1e-12)
            assert triangular_filter(m).sum() == pytest.approx(m, abs=1e-12)
            assert sinc_filter(m).sum() == pytest.approx(m, abs=1e-12)
