"""The dense transposed and subpixel convolution reference, overlap classification, and apply against it."""

import numpy as np
import pytest

from dense_reference import (
    FULL_OVERLAP,
    NO_OVERLAP,
    PARTIAL_OVERLAP,
    classify_overlap,
    periodic_shuffle,
    periodic_unshuffle,
    subpixel_conv,
    transposed_conv,
)
from upsample_audit.signals import Signal, white_noise
from upsample_audit.upsamplers import UpsamplerSpec, apply, random_filters


class TestClassifyOverlap:
    def test_reference_cases(self):
        assert classify_overlap(4, 4) == NO_OVERLAP
        assert classify_overlap(8, 4) == FULL_OVERLAP
        assert classify_overlap(9, 4) == PARTIAL_OVERLAP

    def test_exhaustive_grid_matches_definition(self):
        for length in range(1, 33):
            for stride in range(1, 33):
                got = classify_overlap(length, stride)
                if length == stride:
                    expected = NO_OVERLAP
                elif length > stride and length % stride == 0:
                    expected = FULL_OVERLAP
                else:
                    expected = PARTIAL_OVERLAP
                assert got == expected, (length, stride)

    def test_sub_stride_kernels_fall_in_the_partial_bucket(self):
        assert classify_overlap(3, 4) == PARTIAL_OVERLAP

    def test_nonpositive_arguments_rejected(self):
        with pytest.raises(ValueError):
            classify_overlap(0, 1)
        with pytest.raises(ValueError):
            classify_overlap(4, 0)


class TestTransposedConv:
    def test_impulse_reproduces_the_kernel(self):
        z = Signal(np.array([[1.0]]), 8000)
        w = np.arange(1.0, 6.0).reshape(1, 1, 5)
        y = transposed_conv(z, w, 4)
        np.testing.assert_array_equal(y.data[0], [1, 2, 3, 4, 5])
        assert y.sample_rate_hz == 32000

    def test_full_overlap_sums_neighbor_contributions(self):
        z = Signal(np.array([[1.0, 1.0]]), 8000)
        w = np.ones((1, 1, 8))
        y = transposed_conv(z, w, 4)
        np.testing.assert_array_equal(
            y.data[0], [1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1]
        )

    @pytest.mark.parametrize("steps,length,stride", [(5, 4, 4), (5, 8, 4), (3, 9, 4), (7, 6, 2)])
    def test_output_length(self, steps, length, stride):
        z = Signal(np.arange(float(steps))[None, :], 8000)
        y = transposed_conv(z, np.ones((1, 1, length)), stride)
        assert y.num_samples == (steps - 1) * stride + length

    def test_input_channels_are_summed(self):
        z = Signal(np.array([[1.0, 0.0], [0.0, 1.0]]), 8000)
        w = np.zeros((1, 2, 2))
        w[0, 0] = [1.0, 2.0]
        w[0, 1] = [10.0, 20.0]
        y = transposed_conv(z, w, 2)
        np.testing.assert_array_equal(y.data[0], [1, 2, 10, 20])

    def test_multiple_output_channels(self):
        z = Signal(np.array([[1.0, 2.0]]), 8000)
        w = np.stack([np.ones((1, 2)), 3.0 * np.ones((1, 2))])
        y = transposed_conv(z, w, 2)
        np.testing.assert_array_equal(y.data, [[1, 1, 2, 2], [3, 3, 6, 6]])

    def test_linearity(self):
        w = np.arange(12.0).reshape(1, 1, 12) / 12.0
        za = Signal(white_noise(20, 8000, 1).data, 8000)
        zb = Signal(white_noise(20, 8000, 2).data, 8000)
        mix = Signal(2.0 * za.data - 0.25 * zb.data, 8000)
        lhs = transposed_conv(mix, w, 4).data
        rhs = 2.0 * transposed_conv(za, w, 4).data - 0.25 * transposed_conv(zb, w, 4).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_kernel_shorter_than_stride_rejected(self):
        z = Signal(np.ones((1, 4)), 8000)
        with pytest.raises(ValueError, match="length"):
            transposed_conv(z, np.ones((1, 1, 3)), 4)

    def test_channel_mismatch_rejected(self):
        z = Signal(np.ones((2, 4)), 8000)
        with pytest.raises(ValueError, match="channel"):
            transposed_conv(z, np.ones((1, 1, 4)), 4)

    def test_filter_rank_rejected(self):
        z = Signal(np.ones((1, 4)), 8000)
        with pytest.raises(ValueError, match="filters"):
            transposed_conv(z, np.ones((1, 4)), 4)


class TestPeriodicShuffle:
    def test_example(self):
        z = Signal(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]), 8000)
        y = periodic_shuffle(z, 4)
        np.testing.assert_array_equal(y.data[0], [1, 3, 5, 7, 2, 4, 6, 8])
        assert y.sample_rate_hz == 32000

    def test_identity_for_factor_one(self):
        z = Signal(np.arange(6.0).reshape(2, 3), 8000)
        y = periodic_shuffle(z, 1)
        np.testing.assert_array_equal(y.data, z.data)
        assert y.sample_rate_hz == 8000

    @pytest.mark.parametrize("channels,steps,m", [(4, 8, 2), (6, 5, 3), (8, 16, 8), (2, 1, 2)])
    def test_unshuffle_inverts_shuffle(self, channels, steps, m):
        rng = np.random.Generator(np.random.Philox(99))
        z = Signal(rng.random((channels, steps)), 8000)
        back = periodic_unshuffle(periodic_shuffle(z, m), m)
        np.testing.assert_array_equal(back.data, z.data)
        assert back.sample_rate_hz == 8000

    def test_channel_divisibility_enforced(self):
        z = Signal(np.ones((3, 4)), 8000)
        with pytest.raises(ValueError, match="divisible"):
            periodic_shuffle(z, 2)

    def test_unshuffle_length_divisibility_enforced(self):
        y = Signal(np.ones((1, 5)), 8000)
        with pytest.raises(ValueError, match="divisible"):
            periodic_unshuffle(y, 2)


class TestSubpixelConv:
    def test_single_tap_filters_reduce_to_shuffle(self):
        z = Signal(np.array([[1.0, 2.0], [3.0, 4.0]]), 8000)
        w = np.ones((2, 2, 1)) * np.array([[1.0, 0.0], [0.0, 1.0]])[:, :, None]
        y = subpixel_conv(z, w, 2)
        np.testing.assert_array_equal(y.data[0], [1, 3, 2, 4])

    def test_identical_branch_filters_keep_constants_flat(self):
        z = Signal(np.ones((1, 64)), 8000)
        w = np.tile(np.array([0.2, 0.6, 0.2])[None, None, :], (4, 1, 1))
        y = subpixel_conv(z, w, 4)
        interior = y.data[0, 8:-8]
        np.testing.assert_allclose(interior, 1.0, atol=1e-12)

    def test_distinct_branch_gains_imprint_a_periodic_pattern(self):
        z = Signal(np.ones((1, 32)), 8000)
        w = np.zeros((4, 1, 1))
        w[:, 0, 0] = [1.0, 2.0, 3.0, 4.0]
        y = subpixel_conv(z, w, 4)
        np.testing.assert_array_equal(y.data[0].reshape(-1, 4), np.tile([1, 2, 3, 4], (32, 1)))

    def test_output_geometry(self):
        z = Signal(white_noise(25, 8000, 6).data, 8000)
        y = subpixel_conv(z, np.ones((4, 1, 9)), 4)
        assert y.num_samples == 100
        assert y.sample_rate_hz == 32000
        assert y.channels == 1

    def test_input_shorter_than_the_filter(self):
        x = white_noise(3, 8000, 0)
        spec = UpsamplerSpec(kind="subpixel", factor=4, filter_length=9)
        y = apply(spec, x)
        assert y.num_samples == 12
        assert y.sample_rate_hz == 32000
        w = random_filters(spec)
        branches = [np.convolve(x.data[0], w[j, 0])[4:7] for j in range(4)]
        np.testing.assert_allclose(y.data[0], np.stack(branches, axis=1).reshape(-1), atol=1e-15)

    def test_output_channel_divisibility_enforced(self):
        z = Signal(np.ones((1, 8)), 8000)
        with pytest.raises(ValueError, match="divisible"):
            subpixel_conv(z, np.ones((3, 1, 5)), 2)


@pytest.mark.parametrize("length", ["M", 9, 17])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("kind", ["transposed", "subpixel"])
def test_apply_equals_the_dense_layer_with_diagonal_filters(kind, channels, m, length):
    # apply runs one filter per channel: the dense layer whose filter from
    # channel c to channel o is zero unless o == c.
    length = m if length == "M" else length
    x = Signal(np.random.Generator(np.random.Philox(100 * m + length)).uniform(-1.0, 1.0, (channels, 37)), 8000)
    if kind == "transposed":
        spec = UpsamplerSpec(kind=kind, factor=m, filter_length=length, stride=m, seed=channels)
        w = np.zeros((channels, channels, length))
        w[range(channels), range(channels)] = random_filters(spec)[0, 0]
        want = transposed_conv(x, w, m)
    else:
        spec = UpsamplerSpec(kind=kind, factor=m, filter_length=length, seed=channels)
        w = np.zeros((channels * m, channels, length))
        for c in range(channels):
            w[c * m : (c + 1) * m, c] = random_filters(spec)[:, 0]
        want = subpixel_conv(x, w, m)
    got = apply(spec, x)
    assert got.sample_rate_hz == want.sample_rate_hz
    np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)


class TestRandomFilters:
    def test_deterministic_per_seed(self):
        spec = UpsamplerSpec(kind="transposed", factor=4, filter_length=8, stride=4, seed=5)
        np.testing.assert_array_equal(random_filters(spec), random_filters(spec))

    def test_seeds_differ(self):
        a = random_filters(UpsamplerSpec(kind="transposed", factor=4, filter_length=8, stride=4, seed=1))
        b = random_filters(UpsamplerSpec(kind="transposed", factor=4, filter_length=8, stride=4, seed=2))
        assert np.any(a != b)

    def test_shapes(self):
        t = random_filters(UpsamplerSpec(kind="transposed", factor=4, filter_length=9, stride=4))
        s = random_filters(UpsamplerSpec(kind="subpixel", factor=4, filter_length=9))
        assert t.shape == (1, 1, 9)
        assert s.shape == (4, 1, 9)

    def test_bounds_scale_with_filter_length(self):
        length = 25000
        w = random_filters(UpsamplerSpec(kind="subpixel", factor=4, filter_length=length, seed=3))
        assert w.size == 100000
        bound = 1.0 / np.sqrt(length)
        assert np.max(np.abs(w)) <= bound
        assert w.min() < 0.0 < w.max()
        assert np.max(np.abs(w)) > 0.99 * bound

    def test_rejected_for_filterless_kinds(self):
        with pytest.raises(ValueError, match="filters"):
            random_filters(UpsamplerSpec(kind="stretch", factor=4))
