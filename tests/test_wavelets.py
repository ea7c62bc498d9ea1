"""Wavelet filter banks, the lifting scheme, and the two-level cascade."""

import numpy as np
import pytest

from upsample_audit.signals import Signal, white_noise
from upsample_audit.upsamplers import (
    HAAR_PARAMS,
    LAZY_PARAMS,
    LiftingParams,
    UpsamplerSpec,
    WaveletFilters,
    apply,
    cascade_analysis,
    cascade_synthesis,
    haar_analysis,
    haar_synthesis,
    lifting_analysis,
    lifting_param_grads,
    lifting_synthesis,
    wavelet_roundtrip,
)
from upsample_audit.upsamplers.wavelets import detail_shapes

SQRT2 = np.sqrt(2.0)


def _max_err(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class TestWaveletFilters:
    def test_haar_taps(self):
        f = WaveletFilters.haar()
        np.testing.assert_allclose(f.la, [1 / SQRT2, 1 / SQRT2], atol=1e-15)
        np.testing.assert_allclose(f.ha, [1 / SQRT2, -1 / SQRT2], atol=1e-15)

    def test_synthesis_defaults_to_reversed_analysis(self):
        f = WaveletFilters(la=(0.1, 0.2, 0.3), ha=(1.0, -2.0, 3.0))
        np.testing.assert_array_equal(f.ls, [0.3, 0.2, 0.1])
        np.testing.assert_array_equal(f.hs, [3.0, -2.0, 1.0])

    def test_synthesis_pair_is_not_an_argument(self):
        with pytest.raises(TypeError):
            WaveletFilters(la=(0.5, 0.5), ha=(0.5, -0.5), ls=(1.0, 1.0))


class TestLiftingParams:
    def test_zero_normalization_rejected(self):
        with pytest.raises(ValueError, match="normalization"):
            LiftingParams(p=1.0, u=0.5, a=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["p", "u", "a"])
    def test_non_finite_params_rejected(self, name, bad):
        values = dict(p=1.0, u=0.5, a=1.0)
        values[name] = bad
        with pytest.raises(ValueError, match="lifting parameters must be finite"):
            LiftingParams(**values)

    def test_named_triples(self):
        assert LAZY_PARAMS == LiftingParams(0.0, 0.0, 1.0)
        assert HAAR_PARAMS.p == 1.0
        assert HAAR_PARAMS.u == 0.5
        assert HAAR_PARAMS.a == pytest.approx(SQRT2)


class TestHaarBank:
    def test_constant_pair_goes_to_coarse(self):
        coarse, detail = haar_analysis(Signal([1.0, 1.0], 8000))
        np.testing.assert_allclose(coarse.data[0], [SQRT2], atol=1e-15)
        np.testing.assert_allclose(detail.data[0], [0.0], atol=1e-15)

    def test_alternating_pair_goes_to_detail(self):
        coarse, detail = haar_analysis(Signal([1.0, -1.0], 8000))
        np.testing.assert_allclose(coarse.data[0], [0.0], atol=1e-15)
        np.testing.assert_allclose(detail.data[0], [SQRT2], atol=1e-15)

    def test_band_rates_halve(self):
        coarse, detail = haar_analysis(white_noise(64, 8000, 1))
        assert coarse.sample_rate_hz == 4000
        assert detail.sample_rate_hz == 4000
        assert coarse.num_samples == detail.num_samples == 32

    def test_round_trip(self):
        x = white_noise(1024, 8000, 17)
        y = haar_synthesis(*haar_analysis(x))
        assert _max_err(y.data, x.data) < 1e-9
        assert y.sample_rate_hz == 8000

    def test_energy_is_preserved(self):
        x = white_noise(256, 8000, 23)
        coarse, detail = haar_analysis(x)
        in_energy = float(np.sum(x.data**2))
        out_energy = float(np.sum(coarse.data**2) + np.sum(detail.data**2))
        assert out_energy == pytest.approx(in_energy, rel=1e-12)

    def test_power_complementarity_on_dense_grid(self):
        f = WaveletFilters.haar()
        omega = np.linspace(0.0, np.pi, 4096)
        grid = np.exp(-1j * np.outer(omega, np.arange(2)))
        total = np.abs(grid @ f.ls) ** 2 + np.abs(grid @ f.hs) ** 2
        np.testing.assert_allclose(total, 2.0, atol=1e-9)


class TestLifting:
    def test_lazy_params_split_even_and_odd(self):
        x = Signal(np.arange(8.0), 8000)
        coarse, detail = lifting_analysis(x, LAZY_PARAMS)
        np.testing.assert_array_equal(coarse.data[0], [0, 2, 4, 6])
        np.testing.assert_array_equal(detail.data[0], [1, 3, 5, 7])

    def test_haar_params_match_the_filter_bank(self):
        x = white_noise(512, 8000, 7)
        cl, dl = lifting_analysis(x, HAAR_PARAMS)
        ch, dh = haar_analysis(x)
        assert _max_err(cl.data, ch.data) < 1e-12
        # The detail bands agree up to one global sign flip.
        assert _max_err(dl.data, -dh.data) < 1e-12

    def test_round_trip_for_random_params(self):
        rng = np.random.Generator(np.random.Philox(5))
        x = white_noise(300, 8000, 3)
        for _ in range(10):
            params = LiftingParams(
                p=float(rng.uniform(-2, 2)),
                u=float(rng.uniform(-2, 2)),
                a=float(rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])),
            )
            y = lifting_synthesis(*lifting_analysis(x, params), params)
            assert _max_err(y.data, x.data) < 1e-9

    def test_odd_length_pads_and_trims(self):
        x = white_noise(5, 8000, 2)
        coarse, detail = lifting_analysis(x, HAAR_PARAMS)
        assert coarse.num_samples == detail.num_samples == 3
        assert coarse.padded and detail.padded
        y = lifting_synthesis(coarse, detail, HAAR_PARAMS)
        assert y.num_samples == 5
        assert _max_err(y.data, x.data) < 1e-12


class TestLiftingGradients:
    def test_zero_input_has_zero_gradients(self):
        grads = lifting_param_grads(Signal(np.zeros(16), 8000), HAAR_PARAMS)
        for field in (
            grads.coarse_wrt_p,
            grads.coarse_wrt_u,
            grads.coarse_wrt_a,
            grads.detail_wrt_p,
            grads.detail_wrt_u,
            grads.detail_wrt_a,
        ):
            assert not np.any(field)

    def test_detail_never_depends_on_update(self):
        grads = lifting_param_grads(white_noise(64, 8000, 9), LiftingParams(0.7, -0.3, 1.2))
        assert not np.any(grads.detail_wrt_u)

    def test_update_gradient_at_lazy_point_is_scaled_detail(self):
        x = white_noise(32, 8000, 4)
        params = LiftingParams(p=0.0, u=0.0, a=1.5)
        grads = lifting_param_grads(x, params)
        odd = x.data[:, 1::2]
        np.testing.assert_allclose(grads.coarse_wrt_u, 1.5 * odd, atol=1e-12)

    def test_matches_central_differences(self):
        x = white_noise(64, 8000, 13)
        params = LiftingParams(p=0.8, u=-0.4, a=1.7)
        grads = lifting_param_grads(x, params)
        h = 1e-6

        def bands(p):
            coarse, detail = lifting_analysis(x, p)
            return coarse.data, detail.data

        for name, bump in (("p", (h, 0, 0)), ("u", (0, h, 0)), ("a", (0, 0, h))):
            hi = bands(LiftingParams(params.p + bump[0], params.u + bump[1], params.a + bump[2]))
            lo = bands(LiftingParams(params.p - bump[0], params.u - bump[1], params.a - bump[2]))
            fd_coarse = (hi[0] - lo[0]) / (2 * h)
            fd_detail = (hi[1] - lo[1]) / (2 * h)
            ana_coarse = getattr(grads, f"coarse_wrt_{name}")
            ana_detail = getattr(grads, f"detail_wrt_{name}")
            scale = max(np.max(np.abs(fd_coarse)), np.max(np.abs(fd_detail)), 1e-9)
            assert _max_err(ana_coarse, fd_coarse) / scale < 1e-6
            assert _max_err(ana_detail, fd_detail) / scale < 1e-6


class TestCascade:
    def test_single_level_equals_the_base(self):
        x = white_noise(128, 8000, 21)
        coarse, details = cascade_analysis(x, "haar", 1)
        base_coarse, base_detail = haar_analysis(x)
        assert len(details) == 1
        np.testing.assert_array_equal(coarse.data, base_coarse.data)
        np.testing.assert_array_equal(details[0].data, base_detail.data)

    def test_lazy_two_level_split(self):
        x = Signal(np.arange(8.0), 8000)
        coarse, details = cascade_analysis(x, "lazy", 2)
        np.testing.assert_array_equal(coarse.data[0], [0, 4])
        np.testing.assert_array_equal(details[0].data[0], [2, 6])
        np.testing.assert_array_equal(details[1].data[0], [1, 3, 5, 7])
        assert coarse.sample_rate_hz == 2000
        assert details[0].sample_rate_hz == 2000
        assert details[1].sample_rate_hz == 4000

    @pytest.mark.parametrize("base", ["lazy", "haar"])
    @pytest.mark.parametrize("levels", [1, 2])
    def test_round_trip(self, base, levels):
        x = white_noise(1024, 8000, 31)
        coarse, details = cascade_analysis(x, base, levels)
        y = cascade_synthesis(coarse, details, base)
        assert _max_err(y.data, x.data) < 1e-9
        assert y.sample_rate_hz == 8000

    def test_lifting_round_trip_passes_params_through(self):
        params = LiftingParams(0.3, -0.2, 1.7)
        x = white_noise(512, 8000, 41)
        coarse, details = cascade_analysis(x, "lifting", 2, lifting=params)
        y = cascade_synthesis(coarse, details, "lifting", lifting=params)
        assert _max_err(y.data, x.data) < 1e-9

    def test_details_are_ordered_coarsest_first(self):
        x = white_noise(64, 8000, 51)
        _, details = cascade_analysis(x, "haar", 2)
        assert details[0].num_samples == 16
        assert details[1].num_samples == 32

    def test_stereo_round_trip(self):
        data = np.vstack([white_noise(256, 8000, 61).data, white_noise(256, 8000, 62).data])
        x = Signal(data, 8000)
        coarse, details = cascade_analysis(x, "haar", 2)
        y = cascade_synthesis(coarse, details, "haar")
        assert y.channels == 2
        assert _max_err(y.data, x.data) < 1e-9

    def test_detail_shapes_double_per_level(self):
        coarse = Signal(np.zeros((2, 5)), 4000)
        assert detail_shapes(coarse, 1) == [((2, 5), 4000)]
        assert detail_shapes(coarse, 2) == [((2, 5), 4000), ((2, 10), 8000)]
        padded = Signal(np.zeros((2, 5)), 4000, padded=True)
        assert detail_shapes(padded, 2) == [((2, 5), 4000), ((2, 9), 8000)]

    @pytest.mark.parametrize("padded", [False, True])
    def test_apply_synthesizes_with_zero_details(self, padded):
        x = Signal(np.vstack([white_noise(101, 4000, 71).data, white_noise(101, 4000, 72).data]), 4000, padded)
        y = apply(UpsamplerSpec(kind="wavelet-haar", factor=4), x)
        expected = x
        for _level in range(2):
            expected = haar_synthesis(expected, Signal(np.zeros_like(expected.data), expected.sample_rate_hz))
        assert y.sample_rate_hz == 16000
        assert y.num_samples == (402 if padded else 404)
        np.testing.assert_array_equal(y.data, expected.data)

    @pytest.mark.parametrize("base", ["lazy", "haar", "lifting"])
    @pytest.mark.parametrize("k", [1, 2, 9, 30, 201])
    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("factor", [2, 4])
    def test_apply_is_synthesis_over_zero_detail_bands(self, base, k, padded, factor):
        # Bit for bit: the FIR per level rounds as the synthesis steps do.
        rng = np.random.Generator(np.random.Philox(k + 7 * factor))
        p, u, a = rng.uniform(-2.0, 2.0, 3)
        lifting = LiftingParams(p, u, np.copysign(0.25 + abs(a), a)) if base == "lifting" else None
        x = Signal(rng.uniform(-1.0, 1.0, (2, k)), 4000, padded)
        y = apply(UpsamplerSpec(kind=f"wavelet-{base}", factor=factor, lifting=lifting), x)
        levels = 1 if factor == 2 else 2
        zeros = [Signal(np.zeros(shape), rate) for shape, rate in detail_shapes(x, levels)]
        expected = cascade_synthesis(x, zeros, base, lifting)
        assert (y.data.shape, y.sample_rate_hz, y.padded) == (expected.data.shape, expected.sample_rate_hz, False)
        assert np.array_equal(y.data, expected.data)

    def test_level_validation(self):
        x = white_noise(64, 8000, 0)
        with pytest.raises(ValueError, match="1 or 2"):
            cascade_analysis(x, "haar", 3)
        with pytest.raises(ValueError, match="1 or 2"):
            cascade_analysis(x, "haar", 0)

    def test_base_validation(self):
        with pytest.raises(ValueError, match="base"):
            cascade_analysis(white_noise(64, 8000, 0), "db4", 1)

    def test_lifting_base_requires_params(self):
        with pytest.raises(ValueError, match="lifting"):
            cascade_analysis(white_noise(64, 8000, 0), "lifting", 1)

    def test_odd_rates_are_refused(self):
        with pytest.raises(ValueError, match="even sample rate, got 11025 Hz"):
            wavelet_roundtrip(UpsamplerSpec(kind="wavelet-haar", factor=2), white_noise(64, 11025, 0))
        with pytest.raises(ValueError, match="even sample rate, got 4001 Hz"):
            cascade_analysis(white_noise(64, 8002, 0), "lazy", 2)

    @pytest.mark.parametrize("synthesize", [haar_synthesis, lambda c, d: lifting_synthesis(c, d, HAAR_PARAMS)])
    def test_synthesis_refuses_bands_of_different_shapes(self, synthesize):
        coarse = Signal(np.ones((1, 8)), 8000)
        with pytest.raises(ValueError, match=r"band shapes differ: \(1, 8\) vs \(2, 8\)"):
            synthesize(coarse, Signal(np.ones((2, 8)), 8000))
