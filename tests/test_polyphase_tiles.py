"""The tiled polyphase kernel against the whole-row kernel it replaced.

`config._polyphase` fills a block of output columns one tile of output
rows at a time: each tile reads its span of the input once, and every
branch convolves that read. `_one_shot` below is the whole-row form: one
np.convolve per branch and row, copied into every M-th output sample.
Both must give the same bits, the sign of zero included, for every layer
kind, for tiles of 1, T-1, T and T+1 rows, for rows shorter than T and one
row either side of a tile, for windows that start off a multiple of M,
for padded wavelet input, and through `apply` with blocks of a few
columns, so that tiles straddle blocks and each cascade level reads its
input in pieces.
"""

import numpy as np
import pytest

from upsample_audit import signals as sig
from upsample_audit.signals import Signal
from upsample_audit.upsamplers import KINDS, LiftingParams, UpsamplerSpec, apply, config
from upsample_audit.upsamplers.config import WAVELET_KINDS, layer_filter


def _kernel(x, h, m, start, length, out):
    """config._polyphase on the rows of x over columns [0, length) of the window that starts at `start`."""
    config._polyphase(Signal(x, 1), m, h, start, None, out, slice(0, length))
    return out


def _one_shot(x, h, m, start, length):
    """Rows of x zero-inserted by m and filtered by h in one np.convolve per branch and row."""
    branches = np.pad(h, (0, -len(h) % m)).reshape(-1, m).T
    out = np.zeros((x.shape[0], length))
    for j in np.flatnonzero(branches.any(axis=1)):
        first = -(-(start - j) // m)
        n0 = first * m + j - start
        count = len(range(n0, length, m))
        for c in range(x.shape[0]):
            out[c, n0::m] = np.convolve(x[c], branches[j])[first : first + count]
    return out


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _input(channels, k, seed):
    x = np.random.Generator(np.random.Philox(seed)).standard_normal((channels, k))
    x[:, ::7] = -0.0
    return x


def _spec(kind, factor):
    return UpsamplerSpec(
        kind=kind,
        factor=factor,
        filter_length=9 if kind in ("transposed", "subpixel") else None,
        stride=factor if kind == "transposed" else None,
        sinc_taps=4 * factor + 3 if kind == "sinc" else None,  # starts at 2M+1, off a multiple of M
        lifting=LiftingParams(0.5, 0.25, 1.2) if kind == "wavelet-lifting" else None,
    )


def _taps(h, m):
    return -(-len(h) // m)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tile", ["1", "T-1", "T", "T+1"])
def test_every_kind_matches_the_whole_row_kernel(monkeypatch, kind, tile):
    spec = _spec(kind, 4)
    m, h = next(layer_filter(spec, 1))[:2]
    t = _taps(h, m)
    rows = max(1, {"1": 1, "T-1": t - 1, "T": t, "T+1": t + 1}[tile])
    monkeypatch.setattr(config, "_TILE", rows * m)
    for num_samples in sorted({t - 1, rows - 1, rows + 1, 3 * rows + 2} - {0}):
        for padded in (False, True) if kind in WAVELET_KINDS else (False,):
            x = want = _input(2, num_samples, seed=num_samples)
            for m, h, start, length, divisor in layer_filter(spec, num_samples, padded):
                if divisor is not None:
                    x, want = x / divisor, want / divisor
                got = _kernel(x, h, m, start, length, np.empty((2, length)))
                want = _one_shot(want, h, m, start, length)
                _assert_same_bits(got, want)
                x = got


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("taps", [1, 4, 11])
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
def test_any_window_and_tile_matches_the_whole_row_kernel(monkeypatch, m, taps, rows):
    rng = np.random.Generator(np.random.Philox(m * 100 + taps * 10 + rows))
    h = rng.standard_normal(taps)
    h[rng.random(taps) < 0.3] = 0.0  # some all-zero branches
    t = _taps(h, m)
    monkeypatch.setattr(config, "_TILE", rows * m)
    for k in (1, max(1, t - 1), t, rows - 1, rows + 1, 4 * rows + t):
        if k < 1:
            continue
        x = _input(2, k, seed=k)
        full = m * (k + t - 1)
        for start in range(min(full, 2 * m + 1)):
            for length in (1, m + 1, full - start):
                if 1 <= length <= full - start:
                    _assert_same_bits(_kernel(x, h, m, start, length, np.empty((2, length))), _one_shot(x, h, m, start, length))


def test_all_zero_filter_gives_zeros(monkeypatch):
    monkeypatch.setattr(config, "_TILE", 3)
    out = _kernel(_input(1, 10, seed=0), np.zeros(5), 3, 2, 20, np.empty((1, 20)))
    _assert_same_bits(out, np.zeros((1, 20)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tile", ["1", "T-1", "T", "T+1"])
def test_tiles_that_straddle_blocks_match_the_whole_row_chain(monkeypatch, kind, tile):
    # Blocks of a few columns, so tiles are cut at block edges and each level reads its input in pieces.
    spec = _spec(kind, 4)
    m, h = next(layer_filter(spec, 1))[:2]
    t = _taps(h, m)
    rows = max(1, {"1": 1, "T-1": t - 1, "T": t, "T+1": t + 1}[tile])
    monkeypatch.setattr(config, "_TILE", rows * m)
    for block_bytes in (64, 96, 256):
        monkeypatch.setattr(sig, "BLOCK_BYTES", block_bytes)
        for channels in (1, 2):
            for num_samples in sorted({2 * t + 1, 2 * rows + 3, 37}):
                for padded in (False, True) if kind in WAVELET_KINDS else (False,):
                    x = want = _input(channels, num_samples, seed=num_samples + channels)
                    for m, h, start, length, divisor in layer_filter(spec, num_samples, padded):
                        if divisor is not None:
                            want = want / divisor
                        want = _one_shot(want, h, m, start, length)
                    _assert_same_bits(apply(spec, Signal(x, 8000, padded)).data, want)
