"""The numpy CSV writer against np.savetxt(fmt="%.6f", delimiter=",", newline="\\n"), byte for byte."""

import numpy as np
import pytest

from upsample_audit import analysis as ana
from upsample_audit import cli
from upsample_audit.signals import BLOCK_BYTES, white_noise

COLUMNS = 257
BLOCK = BLOCK_BYTES // (64 * COLUMNS)  # rows per formatting block at this width


def _assert_same_bytes(tmp_path, matrix):
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    np.savetxt(want, matrix, fmt="%.6f", delimiter=",", newline="\n")
    cli._write_csv(got, matrix)
    assert got.read_bytes() == want.read_bytes()


def _halves():
    """Values whose exact or rounded product with 1e6 sits at a half, and their float neighbours."""
    exact = np.arange(-2000, 2000) / 128.0  # multiples of 2^-7: ...5 in the 7th decimal, exactly
    near = (np.arange(-3000, 3000) + 0.5) / 1e6
    # 9.9999995 * 1e6 rounds to 9999999.5 while the double itself lies below it.
    nines = np.array([9.9999995, 99.9999995, 0.4731885, 0.0000005, 0.0000015, 2.5e-6, 123.4567895])
    centre = np.concatenate([exact, near, nines, -nines])
    return np.concatenate([centre, np.nextafter(centre, np.inf), np.nextafter(centre, -np.inf)])


@pytest.mark.parametrize(
    "values, in_table",
    [
        (_halves(), True),
        (np.array([-0.0, 0.0, -1e-9, -4.999e-7, -5e-7, 5e-7, -5.000001e-7, 1e-300, -1e-300]), True),
        (np.array([ana.DB_FLOOR, -120.0000004, -119.9999996, -99.9999996, 0.0, 771.0, 999.9999989]), True),
        (np.array([999.9999994, 999.9999995, 999.9999996, -999.9999996, 1000.0, -1000.0]), False),
        (np.array([1e9, -1e9, 123456789.125, 1e15, -3.5e20, 1.7976931348623157e308]), False),
    ],
    ids=["halves", "signed-zeros", "db-floor", "near-1000", "fallback"],
)
def test_values_format_as_savetxt(tmp_path, values, in_table):
    # Blocks whose every |x| is below 999.999999 take the digit tables; others take "%".
    assert (np.abs(values).max() < 999.999999) == in_table
    for columns in (1, 7):
        rows = -(-values.size // columns)
        _assert_same_bytes(tmp_path, np.resize(values, (rows, columns)))


@pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_blocks_of_frames_format_as_savetxt(tmp_path, rows):
    rng = np.random.Generator(np.random.Philox(rows))
    matrix = np.maximum(20.0 * np.log10(np.abs(rng.standard_normal((rows, COLUMNS)))), ana.DB_FLOOR)
    matrix[rows // 2, ::3] = ana.DB_FLOOR
    matrix[-1, 1] = -0.0
    _assert_same_bytes(tmp_path, matrix)


def test_a_block_with_a_fallback_value_keeps_its_neighbours(tmp_path):
    rng = np.random.Generator(np.random.Philox(9))
    matrix = rng.uniform(-130.0, 10.0, (BLOCK + 5, COLUMNS))
    matrix[BLOCK + 2, 7] = 2.5e9  # only the second block takes the "%" path
    _assert_same_bytes(tmp_path, matrix)


def test_spectrogram_formats_as_savetxt(tmp_path):
    _assert_same_bytes(tmp_path, ana.spectrogram(white_noise(1 << 18, 32000, 4)).magnitudes_db)
