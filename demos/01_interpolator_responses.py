"""Measured vs analytic frequency responses of the interpolation layers.

Each interpolator is a zero-insertion upsampler followed by a fixed FIR
filter (rect for nearest, triangle for linear, windowed sinc). The measured
response is estimated by averaging Welch power spectra of upsampled white
noise; the analytic response is a plain DFT of the defining filter. The two
should agree everywhere except right at the replica nulls, where any finite
measurement bottoms out in leakage.

Run: python3 demos/01_interpolator_responses.py
"""

import numpy as np

from upsample_audit import analysis as ana
from upsample_audit.upsamplers import (
    UpsamplerSpec,
    rectangular_filter,
    sinc_filter,
    triangular_filter,
)

FS_IN = 8000
FACTOR = 4


def main():
    filters = {
        "nearest": rectangular_filter(FACTOR),
        "linear": triangular_filter(FACTOR),
        "sinc": sinc_filter(FACTOR),
    }

    print(f"Interpolators at x{FACTOR}, input rate {FS_IN} Hz, output rate {FACTOR * FS_IN} Hz")
    print(f"Replica offsets to watch: {ana.replica_frequencies(FS_IN, FACTOR)} Hz")
    print()

    for kind, taps in filters.items():
        spec = UpsamplerSpec(kind=kind, factor=FACTOR)
        measured = ana.measure_response(spec, FS_IN)
        analytic = ana.analytic_response(taps, 512, FACTOR * FS_IN)
        keep = ana.null_exclusion_mask(analytic.magnitude_db)
        diff = np.max(np.abs(measured.magnitude_db[keep] - analytic.magnitude_db[keep]))

        print(f"{kind}: {taps.size} taps, DC gain {taps.sum():.3f}")
        print(f"  measured vs analytic, worst kept bin: {diff:.3f} dB "
              f"({np.count_nonzero(~keep)} of {keep.size} bins excluded around nulls)")
        grid = np.linspace(0.0, FACTOR * FS_IN / 2.0, 9)
        idx = [measured.bin_of(f) for f in grid]

        def row(db):
            return "  ".join(f"{db[i]:8.2f}" if db[i] > -120 else "    null" for i in idx)

        print("  f (Hz):   " + "  ".join(f"{measured.freqs_hz[i]:8.0f}" for i in idx))
        print("  meas dB:  " + row(measured.magnitude_db))
        print("  anal dB:  " + row(analytic.magnitude_db))
        print()

    print("Reading the table: nearest keeps broad shoulders around every replica,")
    print("linear doubles the null depth (its triangle is rect convolved with rect),")
    print("and the windowed sinc pushes the whole stopband 30+ dB down while")
    print("staying flat across the original band.")


if __name__ == "__main__":
    main()
