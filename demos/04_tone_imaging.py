"""Imaging of a pure tone: where zero-insertion puts the copies.

Upsampling a tone at f0 by zero insertion mirrors it around every multiple
of the input rate: for f0 = 1 kHz at 8 kHz input and x4 upsampling the
output band holds lines at 1, 7, 9, and 15 kHz. A good interpolation filter
keeps the 1 kHz line and attenuates the images; stretch keeps all four at
full strength.

Run: python3 demos/04_tone_imaging.py
"""

import numpy as np

from upsample_audit import analysis as ana
from upsample_audit.signals import tone
from upsample_audit.upsamplers import UpsamplerSpec, apply

FS_IN = 8000
FACTOR = 4
F0 = 1000.0


def line_levels(spectrum, freqs):
    out = []
    for f in freqs:
        center = spectrum.bin_of(f)
        window = spectrum.magnitude_db[max(center - 2, 0) : center + 3]
        out.append(float(window.max()))
    return out


def main():
    x = tone(8192, FS_IN, F0)
    expected = [F0]
    for k in range(1, FACTOR // 2 + 1):
        for image in (k * FS_IN - F0, k * FS_IN + F0):
            if image <= FACTOR * FS_IN / 2:
                expected.append(image)
    print(f"{F0:.0f} Hz tone at {FS_IN} Hz, upsampled x{FACTOR}.")
    print(f"Predicted line positions: {[int(f) for f in expected]} Hz")
    print()

    for kind in ("stretch", "sinc"):
        spectrum = ana.avg_spectrum(apply(UpsamplerSpec(kind=kind, factor=FACTOR), x))
        levels = line_levels(spectrum, expected)
        carrier = levels[0]
        print(f"{kind}:")
        for f, level in zip(expected, levels):
            rel = level - carrier
            marker = "carrier" if f == F0 else f"{rel:+.1f} dB vs carrier"
            print(f"  {f:7.0f} Hz  {level:8.2f} dB  ({marker})")
        print()

    print("Stretch reproduces every image at the carrier level, which is the")
    print("spectral signature listeners describe as metallic ringing. The sinc")
    print("interpolator leaves the images 30+ dB down, trading a little")
    print("passband ripple for a clean top octave.")


if __name__ == "__main__":
    main()
