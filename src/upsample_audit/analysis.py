"""Spectral analysis and artifact forensics.

One STFT front end (_stft: windowed frames of a mono mixdown, |rFFT| per
frame) feeds spectrogram and two estimator families, which average its
frames differently on purpose. The front end reads its input, a Signal
(whose reads are views) or signals.Blocks (a WAV file read by analyze),
as it is, mixes each read down and judges cancelling channels itself, so
a Signal and a file are refused alike. It yields the frames in blocks of
about BLOCK_BYTES / SLOTS. Each frame block reads its own samples, so
blocks are computed apart: signals.ordered_map runs the pure per-block
work (read, mixdown, window, rFFT, |.|, the dB and a sink's prepare) on
one worker thread per CPU the process may use, up to SLOTS, made for the
pass and joined when it ends (inline for a pass of at most 2 * SLOTS
blocks). Each block's samples, mixdown and dB are arrays of the worker
call's own; its windowed frames and magnitudes go into the buffers of
one of at most SLOTS slots allocated once per pass, and the blocks are
handed back in frame order. What depends on order stays in the one
consumer loop: adding each block's channel energies, storing its dB or
exports, and summing its frames.
Where blocks split depends on the input and the framing only, so the bits
do not depend on the worker count, and besides its result an analysis
holds about the same few BLOCK_BYTES on any number of CPUs however long
the signal is. The per-bin sums carry their running total as
the first row of the next block's reduction, so they equal one sum over
all frames bit for bit.
spectrogram, avg_spectrum and analyze all run _spectrogram_stream; with
the Hann window and a hop that divides window/2 it gives the spectrogram
and the average from one pass: the frames avg_spectrum would take are a
subset of the spectrogram's, summed as they stream past.

* avg_spectrum averages per-frame STFT magnitudes (Hann, 50% overlap).
  It feeds the artifact metrics (tonal prominence, band attenuation),
  where the quantities of interest sit tens of dB above its bias floor.
* measure_response averages per-frame power (Welch) over many seeded
  noise realizations and trims convolution edge transients first. Power
  averaging keeps the DC bin statistically consistent with the interior
  bins (a real-valued bin's mean magnitude sits about 0.9 dB below a
  complex bin's at equal power, which would skew the DC normalization),
  and edge trimming removes the broadband transient floor that would
  otherwise mask deep stopbands.

Measured responses are only compared away from response nulls: at and
next to a null the estimate is limited by window leakage and averaging
variance, not by the layer. null_exclusion_mask operationalizes that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import (
    BLOCK_BYTES, SLOTS, Signal, _all_finite, _integer, frame_blocks, frozen, ordered_map,
    readonly_float64, white_noise,
)
from .upsamplers.config import WAVELET_KINDS, UpsamplerSpec, _check_factor, apply
from .upsamplers.wavelets import LiftingParams, cascade_analysis, cascade_synthesis, detail_shapes

DB_FLOOR = -120.0
_MAG_FLOOR = 10.0 ** (DB_FLOOR / 20.0)

_WINDOWS = {"hann": np.hanning, "rect": np.ones}

def _stft(x, window_size: int, hop: int, window: str = "hann") -> tuple:
    """Check the framing of x (a Signal or Blocks); return the window, the frame count and the pass,
    `blocks(post=None)`.

    The pass yields (rows, |rFFT| of those windowed frames, post(rows,
    that |rFFT| block) or None) in frame order. A block holds about
    BLOCK_BYTES / SLOTS of windowed frames or of samples read, whichever
    is more, so a pass's slots hold about the same bytes on any number of
    CPUs. Each block reads its own samples [rows.start*hop,
    (rows.stop-1)*hop + window_size) of x and mixes them down (_mono: the
    channel mean is taken per column, so it is the whole mixdown's bits),
    so blocks are computed apart, by signals.ordered_map on the CPUs the
    process may use, up to SLOTS; reads overlap by window_size - hop
    samples. A block's read, mixdown, windowing, rFFT, |.| and post run in
    a worker, the samples and the mixdown into arrays of the call's own.
    Its slot, allocated once per pass, keeps the magnitudes, which outlive
    the call, and windowed frames, about BLOCK_BYTES/16, which serve each
    part the worker windows and transforms its block in: fresh ones would
    be faulted in again by each of verify's many small passes. Only the
    rFFT's complex result is made per such part. A slot is filled again
    only after the consumer has asked for the block after the one it
    holds, so a block's arrays are valid until then. Channels that cancel
    are refused on energies each block sums over its samples
    [rows.start*hop, rows.stop*hop), added in frame order, the tail past
    the last frame (read and checked after the last block) over the rest:
    each sample counts once. This is the one place analysis mixes down and
    refuses cancelling channels, a Signal's and a file's.
    """
    if window_size < 2 or window_size & (window_size - 1):
        raise ValueError(f"window size must be a power of two, got {window_size}")
    if not 1 <= hop <= window_size:
        raise ValueError(f"hop must be in [1, window_size], got {hop}")
    if window not in _WINDOWS:
        raise ValueError(f"unknown window {window!r}, expected one of {tuple(_WINDOWS)}")
    if x.num_samples < window_size:  # before the window is built, so a huge window_size allocates nothing
        raise ValueError(f"window of {window_size} samples exceeds signal length {x.num_samples}")
    w = _WINDOWS[window](window_size)
    if not w.sum() > 0:
        raise ValueError(f"{window} window of {window_size} samples has no positive sum")
    frames = (x.num_samples - window_size) // hop + 1
    row_bytes = w.itemsize * window_size
    frame_bytes = max(row_bytes, 8 * hop * x.channels)  # a frame's windowed samples, or its share of a read

    def blocks(post=None):
        slices = list(frame_blocks(frames, SLOTS * frame_bytes))
        most = max(rows.stop - rows.start for rows in slices)
        shape = (most, window_size // 2 + 1)
        part = max(at.stop - at.start for at in frame_blocks(most, 16 * row_bytes))  # frames windowed at once

        def slot():
            return np.empty((part, window_size)), np.empty(shape)

        def stft_block(slot, rows):  # in a worker
            windowed, mags = slot
            first, stop = rows.start * hop, (rows.stop - 1) * hop + window_size
            seg, energies = _mono(x.read(slice(first, stop)), rows.stop * hop - first)
            view = np.lib.stride_tricks.sliding_window_view(seg, window_size)[::hop]
            for at in frame_blocks(len(view), 16 * row_bytes):
                np.abs(np.fft.rfft(np.multiply(view[at], w, out=windowed[: at.stop - at.start]), axis=1),
                       out=mags[at])
            mags = mags[: len(view)]
            return rows, mags, None if post is None else post(rows, mags), energies

        energies = np.zeros(x.channels + 1)
        for rows, mags, made, summed in ordered_map(stft_block, slices, slot):
            if summed is not None:
                energies += summed
            yield rows, mags, made
        tail = _mono(x.read(slice(frames * hop, x.num_samples)), x.num_samples)[1]
        if tail is not None:
            energies += tail
        _refuse_cancelling(energies)

    return w, frames, blocks


def _sum_frames(blocks) -> np.ndarray:
    """Per-bin sum of a stream of frames x bins blocks.

    numpy sums axis 0 row by row, so starting each block's sum from the
    running total as its first row keeps one sum's order of additions.
    """
    total = None
    for block in blocks:
        rows = block if total is None else np.concatenate((total[np.newaxis], block))
        total = rows.sum(axis=0)
    return total


def _rfft_freqs(sample_rate_hz: int, window_size: int) -> np.ndarray:
    """Bin centers of a window_size-point rFFT: 0 to Nyquist inclusive."""
    return np.linspace(0.0, sample_rate_hz / 2.0, window_size // 2 + 1)


def _to_db(magnitudes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """20 log10 of the magnitudes floored at DB_FLOOR, made in `out` (which may be magnitudes) if given."""
    db = np.maximum(magnitudes, _MAG_FLOOR, out=out)
    np.log10(db, out=db)
    db *= 20.0
    return db


def _mono(block: np.ndarray, counted: int) -> tuple:
    """(the channel mean of a (channels, cols) block, its energies): analysis is mono.

    The mean is a view of the block's row if mono, else an array of its
    own. The energies, the mixdown's and then each channel's, are summed
    over the block's first `counted` columns by a numpy reduction, not
    BLAS, whose threads would change their rounding; a mono block has None.
    """
    if len(block) == 1:
        return block[0], None
    mix = np.mean(block, axis=0)
    return mix, np.array([np.einsum("i,i->", row[:counted], row[:counted]) for row in (mix, *block)])


def _refuse_cancelling(energies: np.ndarray) -> None:
    """Refuse channels that cancel in the mean (mixdown energy more than 20 dB below the mean channel
    energy), which would read as silence."""
    channels = len(energies) - 1
    if energies[0] < 0.01 * (sum(energies[1:]) / channels):
        raise ValueError(
            f"the {channels} channels cancel in the mixdown: its energy is more than 20 dB below theirs"
        )


@dataclass(frozen=True)
class Spectrogram:
    """Frames x bins magnitude matrix in dB, floored at -120 dB.

    Magnitudes are |FFT| / sum(window), so a unit-amplitude complex
    exponential at a bin center reads 0 dB.

    The matrix is stored read-only under Signal's ownership rule: a
    read-only, C-contiguous float64 array that owns its data is taken over
    as it is, and any other input is copied (`signals.readonly_float64`).
    """

    magnitudes_db: np.ndarray
    sample_rate_hz: int
    window_size: int
    hop: int
    window_kind: str

    def __post_init__(self):
        arr = readonly_float64(self.magnitudes_db)
        if arr.ndim != 2:
            raise ValueError("spectrogram matrix must be 2D (frames x bins)")
        if arr.shape[1] != self.window_size // 2 + 1:
            raise ValueError(
                f"bin count {arr.shape[1]} does not match window size {self.window_size}"
            )
        if not _all_finite(arr):
            raise ValueError("spectrogram magnitudes must be finite")
        object.__setattr__(self, "magnitudes_db", arr)

    @property
    def num_frames(self) -> int:
        return self.magnitudes_db.shape[0]

    @property
    def num_bins(self) -> int:
        return self.magnitudes_db.shape[1]

    @property
    def freqs_hz(self) -> np.ndarray:
        return _rfft_freqs(self.sample_rate_hz, self.window_size)


def spectrogram(x: Signal, window_size: int = 512, hop: int = 128, window: str = "hann") -> Spectrogram:
    """Magnitude STFT in dB. window_size must be a power of two, hop <= window_size."""
    window_size, hop = _integer("window_size", window_size), _integer("hop", hop)
    db, _ = _spectrogram_stream(x, window_size, hop, window,
                                lambda frames: np.empty((frames, window_size // 2 + 1)), False)
    return Spectrogram(frozen(db), x.sample_rate_hz, window_size, hop, window)


def _freeze_grid(spectrum) -> None:
    """Store a (freqs_hz, magnitude_db) pair read-only under Signal's ownership rule, and check it."""
    freqs, db = readonly_float64(spectrum.freqs_hz), readonly_float64(spectrum.magnitude_db)
    if freqs.ndim != 1 or db.shape != freqs.shape:
        raise ValueError("frequency grid and magnitudes must be matching 1D arrays")
    if np.any(np.diff(freqs) <= 0):
        raise ValueError("frequency grid must be strictly ascending")
    object.__setattr__(spectrum, "freqs_hz", freqs)
    object.__setattr__(spectrum, "magnitude_db", db)


@dataclass(frozen=True)
class AveragedSpectrum:
    """Welch-style averaged magnitude spectrum in dB on an ascending Hz grid."""

    freqs_hz: np.ndarray
    magnitude_db: np.ndarray
    sample_rate_hz: int
    num_frames: int

    def __post_init__(self):
        _freeze_grid(self)

    @property
    def num_bins(self) -> int:
        return self.freqs_hz.size

    def bin_of(self, freq_hz: float) -> int:
        """Index of the bin nearest freq_hz on the uniform 0..Nyquist grid."""
        nyquist = self.sample_rate_hz / 2.0
        if not 0.0 <= freq_hz <= nyquist:
            raise ValueError(f"candidate {freq_hz} Hz outside [0, {nyquist}] Hz")
        return int(round(freq_hz / nyquist * (self.num_bins - 1)))


def avg_spectrum(x: Signal, window_size: int = 512) -> AveragedSpectrum:
    """Mean per-frame STFT magnitude: Hann window, 50% overlap, at least 16 frames."""
    window_size = _integer("window_size", window_size)
    return _spectrogram_stream(x, window_size, window_size // 2, "hann", None, True)[1]


def _spectrogram_stream(x, window_size: int, hop: int, window: str, out, average: bool) -> tuple:
    """(out(frames) given every block of the spectrogram in dB of x, a Signal or Blocks, or None if out is
    None or gives None; the avg_spectrum if `average`).

    out(frames) gives the sink: an array, an object with `prepare(db)` and
    `[rows] =`, or None, for which no block's dB is taken; an array's
    prepare is the identity. Its prepare runs in _stft's workers on each
    block's dB, made in an array of its own, and may overwrite it; the one
    consumer loop stores prepare's results `sink[rows] = made` in frame
    order and, when averaging, sums every (window_size/2 // hop)-th frame,
    the avg_spectrum's frames, as they stream past. So with the Hann
    window and a hop that divides window_size/2 one pass serves both, and
    both equal the whole-array spectrogram and avg_spectrum bit for bit;
    otherwise the avg_spectrum's own pass (hop window_size/2, out None)
    and its errors come first.
    """
    half = window_size // 2
    # The average's own pass takes the shared branch even where _stft refuses its window, so no loop.
    if average and (window, hop) != ("hann", half) and (window != "hann" or hop < 1 or half % hop):
        spectrum = _spectrogram_stream(x, window_size, half, "hann", None, True)[1]
        return _spectrogram_stream(x, window_size, hop, window, out, False)[0], spectrum

    w, frames, blocks = _stft(x, window_size, hop, window)
    if average:
        step = half // hop
        averaged = (frames - 1) // step + 1
        if averaged < 16:
            raise ValueError(f"need at least 16 frames for a stable average, got {averaged}")
    sink = None if out is None else out(frames)
    prepare = getattr(sink, "prepare", lambda db: db)

    def db_block(rows, mags):  # in a worker
        """The block's dB in an array of its own, made ready by the sink's prepare."""
        db = np.divide(mags, w.sum())
        return prepare(_to_db(db, out=db))

    def kept_frames():
        for rows, mags, made in blocks(None if sink is None else db_block):
            if sink is not None:
                sink[rows] = made
            if average:
                yield mags[-rows.start % step :: step]

    total = _sum_frames(kept_frames())  # the pass; None unless averaging
    if not average:
        return sink, None
    return sink, AveragedSpectrum(_rfft_freqs(x.sample_rate_hz, w.size), _to_db(total / averaged / w.sum()),
                                  x.sample_rate_hz, averaged)


def average_spectra(spectra) -> AveragedSpectrum:
    """Combine AveragedSpectrum values by averaging their linear magnitudes."""
    spectra = list(spectra)
    if not spectra:
        raise ValueError("need at least one spectrum to average")
    first = spectra[0]
    for sp in spectra[1:]:
        if sp.num_bins != first.num_bins or sp.sample_rate_hz != first.sample_rate_hz:
            raise ValueError("spectra must share the frequency grid")
    linear = np.stack([10.0 ** (sp.magnitude_db / 20.0) for sp in spectra]).mean(axis=0)
    db = _to_db(linear)
    return AveragedSpectrum(first.freqs_hz, db, first.sample_rate_hz, sum(sp.num_frames for sp in spectra))


def _input_rate(fs_in: int) -> int:
    """fs_in as a positive int, by the integer rule."""
    fs_in = _integer("fs_in", fs_in)
    if fs_in <= 0:
        raise ValueError(f"input rate must be positive, got {fs_in}")
    return fs_in


def replica_frequencies(fs_in: int, factor: int) -> list:
    """Spectral replica centers k*fs_in for k = 1..factor//2 (all inside the output Nyquist)."""
    factor = _check_factor(factor)
    fs_in = _input_rate(fs_in)
    return [float(k * fs_in) for k in range(1, factor // 2 + 1)]


@dataclass(frozen=True)
class TonalPeak:
    freq_hz: float
    prominence_db: float


_NEIGHBORHOOD_BINS = 50
_EXCLUDE_BINS = 3


def tonal_prominence(spectrum: AveragedSpectrum, freq_hz: float) -> float:
    """dB excess of the bin nearest freq_hz over the local median background.

    The median runs over +/- 50 bins around the candidate, excluding
    +/- 3 bins so the peak's own skirt does not inflate the background.
    """
    center = spectrum.bin_of(freq_hz)
    lo = max(0, center - _NEIGHBORHOOD_BINS)
    hi = min(spectrum.num_bins - 1, center + _NEIGHBORHOOD_BINS)
    idx = np.arange(lo, hi + 1)
    idx = idx[np.abs(idx - center) > _EXCLUDE_BINS]
    if idx.size == 0:
        raise ValueError(f"no background bins around {freq_hz} Hz in a {spectrum.num_bins}-bin spectrum")
    return float(spectrum.magnitude_db[center] - np.median(spectrum.magnitude_db[idx]))


def detect_tonal_peaks(spectrum: AveragedSpectrum, candidate_freqs, threshold_db: float = 6.0):
    """Tonal peaks among the candidates whose prominence exceeds threshold_db."""
    peaks = []
    for freq in candidate_freqs:
        prom = tonal_prominence(spectrum, freq)
        if prom > threshold_db:
            peaks.append(TonalPeak(float(freq), prom))
    return peaks


def band_attenuation(spectrum: AveragedSpectrum, fs_in: int, factor: int) -> np.ndarray:
    """Mean dB per replica-width band relative to band 0.

    Band b covers [b*fs_in/2, (b+1)*fs_in/2); the output Nyquist bin is
    folded into the last band. The spectrum must span [0, factor*fs_in/2],
    and every band must hold at least one bin: a band narrower than one
    rFFT bin is refused, as its mean would be empty.
    """
    factor = _check_factor(factor)
    fs_in = _input_rate(fs_in)
    span = factor * fs_in / 2.0
    if spectrum.freqs_hz[-1] < span * (1.0 - 1e-9):
        raise ValueError(
            f"spectrum spans {spectrum.freqs_hz[-1]} Hz but bands need {span} Hz"
        )
    band_width = fs_in / 2.0
    band_idx = np.minimum((spectrum.freqs_hz // band_width).astype(int), factor - 1)
    if np.bincount(band_idx, minlength=factor).min() == 0:
        raise ValueError(
            f"bands of fs_in/2 = {band_width:g} Hz are narrower than one rFFT bin "
            f"({spectrum.freqs_hz[1] - spectrum.freqs_hz[0]:g} Hz)"
        )
    means = np.array([spectrum.magnitude_db[band_idx == b].mean() for b in range(factor)])
    return means - means[0]


@dataclass(frozen=True)
class ArtifactReport:
    """Tonal peaks, band attenuation profile, replica predictions, verdicts."""

    tonal_peaks: tuple
    band_attenuation_db: np.ndarray
    predicted_replicas_hz: tuple
    tonal_detected: bool
    filtering_detected: bool


_ATTENUATION_THRESHOLD_DB = 6.0


def artifact_report(
    spectrum: AveragedSpectrum, fs_in: int, factor: int, threshold_db: float = 6.0
) -> ArtifactReport:
    """Full artifact readout of an upsampled signal's averaged spectrum.

    Tonal candidates are the predicted replica frequencies. The filtering
    verdict trips when any band beyond band 0 is attenuated by more than
    6 dB. The spectrum's rate must be fs_in * factor;
    any other pairing would place the replicas wrongly.
    """
    replicas = replica_frequencies(fs_in, factor)
    if spectrum.sample_rate_hz != fs_in * factor:
        raise ValueError(
            f"spectrum rate {spectrum.sample_rate_hz} Hz is not fs_in * factor = {fs_in} * {factor} Hz"
        )
    peaks = detect_tonal_peaks(spectrum, replicas, threshold_db=threshold_db)
    bands = band_attenuation(spectrum, fs_in, factor)
    return ArtifactReport(
        tonal_peaks=tuple(peaks),
        band_attenuation_db=bands,
        predicted_replicas_hz=tuple(replicas),
        tonal_detected=bool(peaks),
        filtering_detected=bool(np.any(bands[1:] < -_ATTENUATION_THRESHOLD_DB)),
    )


@dataclass(frozen=True)
class FrequencyResponse:
    """Magnitude response in dB on [0, fs/2], normalized to 0 dB at DC."""

    freqs_hz: np.ndarray
    magnitude_db: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        _freeze_grid(self)
        if abs(self.magnitude_db[0]) > 1e-9:
            raise ValueError("response must be normalized to 0 dB at DC")


_EDGE_TRIM = 2048
_POWER_FLOOR = 1e-30


def measure_response(
    spec: UpsamplerSpec,
    fs_in: int,
    realizations: int = 32,
    n: int = 1 << 15,
    window_size: int = 512,
) -> FrequencyResponse:
    """Average output power spectrum over seeded white-noise realizations.

    For LTI layers this estimates the interpolation filter's magnitude
    response; for wavelet kinds the synthesis path is driven with
    independent noise in every band. The first and last 2048 output
    samples are trimmed to drop convolution edge transients, per-frame
    power is Welch-averaged (Hann, 50% overlap), and the result is
    normalized to 0 dB at DC. Deterministic: realization seeds derive
    from spec.seed.
    """
    realizations = _integer("realizations", realizations)
    if realizations < 1:
        raise ValueError(f"need at least one realization, got {realizations}")
    fs_in, n, window_size = _input_rate(fs_in), _integer("n", n), _integer("window_size", window_size)
    fs_out = spec.factor * fs_in
    acc = 0.0
    total_frames = 0
    for r in range(realizations):
        seed = spec.seed + 1_000_000 + r
        if spec.kind in WAVELET_KINDS:
            coarse = white_noise(n, fs_in, seed)
            details = [
                white_noise(shape[1], rate, seed + 100_000 * (level + 1))
                for level, (shape, rate) in enumerate(detail_shapes(coarse, spec.wavelet_levels))
            ]
            out = cascade_synthesis(coarse, details, spec.wavelet_base, spec.lifting)
        else:
            out = apply(spec, white_noise(n, fs_in, seed))
        if out.num_samples <= 2 * _EDGE_TRIM + window_size:
            raise ValueError(
                f"output too short for edge trimming: {out.num_samples} samples; increase n"
            )
        trimmed = Signal(out.data[:, _EDGE_TRIM : out.num_samples - _EDGE_TRIM], out.sample_rate_hz)
        _, frames, blocks = _stft(trimmed, window_size, window_size // 2)
        acc = acc + _sum_frames(mags ** 2 for _, mags, _ in blocks())
        total_frames += frames
    db = 10.0 * np.log10(np.maximum(acc / total_frames, _POWER_FLOOR))
    return FrequencyResponse(_rfft_freqs(fs_out, window_size), db - db[0], fs_out)


def analytic_response(taps: np.ndarray, window_size: int, fs_out: int) -> FrequencyResponse:
    """DFT magnitude of an FIR filter on the measurement grid, 0 dB at DC."""
    window_size = _integer("window_size", window_size)
    mags = np.abs(np.fft.rfft(np.asarray(taps, dtype=np.float64), window_size))
    db = 20.0 * np.log10(np.maximum(mags, 1e-15))
    return FrequencyResponse(_rfft_freqs(fs_out, window_size), db - db[0], fs_out)


_NULL_WIDTH = 2
_NULL_GUARD_DB = 20.0
_NULL_DEEP_DB = 70.0


def null_exclusion_mask(magnitude_db: np.ndarray) -> np.ndarray:
    """Boolean mask of bins where a measured response is comparable.

    Null bins are local minima more than 20 dB below the peak, plus every
    bin more than 70 dB below the peak (inside such a notch the Welch
    estimate is leakage-limited, not layer-limited). The mask clears +/- 2
    bins around each null bin; endpoints count as local minima when they
    dip below their single neighbor.
    """
    db = np.asarray(magnitude_db, dtype=np.float64)
    n = db.size
    top = db.max()
    padded = np.concatenate([[np.inf], db, [np.inf]])
    is_min = (db <= padded[:-2]) & (db <= padded[2:]) & (db < top - _NULL_GUARD_DB)
    nulls = is_min | (db < top - _NULL_DEEP_DB)
    keep = np.ones(n, dtype=bool)
    for i in np.nonzero(nulls)[0]:
        keep[max(0, i - _NULL_WIDTH) : i + _NULL_WIDTH + 1] = False
    return keep


def perfect_reconstruction_error(
    base: str,
    levels: int,
    x: Signal,
    lifting: LiftingParams | None = None,
) -> float:
    """Max abs deviation of the cascade analysis/synthesis round trip."""
    coarse, details = cascade_analysis(x, base, levels, lifting)
    back = cascade_synthesis(coarse, details, base, lifting)
    return float(np.max(np.abs(back.data - x.data)))
