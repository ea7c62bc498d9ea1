"""Test-signal generation and WAV file I/O.

Every generator is a pure function of its arguments. Seeded generators draw
from numpy's Philox bit generator, a counter-based PRNG whose stream is
stable across numpy versions, so repeated calls are bit-identical.

Samples are stored as 64-bit floats internally regardless of file format;
WAV I/O converts at the boundary.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np


# Byte budget of one block of frames in the STFT front end and the WAV and
# PGM writers.
BLOCK_BYTES = 1 << 22


def frame_blocks(num_frames: int, row_bytes: int):
    """Consecutive slices over num_frames rows of row_bytes each, about BLOCK_BYTES per slice."""
    step = max(1, BLOCK_BYTES // row_bytes)
    for start in range(0, num_frames, step):
        yield slice(start, min(start + step, num_frames))


def frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a freshly made array read-only, so Signal takes it over without a copy."""
    arr.flags.writeable = False
    return arr


def readonly_float64(data) -> np.ndarray:
    """`data` itself if it is a read-only, C-contiguous float64 ndarray that
    owns its data; otherwise a read-only, C-ordered float64 copy of it.

    Freezing a fresh array (`frozen`) is how a caller hands it over. Anything
    else is copied, so later writes by the caller cannot reach the result.
    """
    if not (
        type(data) is np.ndarray
        and data.dtype == np.float64
        and not data.flags.writeable
        and data.flags.owndata
        and data.flags.c_contiguous
    ):
        data = frozen(np.array(data, dtype=np.float64, order="C"))
    return data


@dataclass(frozen=True)
class Signal:
    """A sampled waveform: one row of `data` per channel.

    `data` is stored as a read-only 2D float64 array of shape
    (channels, num_samples); 1D data is one channel. A read-only,
    C-contiguous float64 array that owns its data is taken over as it is
    (see `frozen`); any other input (writeable, a view, non-contiguous,
    another dtype) is copied, so later writes through it cannot reach the
    signal. Every sample is checked to be finite either way. `padded` marks
    a signal whose final sample is a zero appended by a wavelet analysis
    step on odd-length input, so the matching synthesis step can trim it.
    """

    data: np.ndarray
    sample_rate_hz: int
    padded: bool = field(default=False)

    def __post_init__(self):
        arr = readonly_float64(self.data)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise ValueError(f"signal data must be 1D or 2D, got ndim={arr.ndim}")
        if arr.shape[1] == 0:
            raise ValueError("signal must contain at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("signal samples must be finite")
        if int(self.sample_rate_hz) <= 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def num_samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration_s(self) -> float:
        return self.num_samples / self.sample_rate_hz

    def channel(self, index: int) -> np.ndarray:
        """One channel as a read-only 1D view."""
        return self.data[index]


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def white_noise(n: int, fs: int, seed: int) -> Signal:
    """Uniform white noise in [-1, 1), single channel.

    Deterministic for a given seed: the draw comes from Philox, whose
    output stream is fixed and versioned by numpy.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    samples = 2.0 * _rng(seed).random(n) - 1.0
    return Signal(frozen(samples), fs)


def ones(n: int, fs: int) -> Signal:
    """Constant signal of amplitude 1, single channel."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return Signal(frozen(np.ones(n)), fs)


def tone(n: int, fs: int, f0: float, amplitude: float = 1.0) -> Signal:
    """Pure sine: samples[k] = amplitude * sin(2*pi*f0*k/fs).

    f0 must lie strictly inside (0, fs/2); anything at or above Nyquist
    would alias.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 < f0 < fs / 2:
        raise ValueError(f"tone frequency must satisfy 0 < f0 < fs/2, got f0={f0} at fs={fs}")
    k = np.arange(n)
    return Signal(frozen(amplitude * np.sin(2.0 * np.pi * f0 * k / fs)), fs)


# ---------------------------------------------------------------------------
# WAV I/O: RIFF/WAVE little-endian, PCM 16-bit (format 1) and IEEE float
# 32-bit (format 3), mono or stereo.

_PCM16_SCALE = 32767.0
# RIFF sizes are 32-bit; the RIFF size counts the data chunk plus up to 48
# bytes of "WAVE" tag and fmt, fact and data chunk headers.
MAX_WAV_DATA_BYTES = 0xFFFFFFFF - 48
_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103  # float32's largest value plus half a step: rounds to inf


def check_wav_size(samples: int, bytes_per_sample: int = 4) -> None:
    """Refuse a WAV data chunk of `samples` values that RIFF's size fields cannot hold."""
    if samples * bytes_per_sample > MAX_WAV_DATA_BYTES:
        raise ValueError(
            f"{samples} samples of {bytes_per_sample} bytes exceed the WAV data limit of {MAX_WAV_DATA_BYTES} bytes"
        )


def check_wav_rate(sample_rate_hz: int, frame_bytes: int = 4) -> None:
    """Refuse a rate whose byte rate (rate x frame bytes, never below the rate) a 32-bit WAV field cannot hold."""
    if sample_rate_hz * frame_bytes > 0xFFFFFFFF:
        raise ValueError(
            f"sample rate {sample_rate_hz} Hz at {frame_bytes} bytes per frame exceeds the WAV header's 32-bit byte rate"
        )


def write_wav(path, signal: Signal, fmt: str = "float32") -> None:
    """Write a Signal as a RIFF/WAVE file.

    float32 is lossless for float32-representable samples. pcm16 quantizes
    with symmetric scale 32767; samples outside [-1, 1] are saturated with
    a warning. A data chunk over MAX_WAV_DATA_BYTES, a rate check_wav_rate
    refuses, or a float32 sample that would round to infinity raises
    ValueError before the file is opened. Samples are converted and written
    one block of frames at a time, so the writer holds one block's bytes.
    """
    if fmt not in ("pcm16", "float32"):
        raise ValueError(f"unsupported format {fmt!r}, expected 'pcm16' or 'float32'")
    if signal.channels > 2:
        raise ValueError(f"only mono and stereo are supported, got {signal.channels} channels")
    bits = 16 if fmt == "pcm16" else 32
    ch = signal.channels
    block_align = ch * bits // 8
    data_bytes = signal.data.size * bits // 8
    check_wav_size(signal.data.size, bits // 8)
    check_wav_rate(signal.sample_rate_hz, block_align)
    # Samples are finite, so max/min find the peak |x| without a full-size temporary.
    peak = max(signal.data.max(), -signal.data.min())
    if fmt == "float32" and peak >= _FLOAT32_OVERFLOW:
        raise ValueError(f"a sample of magnitude {peak:g} is beyond float32's range")
    saturate = fmt == "pcm16" and peak > 1.0
    if saturate:
        warnings.warn("samples outside [-1, 1] are saturated in pcm16 export")

    header = struct.pack(
        "<4sIHHIIHH", b"fmt ", 16, 1 if fmt == "pcm16" else 3, ch,
        signal.sample_rate_hz, signal.sample_rate_hz * block_align, block_align, bits,
    )
    if fmt == "float32":
        header += struct.pack("<4sII", b"fact", 4, signal.num_samples)
    header += struct.pack("<4sI", b"data", data_bytes)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI4s", b"RIFF", 4 + len(header) + data_bytes, b"WAVE"))
        fh.write(header)
        for cols in frame_blocks(signal.num_samples, ch * signal.data.itemsize):
            frames = signal.data[:, cols].T  # interleaved: frames x channels
            fh.write(_pcm16(frames, saturate) if fmt == "pcm16" else frames.astype("<f4", order="C"))


def _pcm16(frames: np.ndarray, saturate: bool) -> np.ndarray:
    """Frames quantized to little-endian int16, through one float64 copy scaled in place."""
    block = np.array(frames, order="C")
    if saturate:
        np.clip(block, -1.0, 1.0, out=block)
    block *= _PCM16_SCALE
    return np.round(block, out=block).astype("<i2")


def read_wav(path) -> Signal:
    """Read a RIFF/WAVE file into a Signal (float64 samples).

    Accepts PCM 16-bit and IEEE float 32-bit, mono or stereo. Unknown
    chunks are skipped. Raises ValueError on malformed headers or
    unsupported codecs. Only chunk headers are read while parsing; the data
    chunk is then read one block of frames at a time straight into the
    signal's (channels, samples) array, so besides the signal the reader
    holds one block of file bytes.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12 or head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise ValueError(f"{path}: not a RIFF/WAVE file")

        fmt_info = None
        payload = None  # (offset, size) of the data chunk
        pos = 12
        while pos + 8 <= file_size:
            fh.seek(pos)
            cid, size = struct.unpack("<4sI", fh.read(8))
            if pos + 8 + size > file_size:
                raise ValueError(f"{path}: truncated {cid.decode('latin1')!r} chunk")
            if cid == b"fmt ":
                if size < 16:
                    raise ValueError(f"{path}: fmt chunk too short")
                fmt_info = struct.unpack("<HHIIHH", fh.read(16))
            elif cid == b"data":
                payload = (pos + 8, size)
            pos += 8 + size + (size & 1)

        if fmt_info is None or payload is None:
            raise ValueError(f"{path}: missing fmt or data chunk")
        audio_format, ch, rate, _byte_rate, _block_align, bits = fmt_info
        if ch not in (1, 2):
            raise ValueError(f"{path}: only mono and stereo are supported, got {ch} channels")
        if (audio_format, bits) == (1, 16):
            dtype = np.dtype("<i2")
        elif (audio_format, bits) == (3, 32):
            dtype = np.dtype("<f4")
        else:
            raise ValueError(f"{path}: unsupported codec (format={audio_format}, bits={bits})")
        offset, size = payload
        if size % dtype.itemsize:
            raise ValueError("buffer size must be a multiple of element size")  # as np.frombuffer says
        count = size // dtype.itemsize
        if count == 0 or count % ch:
            raise ValueError(f"{path}: data chunk size does not match the channel count")
        # One conversion per block, straight from the file's interleaved frames into channel rows.
        data = np.empty((ch, count // ch))
        fh.seek(offset)
        for cols in frame_blocks(data.shape[1], ch * dtype.itemsize):
            frames = np.frombuffer(fh.read(ch * dtype.itemsize * (cols.stop - cols.start)), dtype=dtype)
            if bits == 16:
                np.divide(frames.reshape(-1, ch).T, _PCM16_SCALE, out=data[:, cols])
            else:
                data[:, cols] = frames.reshape(-1, ch).T
    return Signal(frozen(data), rate)
