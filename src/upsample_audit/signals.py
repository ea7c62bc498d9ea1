"""Signals, their block streams, test-signal generation and WAV file I/O.

Every generator is a pure function of its arguments. Seeded generators draw
from numpy's Philox bit generator, a counter-based PRNG whose stream is
stable across numpy versions, so repeated calls are bit-identical.

Samples are stored as 64-bit floats internally regardless of file format;
WAV I/O converts at the boundary. A `Signal` is a whole waveform and
`Blocks` its lazy form: a channel count, a length, a rate and a function
that fills any block of columns into a view. Every stage reads its input
as Blocks, any columns in any order: a Signal's Blocks read views of its
data, and `wav_blocks`, a file's Blocks, fills each read straight from
the file's frames. `read_wav` collects a file into a Signal.
`write_wav_blocks` fills each block straight into a buffer of the file's
interleaved frames, float32 frames taking numpy's cast at the store, so
no float64 block is made between the producer and the file.
`ordered_map` runs a function over a pass's block slices on a thread per
CPU, up to SLOTS, and yields the results in slice order; the threads are
the pass's own, joined when it ends, so the module keeps no pool.
"""

from __future__ import annotations

import collections
import os
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


# Byte budget of one block of frames in the STFT front end, the WAV and PGM
# writers and the streamed upsample output.
BLOCK_BYTES = 1 << 22


def frame_blocks(num_frames: int, row_bytes: int):
    """Consecutive slices over num_frames rows of row_bytes each, about BLOCK_BYTES per slice."""
    step = max(1, BLOCK_BYTES // row_bytes)
    for start in range(0, num_frames, step):
        yield slice(start, min(start + step, num_frames))


def cpu_count() -> int:
    """The CPUs this process may run on, read afresh at each call: what an ordered_map pass sizes its threads by."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# The most calls ordered_map has in flight, each with a slot of its own. The analysis pass makes its frame
# blocks of BLOCK_BYTES / SLOTS, so it holds about the same bytes on any number of CPUs, and where its
# blocks split does not depend on them. A pass of at most 2 * SLOTS blocks runs inline: making the slots
# and handing the blocks to threads costs about what the threads gain there (avg_spectrum of 8 blocks of
# 1 MiB took 6.2 ms inline and 6.1 ms on two CPUs, of 16 blocks 12.8 and 8.6 ms).
SLOTS = 4


def ordered_map(fn, slices, make_slot):
    """fn(slot, s) for each of `slices`, yielded in order, on up to min(cpu_count(), SLOTS) worker threads.

    A pass of at most 2 * SLOTS slices, or a process on one CPU, runs
    inline with one slot. Otherwise the pass makes a ThreadPoolExecutor of
    its own, sized by cpu_count() at the call, with up to threads + 1
    calls, and never more than SLOTS, in flight; each call is given one of
    as many slots, which make_slot() makes in the consumer's thread. Call i
    reuses the slot of call i - slots only once the consumer has asked for
    the result after that call's, so fn's results may be views of its
    slot's buffers. The first error in slice order is raised when the
    consumer reaches it. When the pass ends, fails or is closed, no further
    call starts and the pool is shut down, its threads joined, so no thread
    outlives the pass and a forked child starts with none.
    """
    slices = list(slices)
    if len(slices) <= 2 * SLOTS or (threads := min(cpu_count(), SLOTS)) == 1:
        slot = make_slot()
        for s in slices:
            yield fn(slot, s)
        return
    import concurrent.futures  # here, not at import: it would cost every `import upsample_audit` milliseconds

    slots = [make_slot() for _ in range(min(threads + 1, SLOTS))]
    pending = collections.deque()
    pool = concurrent.futures.ThreadPoolExecutor(threads)
    try:
        for i, s in enumerate(slices):
            if len(pending) == len(slots):
                yield pending.popleft().result()
            pending.append(pool.submit(fn, slots[i % len(slots)], s))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


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


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every value of arr is finite, read from its min and max.

    NaN carries through both and +-inf shows up in one of them, so no
    full-size boolean array is built. An empty array is finite.
    """
    return arr.size == 0 or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


@dataclass(frozen=True)
class Signal:
    """A sampled waveform: one row of `data` per channel.

    `data` is stored as a read-only 2D float64 array of shape
    (channels, num_samples); 1D data is one channel. A read-only,
    C-contiguous float64 array that owns its data is taken over as it is
    (see `frozen`); any other input (writeable, a view, non-contiguous,
    another dtype) is copied, so later writes through it cannot reach the
    signal. Every sample is checked to be finite either way, from the
    data's min and max (`_all_finite`). `padded` marks a signal whose final
    sample is a zero appended by a wavelet analysis step on odd-length
    input, so the matching synthesis step can trim it.
    """

    data: np.ndarray
    sample_rate_hz: int
    padded: bool = False

    def __post_init__(self):
        arr = readonly_float64(self.data)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise ValueError(f"signal data must be 1D or 2D, got ndim={arr.ndim}")
        if arr.shape[1] == 0:
            raise ValueError("signal must contain at least one sample")
        if not _all_finite(arr):
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


def store_rows(out: np.ndarray, block: np.ndarray) -> None:
    """Store a (C, n) block into out one channel at a time: into the transposed view of a buffer of
    frames, each row is one strided pass, where storing the whole block at once walks it in the frames' order."""
    for row_out, row in zip(out, block):
        row_out[...] = row


@dataclass(frozen=True)
class Blocks:
    """A (channels, num_samples) stream at sample_rate_hz, made one block of columns at a time: the lazy Signal.

    `fill(out, cols)` stores columns `cols` (a slice) of the stream into
    `out`, a (channels, cols.stop - cols.start) array or view of any float
    dtype, writing every element; a float32 `out` takes numpy's cast at the
    store, which rounds as `astype` does. It is a pure function of `cols`,
    so a block can be filled again, and in any order. Blocks start at
    multiples of `group` columns. `read(cols)` gives any columns as a
    read-only float64 array: a view of `data`, the whole array of Blocks
    made `over` one (a Signal's, by `of`), or else a fresh fill, checked to
    be finite as Signal checks. `slices` gives the columns of each block
    of about BLOCK_BYTES, and `signal` fills them into one whole array, a
    Signal. `padded` carries a Signal's flag (see Signal).
    """

    channels: int
    num_samples: int
    sample_rate_hz: int
    fill: Callable
    group: int = 1
    padded: bool = False
    data: np.ndarray | None = None

    @classmethod
    def over(cls, data: np.ndarray, sample_rate_hz: int, padded: bool = False) -> Blocks:
        """Blocks over a finite (channels, num_samples) float64 array, each block stored one channel at a
        time (see store_rows) and each read a view."""
        return cls(*data.shape, sample_rate_hz, lambda out, cols: store_rows(out, data[:, cols]),
                   padded=padded, data=data)

    @classmethod
    def of(cls, x) -> Blocks:
        """A Signal's columns as Blocks over its data, with its padded flag; Blocks are returned as they are."""
        return x if isinstance(x, Blocks) else cls.over(x.data, x.sample_rate_hz, x.padded)

    def read(self, cols: slice, buffer: np.ndarray | None = None) -> np.ndarray:
        """Columns `cols` as a read-only float64 array, refused if a fresh fill holds a non-finite sample.

        A fresh fill goes into the leading columns of `buffer`, a (channels, n >= len(cols)) float64 array, if given.
        """
        if self.data is not None:
            return self.data[:, cols]
        n = cols.stop - cols.start
        out = np.empty((self.channels, n)) if buffer is None else buffer[:, :n]
        self.fill(out, cols)
        if not _all_finite(out):
            raise ValueError("signal samples must be finite")
        return frozen(out)

    def slices(self):
        """Consecutive column slices of about BLOCK_BYTES of float64 each, on multiples of group."""
        g = self.group
        for cols in frame_blocks(-(-self.num_samples // g), 8 * g * self.channels):
            yield slice(g * cols.start, min(g * cols.stop, self.num_samples))

    def signal(self) -> Signal:
        """The whole stream as a Signal, each block filled into the columns of one float64 array."""
        out = np.empty((self.channels, self.num_samples))
        for cols in self.slices():
            self.fill(out[:, cols], cols)
        return Signal(frozen(out), self.sample_rate_hz)


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


@contextmanager
def replacing(path, size: int = 0):
    """Open `<realpath>.<pid>.tmp` to replace `path` when the block exits, or be removed if it raises.

    So `path` (a symlink's target) is written whole or not at all. An
    existing `path` that is not a regular file (a directory, a FIFO, a
    device) is refused with ValueError and left untouched. A known `size`
    is allocated whole first where the platform has posix_fallocate (ext4
    would otherwise flush a delayed allocation at the rename). An OSError
    from opening or moving the file names `path`; one raised inside the
    block keeps its own.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        raise ValueError(f"{os.fspath(path)} is not a regular file")
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            if size and hasattr(os, "posix_fallocate"):
                os.posix_fallocate(fh.fileno(), 0, size)
            yield fh
        try:
            os.replace(tmp, target)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    except BaseException:
        os.remove(tmp)
        raise


def write_wav_blocks(path, blocks: Blocks, fmt: str = "float32") -> None:
    """Write `blocks` through `replacing` as one WAV file, each block filled straight into a buffer of file frames.

    A format other than pcm16 and float32, more than two channels, a data
    chunk over MAX_WAV_DATA_BYTES or a rate check_wav_rate refuses raises
    ValueError before any file is opened. One buffer of interleaved frames,
    as wide as the first (widest) block, takes every block through its
    transposed view: float32 frames are the file's bytes, and pcm16 frames
    are float64, quantized in place by _pcm16. Each block is scanned once,
    by the min and max of its frames. float32 holds +-inf exactly where a
    sample is non-finite or would round to +-inf, so a refused block is
    filled again in float64 to name its peak; the refusal raises
    ValueError and leaves no file. For pcm16 a sample beyond +-1 warns once.
    """
    if fmt not in ("pcm16", "float32"):
        raise ValueError(f"unsupported format {fmt!r}, expected 'pcm16' or 'float32'")
    channels, num_samples, rate = blocks.channels, blocks.num_samples, blocks.sample_rate_hz
    if channels > 2:
        raise ValueError(f"only mono and stereo are supported, got {channels} channels")
    bits = 16 if fmt == "pcm16" else 32
    block_align = channels * bits // 8
    data_bytes = num_samples * block_align
    check_wav_size(channels * num_samples, bits // 8)
    check_wav_rate(rate, block_align)

    header = struct.pack(
        "<4sIHHIIHH", b"fmt ", 16, 1 if fmt == "pcm16" else 3, channels,
        rate, rate * block_align, block_align, bits,
    )
    if fmt == "float32":
        header += struct.pack("<4sII", b"fact", 4, num_samples)
    header += struct.pack("<4sI", b"data", data_bytes)
    header = struct.pack("<4sI4s", b"RIFF", 4 + len(header) + data_bytes, b"WAVE") + header

    with replacing(path, len(header) + data_bytes) as fh:
        fh.write(header)
        buffer, warned = None, False
        for cols in blocks.slices():
            if buffer is None:
                buffer = np.empty((cols.stop - cols.start, channels), "<f4" if fmt == "float32" else np.float64)
            frames = buffer[: cols.stop - cols.start]
            with np.errstate(over="ignore"):  # a sample beyond float32's range is stored as +-inf, refused below
                blocks.fill(frames.T, cols)
            peak = max(frames.max(), -frames.min())  # NaN carries through both, and +-inf shows up in one
            if not np.isfinite(peak):  # either refusal: the float64 samples tell which
                block = np.empty((channels, len(frames)))
                blocks.fill(block, cols)
                peak = max(block.max(), -block.min())
                if np.isfinite(peak):
                    raise ValueError(f"a sample of magnitude {peak:g} is beyond float32's range")
                raise ValueError("signal samples must be finite")
            if fmt == "pcm16" and peak > 1.0 and not warned:
                warnings.warn("samples outside [-1, 1] are saturated in pcm16 export")
                warned = True
            fh.write(frames if fmt == "float32" else _pcm16(frames))


def write_wav(path, signal: Signal, fmt: str = "float32") -> None:
    """Write a Signal as a RIFF/WAVE file, its columns one block of frames at a time (see write_wav_blocks).

    float32 is lossless for float32-representable samples. pcm16 quantizes
    with symmetric scale 32767; samples outside [-1, 1] are saturated with
    a warning.
    """
    write_wav_blocks(path, Blocks.of(signal), fmt)


def _pcm16(frames: np.ndarray) -> np.ndarray:
    """float64 frames saturated at +-1 and quantized to little-endian int16, scaled in place."""
    np.clip(frames, -1.0, 1.0, out=frames)
    frames *= _PCM16_SCALE
    return np.round(frames, out=frames).astype("<i2")


def wav_blocks(path) -> Blocks:
    """A RIFF/WAVE file's samples as Blocks of float64, its header parsed at the call.

    Accepts PCM 16-bit and IEEE float 32-bit, mono or stereo. Unknown
    chunks are skipped; only chunk headers are read. Raises ValueError on
    malformed headers, unsupported codecs or a rate of 0. Each fill opens
    the file, reads the frames of its columns and converts them straight
    into `out`, so a reader holds one block of file bytes however long the
    file is. Fills are not checked; `read` checks each block it fills.
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
    if rate <= 0:
        raise ValueError(f"sample rate must be positive, got {rate}")  # as Signal says

    def fill(out, cols):
        with open(path, "rb") as fh:
            fh.seek(offset + ch * dtype.itemsize * cols.start)
            frames = np.frombuffer(fh.read(ch * dtype.itemsize * (cols.stop - cols.start)), dtype=dtype)
        if dtype.kind == "i":
            np.divide(frames.reshape(-1, ch).T, _PCM16_SCALE, out=out)
        else:
            out[...] = frames.reshape(-1, ch).T

    return Blocks(ch, count // ch, rate, fill)


def read_wav(path) -> Signal:
    """Read a RIFF/WAVE file into a Signal (float64 samples): wav_blocks(path).signal().

    Each block is converted straight into the signal's (channels, samples)
    array, so besides the signal the reader holds one block of file bytes.
    """
    return wav_blocks(path).signal()
