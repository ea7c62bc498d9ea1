"""The analysis pass on worker threads: its outputs do not depend on the worker
count, a refusal in the middle of a pass stops it cleanly, no thread outlives
the pass that made it, so a forked child's pass completes, and the channel
energies do not depend on BLAS's thread count. A pass started on a worker runs
inline, and verify's measurements, computed on one pass's threads, print the
same lines, and stop at the same failure, on any worker count."""

import concurrent.futures
import contextlib
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from upsample_audit import analysis as ana
from upsample_audit import cli
from upsample_audit import signals as sig
from upsample_audit.upsamplers import UpsamplerSpec

RATE = 32000
N = 512 + 2500 * 128 + 77  # 2,501 frames at hop 128: ten frame blocks at the default BLOCK_BYTES
OUTPUTS = ("r.json", "s.csv", "s.pgm")


def _noise(channels, n, seed):
    return np.random.Generator(np.random.Philox(seed)).uniform(-0.9, 0.9, (channels, n))


@pytest.fixture
def futures(monkeypatch):
    """Every future the pass's pool is given."""
    made = []
    submit = concurrent.futures.ThreadPoolExecutor.submit

    def recorded(pool, *args, **kwargs):
        made.append(submit(pool, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit", recorded)
    return made


def _analyze(capsys, src, out_dir, *flags):
    """analyze's exit code, stderr lines and output bytes (None where it wrote none)."""
    out_dir.mkdir()
    paths = [str(out_dir / name) for name in OUTPUTS]
    code = cli.main(["analyze", "--in", str(src), "--report", paths[0], "--csv", paths[1], "--pgm", paths[2],
                     *map(str, flags)])
    err = capsys.readouterr().err.splitlines()
    assert sorted(os.listdir(out_dir)) == ([] if code else sorted(OUTPUTS))  # and no *.tmp
    contents = tuple((out_dir / name).read_bytes() if code == 0 else None for name in OUTPUTS)
    return code, err, tuple(part.replace(str(out_dir).encode(), b"OUT") if part else part for part in contents)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("inputs")
    for channels in (1, 2):
        sig.write_wav(work / f"{channels}.wav", sig.Signal(_noise(channels, N, seed=channels), RATE))
    return work


@pytest.mark.parametrize("block_bytes", [sig.BLOCK_BYTES, 64 << 10], ids=["default", "64KiB"])
@pytest.mark.parametrize("fs_in", [[], ["--fs-in", 8000, "--factor", 4]], ids=["", "fs-in"])
@pytest.mark.parametrize("framing", [[], ["--hop", 100, "--window", "rect"]], ids=["default", "hop100-rect"])
@pytest.mark.parametrize("channels", [1, 2])
def test_analyze_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys, workers, inputs,
                                                            channels, framing, fs_in, block_bytes):
    monkeypatch.setattr(sig, "BLOCK_BYTES", block_bytes)
    threads = threading.active_count()
    results = []
    for count in (1, 2):
        workers(count)
        results.append(_analyze(capsys, inputs / f"{channels}.wav", tmp_path / str(count), *framing, *fs_in))
    assert results[0][:2] == (0, [])
    assert results[1] == results[0]
    assert threading.active_count() == threads


@pytest.mark.parametrize("block_bytes", [sig.BLOCK_BYTES, 64 << 10], ids=["default", "64KiB"])
def test_library_bits_do_not_depend_on_the_worker_count(monkeypatch, workers, block_bytes):
    monkeypatch.setattr(sig, "BLOCK_BYTES", block_bytes)
    x = sig.Signal(_noise(2, N, seed=3), RATE)
    spec = UpsamplerSpec(kind="linear", factor=2, seed=4)
    results = []
    for count in (1, 2):
        workers(count)
        results.append([
            ana.spectrogram(x).magnitudes_db,
            ana.spectrogram(x, 512, 100, "rect").magnitudes_db,
            ana.avg_spectrum(x).magnitude_db,
            ana.avg_spectrum(sig.Signal(x.data[0], RATE), 1024).magnitude_db,
            ana.measure_response(spec, 8000, realizations=2, n=1 << 16).magnitude_db,
        ])
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


def _nan_in_a_later_block(path):
    sig.write_wav(path, sig.Signal(_noise(1, N, seed=5), RATE))
    with open(path, "r+b") as fh:
        fh.seek(-4 * (N - N // 2), os.SEEK_END)  # sample N // 2: a later frame block, with earlier ones in flight
        fh.write(np.float32(np.nan).tobytes())


def _cancelling(path):
    left = _noise(1, N, seed=6)[0]
    sig.write_wav(path, sig.Signal(np.stack([left, -left]), RATE))


def _failing_pgm(monkeypatch):
    """Make a PGM's band writes fail once its header and 300 row segments are written: in a later band.

    The header goes through the file object; the bands go to its
    descriptor with the os.pwrite that cli calls, counted per PGM file.
    """
    replacing, pwrite, writes = sig.replacing, os.pwrite, {}

    @contextlib.contextmanager
    def counted(path, size=0):
        with replacing(path, size) as fh:
            if str(path).endswith(".pgm"):
                writes[fh.fileno()] = 0
            try:
                yield fh
            finally:
                writes.pop(fh.fileno(), None)

    def failing(fd, data, offset):
        if fd in writes:
            writes[fd] += 1
            if writes[fd] > 300:
                raise OSError(28, "No space left on device")
        return pwrite(fd, data, offset)

    monkeypatch.setattr(sig, "replacing", counted)
    monkeypatch.setattr(cli.os, "pwrite", failing)


REFUSALS = {
    "nan in a later block": (_nan_in_a_later_block, None, "signal samples must be finite"),
    "cancelling channels": (_cancelling, None,
                            "the 2 channels cancel in the mixdown: its energy is more than 20 dB below theirs"),
    "failing band write": (lambda path: sig.write_wav(path, sig.Signal(_noise(1, N, seed=7), RATE)),
                           _failing_pgm, "[Errno 28] No space left on device"),
}


@pytest.mark.parametrize("fault", REFUSALS)
def test_a_refusal_in_the_middle_of_a_pass_stops_it_as_on_one_worker(tmp_path, monkeypatch, capsys, workers,
                                                                      futures, fault):
    make, patch, message = REFUSALS[fault]
    src = tmp_path / "in.wav"
    make(src)
    if patch is not None:
        patch(monkeypatch)
    monkeypatch.setattr(sig, "BLOCK_BYTES", 64 << 10)  # many blocks, and bands of 31 frames
    threads = threading.active_count()
    results = []
    for count in (1, 2):
        workers(count)
        results.append(_analyze(capsys, src, tmp_path / str(count), "--fs-in", 8000, "--factor", 4))
    assert results[0] == (2, [f"error: {message}"], (None, None, None))
    assert results[1] == results[0]
    assert len(futures) > 3 and all(future.done() for future in futures)
    assert threading.active_count() == threads
    assert sorted(os.listdir(tmp_path)) == ["1", "2", "in.wav"]


class _RaisingSink:
    """A sink whose store raises at its third block."""

    def __init__(self, frames):
        self.stored = 0

    def prepare(self, db):
        return None

    def __setitem__(self, rows, made):
        self.stored += 1
        if self.stored == 3:
            raise RuntimeError("the consumer failed")


def test_a_consumer_that_raises_or_stops_partway_does_not_hang_the_pass(monkeypatch, workers, futures):
    monkeypatch.setattr(sig, "BLOCK_BYTES", 64 << 10)
    workers(2)
    x = sig.Signal(_noise(2, N, seed=8), RATE)
    threads = threading.active_count()
    outcome = []

    def raising():
        try:
            ana._spectrogram_stream(x, 512, 128, "hann", _RaisingSink, True)
        except RuntimeError as exc:
            outcome.append(str(exc))

    def stopping():
        blocks = ana._stft(x, 512, 128)[2]()
        for _ in zip(range(2), blocks):
            pass
        blocks.close()
        outcome.append("closed")

    for consumer in (raising, stopping):
        thread = threading.Thread(target=consumer)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert outcome == ["the consumer failed", "closed"]
    assert len(futures) > 3 and all(future.done() for future in futures)
    assert threading.active_count() == threads


def test_a_pass_of_at_most_two_blocks_a_slot_runs_inline(workers, futures):
    # Handing a few blocks to threads costs about what it gains, so verify's small passes stay inline.
    workers(2)
    for blocks, pooled in ((2 * sig.SLOTS, False), (2 * sig.SLOTS + 1, True)):
        x = sig.Signal(_noise(1, blocks * 65536 + 256, seed=blocks), RATE)  # 256 frames a block at hop 256
        ana.avg_spectrum(x)
        assert bool(futures) == pooled


def test_every_slot_in_flight_switching_often_gives_the_same_bits(monkeypatch, workers):
    # Each worker fills one slot's buffers at a time, and the consumer
    # stores each block's dB into the array sink; a slot filled again too
    # early would change the bits.
    monkeypatch.setattr(sig, "BLOCK_BYTES", 64 << 10)  # four frames a block: over 600 blocks
    x = sig.Signal(_noise(2, N, seed=9), RATE)
    workers(1)
    want = ana.spectrogram(x).magnitudes_db, ana.avg_spectrum(x).magnitude_db
    sizes = []
    init = concurrent.futures.ThreadPoolExecutor.__init__

    def recorded(pool, max_workers=None, *args, **kwargs):
        sizes.append(max_workers)
        init(pool, max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__", recorded)
    workers(2 * os.cpu_count() + 1)  # a pool of SLOTS threads for each pass, each slot in flight computing
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread = threading.Thread(target=lambda: got.extend((ana.spectrogram(x).magnitudes_db,
                                                             ana.avg_spectrum(x).magnitude_db)))
        thread.start()
        thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert sizes == [sig.SLOTS, sig.SLOTS]


FORKED = """
import hashlib, os, signal, time
import numpy as np
from upsample_audit import analysis as ana, signals as sig
sig.cpu_count = lambda: 2
x = sig.Signal(np.random.Generator(np.random.Philox(13)).uniform(-1.0, 1.0, 1 << 20), 32000)  # 16 frame blocks


def digest():
    return hashlib.sha256(ana.avg_spectrum(x).magnitude_db.tobytes()).hexdigest()


def os_threads():
    with open("/proc/self/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[17])


print(digest(), flush=True)
# Python 3.12 warns on a fork while the OS counts more than one thread, and a joined thread
# may take a moment to leave that count; a thread that outlives the pass never does.
deadline = time.monotonic() + 5
while os.path.exists("/proc/self/stat") and os_threads() > 1 and time.monotonic() < deadline:
    time.sleep(0.001)
pid = os.fork()
if pid == 0:
    signal.alarm(20)  # a child that hangs is killed, and so fails
    print(digest(), flush=True)
    os._exit(0)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_a_pass_on_threads_in_a_forked_child_completes_with_the_parents_bits():
    # A fresh process, so that no thread of the test process is there at the fork, and no BLAS
    # threads either: only the pass's threads can be there.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", FORKED], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split()  # the parent's digest, the child's, and the child's exit code
    assert lines == [lines[0], lines[0], "0"]


ENERGIES = """
import numpy as np
from upsample_audit import analysis as ana, signals as sig
rng = np.random.Generator(np.random.Philox(12))
x = sig.Signal(sig.frozen(rng.uniform(-1.0, 1.0, (2, 1 << 20))), 32000)
got = []
ana._refuse_cancelling = got.append
for _ in ana._stft(x, 512, 128)[2]():
    pass
print(got[0].tobytes().hex())
"""


def test_channel_energies_do_not_depend_on_the_blas_thread_count():
    # np.dot's sums round differently on OpenBLAS's threads; the energies
    # that judge cancelling channels are numpy reductions.
    sums = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", ENERGIES], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        sums.append(proc.stdout)
    assert sums[1] == sums[0]


def test_a_pass_started_on_a_worker_runs_inline(monkeypatch, workers, futures):
    # An outer pass of 9 slices pools; each of its calls runs a 9-block avg_spectrum, a pass that would
    # pool on its own, inline in its worker, so one pool is made and at most its threads run.
    sizes = []
    init = concurrent.futures.ThreadPoolExecutor.__init__

    def recorded(pool, max_workers=None, *args, **kwargs):
        sizes.append(max_workers)
        init(pool, max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__", recorded)
    threads = threading.active_count()
    running = []

    def measure(_slot, seed):
        x = sig.Signal(_noise(1, 9 * 65536 + 256, seed), RATE)  # 256 frames a block at hop 256: 9 blocks
        running.append(threading.active_count())
        return ana.avg_spectrum(x).magnitude_db

    results = []
    for count in (1, 2):
        workers(count)
        results.append(list(sig.ordered_map(measure, range(20, 29), lambda: None)))
    assert sizes == [2]
    assert len(futures) == 9
    assert max(running) <= threads + 2
    assert [a.tobytes() for a in results[1]] == [a.tobytes() for a in results[0]]
    assert threading.active_count() == threads


VERIFY_LINES = {
    "response": [
        "[response] haar |Ls|^2+|Hs|^2 = 2 on 4096-point grid: value=1.77636e-15 < 1e-09 PASS",
        "[response] haar synthesis path flatness: value=0.15727 <= 1 PASS",
        "[response] stretch response flatness: value=0.092465 <= 1 PASS",
        "[response] stretch band attenuation spread: value=0.014101 <= 1 PASS",
        "[response] nearest x4 vs analytic rectangular response: value=0.144173 <= 1 PASS",
        "[response] linear x4 vs analytic triangular response: value=0.357097 <= 1 PASS",
        "[response] sinc x4 vs analytic windowed-sinc response: value=0.428873 <= 1 PASS",
        "[response] nearest x2 vs analytic two-tap response: value=0.184307 <= 1 PASS",
        "[response] sinc stopband attenuation (bands 1-3): value=40.4552 >= 30 PASS",
        "[response] linear band 3 below nearest band 3: value=-16.5875 < 0 PASS",
        '{"schema": 1, "command": "verify", "suite": "response", "checks": 10, "failures": 0, "passed": true}',
    ],
    "tonal": [
        "[tonal] stretch on ones prominence at 8000 Hz: value=107.959 >= 40 PASS",
        "[tonal] stretch on ones prominence at 16000 Hz: value=107.959 >= 40 PASS",
        "[tonal] nearest on ones max prominence: value=0 <= 6 PASS",
        "[tonal] linear on ones max prominence: value=0 <= 6 PASS",
        "[tonal] sinc on ones max prominence: value=0 <= 6 PASS",
        "[tonal] transposed L=4 S=4 tonal hits over 10 seeds: value=10 >= 9 PASS",
        "[tonal] transposed L=8 S=4 tonal hits over 10 seeds: value=10 >= 9 PASS",
        "[tonal] transposed L=9 S=4 tonal hits over 10 seeds: value=10 >= 9 PASS",
        "[tonal] subpixel L=9 tonal hits over 10 seeds: value=10 >= 9 PASS",
        "[tonal] stretch imaging line placement (bins off prediction): value=0 <= 1 PASS",
        "[tonal] sinc image suppression relative to carrier: value=-51.7422 <= -30 PASS",
        '{"schema": 1, "command": "verify", "suite": "tonal", "checks": 11, "failures": 0, "passed": true}',
    ],
}
MEASUREMENTS = {"response": 13, "tonal": 10}  # each suite's independent measurements, one pass's calls


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("suite", ["response", "tonal"])
def test_verify_suites_print_the_same_lines_on_any_worker_count(capsys, workers, futures, suite, count):
    # Each suite computes its measurements on one pass's threads and prints its lines in order as they
    # arrive; on one worker the pass runs inline. Both print the lines the suites printed one at a time.
    workers(count)
    threads = threading.active_count()
    assert cli.main(["verify", "--suite", suite]) == 0
    assert capsys.readouterr().out.splitlines() == VERIFY_LINES[suite]
    assert len(futures) == (0 if count == 1 else MEASUREMENTS[suite])
    assert threading.active_count() == threads


@pytest.mark.parametrize("count", [1, 2])
def test_a_failing_measurement_stops_its_suite_after_the_lines_before_it(monkeypatch, capsys, workers, futures,
                                                                         count):
    measure = cli._masked_response_diff

    def failing(spec):
        if spec.kind == "linear":
            raise ValueError("the linear measurement failed")
        return measure(spec)

    monkeypatch.setattr(cli, "_masked_response_diff", failing)
    workers(count)
    threads = threading.active_count()
    assert cli.main(["verify", "--suite", "response"]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines() == VERIFY_LINES["response"][:5]  # up to the nearest x4 check, as one at a time
    assert err == "error: the linear measurement failed\n"
    assert all(future.done() for future in futures)
    assert threading.active_count() == threads
