"""analyze streams its WAV file: its outputs against references built from the
whole signal, with read blocks that split frames and hops; refusals found
during or after the pass; and its memory bound."""

import dataclasses
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from upsample_audit import analysis as ana
from upsample_audit import cli
from upsample_audit import signals as sig

RATE = 32000
N = 512 + 40 * 128 + 77  # 41 frames at hop 128, 21 averaged frames, and a tail past the last frame
ODD = 8 * 512 * 3 + 1  # an odd byte count: three STFT frames per block, reads of no whole number of hops


def _write(path, data, fmt="float32"):
    sig.write_wav(path, sig.Signal(data, RATE), fmt)


def _noise(channels, n, seed):
    return np.random.Generator(np.random.Philox(seed)).uniform(-0.9, 0.9, (channels, n))


def _analyze(capsys, src, out_dir, *flags):
    paths = {name: str(out_dir / name) for name in ("r.json", "s.csv", "s.pgm")}
    code = cli.main(["analyze", "--in", str(src), "--report", paths["r.json"], "--csv", paths["s.csv"],
                     "--pgm", paths["s.pgm"], *map(str, flags)])
    return code, capsys.readouterr(), paths


def _reference(src, paths, stft_size, hop, window, fs_in, factor):
    """The report, CSV and PGM bytes built from the whole signal: the library calls, then np.savetxt and
    the whole image's gray levels."""
    x = sig.read_wav(src)
    artifacts = None
    view = ana.spectrogram(x, stft_size, hop, window)
    if fs_in is not None:
        report = ana.artifact_report(ana.avg_spectrum(x, stft_size), fs_in, factor)
        artifacts = {
            "predicted_replicas_hz": [cli._round6(f) for f in report.predicted_replicas_hz],
            "tonal_peaks": [{"freq_hz": cli._round6(p.freq_hz), "prominence_db": cli._round6(p.prominence_db)}
                            for p in report.tonal_peaks],
            "band_attenuation_db": [cli._round6(b) for b in report.band_attenuation_db],
            "tonal_detected": report.tonal_detected,
            "filtering_detected": report.filtering_detected,
        }
    ref_dir = os.path.dirname(paths["r.json"]) + "-ref"
    os.makedirs(ref_dir)
    np.savetxt(os.path.join(ref_dir, "s.csv"), view.magnitudes_db, fmt="%.6f", delimiter=",", newline="\n")
    levels = np.round((np.clip(view.magnitudes_db, -80.0, 0.0) + 80.0) / 80.0 * 255.0).astype(np.uint8)
    with open(os.path.join(ref_dir, "s.pgm"), "wb") as pgm:
        pgm.write(f"P5\n{view.num_frames} {view.num_bins}\n255\n".encode() + np.flipud(levels.T).tobytes())
    body = {
        "schema": 1,
        "command": "analyze",
        "config": {"in": str(src), "stft_size": stft_size, "hop": hop, "window": window, "fs_in": fs_in,
                   "factor": factor, "threshold_db": 6.0},
        "input": {"sample_rate_hz": x.sample_rate_hz, "channels": x.channels, "num_samples": x.num_samples},
        "spectrogram": {"frames": view.num_frames, "bins": view.num_bins, "csv": paths["s.csv"],
                        "pgm": paths["s.pgm"]},
        "artifacts": artifacts,
    }
    with open(os.path.join(ref_dir, "s.csv"), "rb") as csv, open(os.path.join(ref_dir, "s.pgm"), "rb") as pgm:
        return (json.dumps(body, indent=2) + "\n").encode(), csv.read(), pgm.read()


# (channels, format, hop, window, --fs-in, frames per read block, or ODD bytes)
CASES = [
    (1, "float32", 128, "hann", 8000, 1),
    (2, "float32", 128, "hann", 8000, 3),
    (1, "pcm16", 100, "hann", 8000, 7),
    (2, "pcm16", 256, "hann", 8000, ODD),
    (1, "float32", 1, "hann", 8000, ODD),
    (2, "float32", 1, "hann", None, 7),
    (1, "pcm16", 128, "rect", 8000, 3),
    (2, "float32", 100, "rect", None, 1),
    (1, "float32", 256, "hann", None, 3),
    (2, "pcm16", 128, "hann", None, ODD),
    (1, "float32", 100, "hann", 8000, ODD),
    (2, "float32", 256, "rect", 8000, 7),
]


@pytest.mark.parametrize("channels, fmt, hop, window, fs_in, block", CASES)
def test_streamed_outputs_equal_the_whole_signal_references(tmp_path, monkeypatch, capsys, channels, fmt, hop,
                                                           window, fs_in, block):
    src = tmp_path / "in.wav"
    _write(src, _noise(channels, N, seed=hop + channels), fmt)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    flags = ["--hop", hop, "--window", window] + ([] if fs_in is None else ["--fs-in", fs_in, "--factor", 4])
    paths = {name: str(out_dir / name) for name in ("r.json", "s.csv", "s.pgm")}
    want = _reference(src, paths, 512, hop, window, fs_in, None if fs_in is None else 4)
    monkeypatch.setattr(sig, "BLOCK_BYTES", block if block == ODD else block * 8 * channels)
    code, captured, paths = _analyze(capsys, src, out_dir, *flags)
    assert (code, captured.err) == (0, "")
    assert captured.out == cli._json_line({"schema": 1, "command": "analyze", "report": paths["r.json"]}) + "\n"
    got = tuple((out_dir / name).read_bytes() for name in ("r.json", "s.csv", "s.pgm"))
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]
    assert sorted(os.listdir(out_dir)) == ["r.json", "s.csv", "s.pgm"]


def _nan_in_last_block(path):
    _write(path, _noise(1, N, seed=1))
    with open(path, "r+b") as fh:
        fh.seek(-4, os.SEEK_END)  # the last sample, past the last frame and in the last read block
        fh.write(struct.pack("<f", float("nan")))


def _cancelling(path):
    left = _noise(1, N, seed=2)[0]
    _write(path, np.stack([left, -left]))


REFUSALS = {
    "nan in the last block": (_nan_in_last_block, [], "signal samples must be finite"),
    "cancelling channels": (_cancelling, [],
                            "the 2 channels cancel in the mixdown: its energy is more than 20 dB below theirs"),
    "rate after the pass": (lambda path: _write(path, _noise(1, N, seed=3)), ["--fs-in", 8000, "--factor", 3],
                            "spectrum rate 32000 Hz is not fs_in * factor = 8000 * 3 Hz"),
}


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("fault", REFUSALS)
def test_refusals_during_or_after_the_pass_write_nothing(tmp_path, monkeypatch, capsys, fault, existing):
    make, flags, message = REFUSALS[fault]
    src = tmp_path / "in.wav"
    make(src)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    if existing:
        for name in ("r.json", "s.csv", "s.pgm"):
            (out_dir / name).write_bytes(b"kept " + name.encode())
    before = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
    monkeypatch.setattr(sig, "BLOCK_BYTES", 4096)  # several read blocks
    code, captured, _ = _analyze(capsys, src, out_dir, *flags)
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines() == [f"error: {message}"]
    assert {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)} == before


def test_csv_over_its_own_input_reads_it_first(tmp_path, monkeypatch, capsys):
    # As when the whole file was read before any export: the CSV of the old
    # file replaces it, and the report describes the old file.
    src = tmp_path / "x.wav"
    _write(src, _noise(2, N, seed=4))
    x = sig.read_wav(src)
    np.savetxt(tmp_path / "want.csv", ana.spectrogram(x).magnitudes_db, fmt="%.6f", delimiter=",", newline="\n")
    monkeypatch.setattr(sig, "BLOCK_BYTES", 4096)
    report = tmp_path / "r.json"
    assert cli.main(["analyze", "--in", str(src), "--report", str(report), "--csv", str(src)]) == 0
    assert src.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert json.loads(report.read_text())["input"] == {"sample_rate_hz": RATE, "channels": 2, "num_samples": N}
    assert sorted(os.listdir(tmp_path)) == ["r.json", "want.csv", "x.wav"]


def test_csv_that_is_no_regular_file_is_refused(tmp_path, capsys):
    # The CSV replaces its target when the report is made, so a directory
    # (or a device or pipe) at that path is refused instead of replaced.
    src = tmp_path / "in.wav"
    _write(src, _noise(1, N, seed=5))
    (tmp_path / "s.csv").mkdir()
    code, captured, paths = _analyze(capsys, src, tmp_path)
    assert (code, captured.err.splitlines()) == (2, [f"error: --csv {paths['s.csv']} is not a regular file"])
    assert sorted(os.listdir(tmp_path)) == ["in.wav", "s.csv"]
    assert os.listdir(tmp_path / "s.csv") == []


def test_a_csv_in_a_missing_directory_is_named_by_its_own_path(tmp_path, monkeypatch, capsys):
    _write(tmp_path / "in.wav", _noise(1, N, seed=6))
    monkeypatch.chdir(tmp_path)
    code = cli.main(["analyze", "--in", "in.wav", "--report", "r.json", "--csv", "nodir/x.csv"])
    assert (code, capsys.readouterr().err.splitlines()) == (
        2, ["error: [Errno 2] No such file or directory: 'nodir/x.csv'"]
    )
    assert sorted(os.listdir(tmp_path)) == ["in.wav"]


@pytest.mark.parametrize("flag", ["--pgm", "--report"])
@pytest.mark.parametrize("existing", [False, True])
def test_an_output_that_cannot_be_written_leaves_the_others_as_they_were(tmp_path, monkeypatch, capsys, flag,
                                                                         existing):
    # The report, the CSV and the PGM are moved into place together, so a
    # PGM or report in a missing directory leaves no new CSV or other output.
    _write(tmp_path / "in.wav", _noise(1, N, seed=8))
    monkeypatch.chdir(tmp_path)
    if existing:
        (tmp_path / "s.csv").write_bytes(b"earlier contents")
    paths = {"--report": "r.json", "--csv": "s.csv", "--pgm": "s.pgm", flag: f"nodir/{flag[2:]}"}
    code = cli.main(["analyze", "--in", "in.wav", *[part for item in paths.items() for part in item]])
    assert (code, capsys.readouterr().err.splitlines()) == (
        2, [f"error: [Errno 2] No such file or directory: '{paths[flag]}'"]
    )
    assert sorted(os.listdir(tmp_path)) == (["in.wav", "s.csv"] if existing else ["in.wav"])
    assert not existing or (tmp_path / "s.csv").read_bytes() == b"earlier contents"


def test_outputs_naming_one_file_are_refused(tmp_path, capsys):
    src = tmp_path / "in.wav"
    _write(src, _noise(1, N, seed=9))
    (tmp_path / "link.csv").symlink_to(tmp_path / "r.json")
    code = cli.main(["analyze", "--in", str(src), "--report", str(tmp_path / "r.json"),
                     "--csv", str(tmp_path / "link.csv")])
    assert (code, capsys.readouterr().err.splitlines()) == (
        2, ["error: --report, --csv and --pgm must name different files"]
    )
    assert sorted(os.listdir(tmp_path)) == ["in.wav", "link.csv"]


def test_a_read_error_during_the_pass_names_the_input_and_leaves_no_csv(tmp_path, monkeypatch, capsys):
    # The CSV is open when the input fails, and the error keeps the input's
    # path: only opening and moving the CSV's own file are named by --csv.
    src = tmp_path / "in.wav"
    _write(src, _noise(1, N, seed=7))
    monkeypatch.setattr(sig, "BLOCK_BYTES", 4096)  # several read blocks
    wav_blocks = sig.wav_blocks

    def failing(path):
        blocks = wav_blocks(path)

        def fill(out, cols):
            if cols.start > 0:  # the second block
                raise OSError(5, "Input/output error", str(path))
            blocks.fill(out, cols)

        return dataclasses.replace(blocks, fill=fill)

    monkeypatch.setattr(sig, "wav_blocks", failing)
    code, captured, _ = _analyze(capsys, src, tmp_path)
    assert (code, captured.err.splitlines()) == (2, [f"error: [Errno 5] Input/output error: '{src}'"])
    assert sorted(os.listdir(tmp_path)) == ["in.wav"]


@pytest.mark.parametrize("agreeing, refused", [(99, True), (100, False), (101, False)])
def test_cancellation_boundary_with_sums_split_into_blocks(tmp_path, monkeypatch, capsys, agreeing, refused):
    # Left is all ones; right is minus one but for `agreeing` samples of plus
    # one spread over the file, so the mixdown energy is `agreeing` and the
    # mean channel energy 10,000, and both are exact sums however they are
    # split: on the 20 dB line (100) is kept, one sample below it is refused.
    # The CLI and the library both sum per frame block of _stft, here of one frame.
    n = 10_000
    right = -np.ones(n)
    right[np.linspace(0, n - 1, agreeing).astype(int)] = 1.0
    x = sig.Signal(np.stack([np.ones(n), right]), RATE)
    src = tmp_path / "in.wav"
    sig.write_wav(src, x)
    monkeypatch.setattr(sig, "BLOCK_BYTES", 8 * 777)  # frame blocks of one frame, so reads of 512 samples
    code, captured, _ = _analyze(capsys, src, tmp_path)
    library_refuses = False
    try:
        ana.spectrogram(x)
    except ValueError as exc:
        library_refuses = "cancel" in str(exc)
    assert (code == 2, library_refuses) == (refused, refused)
    assert ("cancel" in captured.err) == refused


SEVEN_FRAMES = ana.SLOTS * 7 * 8 * 512  # BLOCK_BYTES of frame blocks of 7 frames at the default STFT size


def _on_the_line(agreeing):
    """Left all ones, right minus one but for `agreeing` samples of plus one: mixdown energy `agreeing`,
    mean channel energy 10,000, so 100 is on the 20 dB line and kept, 99 refused. With frame blocks of
    SEVEN_FRAMES (896 samples of hops each) the agreeing samples sit past the first W - hop = 384 samples
    of each block's hops, which the block before also reads, and before the tail [9600, 10000) past the
    last frame: counting that overlap twice refuses 100, and skipping the tail keeps 99."""
    right = -np.ones(10_000)
    right[[896 * block + 384 + 51 * i for block in range(10) for i in range(10)][:agreeing]] = 1.0
    return np.stack([np.ones(10_000), right])


def _library_refusal(x):
    try:
        ana.spectrogram(x)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("agreeing", [99, 100])
def test_cancellation_counts_each_sample_once(tmp_path, monkeypatch, capsys, agreeing):
    src = tmp_path / "in.wav"
    _write(src, _on_the_line(agreeing))
    want = _library_refusal(sig.read_wav(src))
    assert (want is not None) == (agreeing == 99)
    monkeypatch.setattr(sig, "BLOCK_BYTES", SEVEN_FRAMES)
    code, captured, _ = _analyze(capsys, src, tmp_path)
    assert (code, captured.err.splitlines()) == ((0, []) if want is None else (2, [f"error: {want}"]))


@pytest.mark.parametrize("agreeing", [None, 99, 100], ids=["noise", "refused", "kept"])
def test_frame_blocks_in_reverse_order_equal_those_in_order(tmp_path, monkeypatch, agreeing):
    # Each frame block reads its own samples, so the blocks can be computed
    # in any order: the |rFFT| blocks are the same bits, and the refusal
    # (its sums exact, so in any order) is the library's.
    src = tmp_path / "in.wav"
    _write(src, _noise(2, 10_000, seed=11) if agreeing is None else _on_the_line(agreeing))
    x = sig.read_wav(src)
    monkeypatch.setattr(sig, "BLOCK_BYTES", SEVEN_FRAMES)
    results = []
    for order in (list, reversed):
        monkeypatch.setattr(ana, "frame_blocks", lambda *a: order(list(sig.frame_blocks(*a))))
        w, frames, blocks = ana._stft(sig.wav_blocks(src), 512, 128)
        mags, starts = np.full((frames, 257), np.nan), []
        try:
            for rows, block, _ in blocks():
                mags[rows] = block
                starts.append(rows.start)
            results.append(mags)
        except ValueError as exc:
            results.append(str(exc))
        assert starts == sorted(starts, reverse=order is reversed) and len(starts) == 11
    want = _library_refusal(x)
    if want is None:
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(ana._to_db(results[1] / w.sum()), ana.spectrogram(x).magnitudes_db)
    else:
        assert results == [want, want]


@pytest.mark.parametrize("flag", ["--report", "--pgm"])
def test_a_directory_as_report_or_pgm_is_refused_before_the_input_is_read(tmp_path, monkeypatch, capsys, flag):
    src, target = tmp_path / "in.wav", tmp_path / "adir"
    _write(src, _noise(1, N, seed=10))
    target.mkdir()
    fills = []
    wav_blocks = sig.wav_blocks

    def counted(path):
        blocks = wav_blocks(path)

        def fill(out, cols):
            fills.append(cols)
            return blocks.fill(out, cols)

        return dataclasses.replace(blocks, fill=fill)

    monkeypatch.setattr(sig, "wav_blocks", counted)
    paths = {"--report": str(tmp_path / "r.json"), "--pgm": str(tmp_path / "s.pgm"), flag: str(target)}
    code = cli.main(["analyze", "--in", str(src), *[part for item in paths.items() for part in item]])
    assert (code, capsys.readouterr().err.splitlines()) == (2, [f"error: {flag} {target} is not a regular file"])
    assert fills == []
    assert sorted(os.listdir(tmp_path)) == ["adir", "in.wav"] and os.listdir(target) == []


def test_a_pgm_that_cannot_be_allocated_is_refused_before_the_pass(tmp_path, monkeypatch, capsys):
    # The PGM is opened at its full size when the frame count is known, before the pass, as the CSV is;
    # so its error comes before that of a NaN the pass would meet.
    src = tmp_path / "in.wav"
    _write(src, _noise(1, N, seed=11))
    with open(src, "r+b") as fh:
        fh.seek(-4 * (N // 2), os.SEEK_END)
        fh.write(struct.pack("<f", float("nan")))

    def no_room(fd, offset, size):  # in analyze, only the PGM is allocated at its size
        raise OSError(28, "No space left on device")

    for fallocate, want in ((no_room, "[Errno 28] No space left on device"),
                            (os.posix_fallocate, "signal samples must be finite")):
        monkeypatch.setattr(os, "posix_fallocate", fallocate)
        code, captured, _ = _analyze(capsys, src, tmp_path)
        assert (code, captured.err.splitlines()) == (2, [f"error: {want}"])
        assert sorted(os.listdir(tmp_path)) == ["in.wav"]


def _traced_peak(argv):
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analyze_holds_its_slots_and_one_band(tmp_path_factory, capsys, workers):
    # No image: the PGM is written in bands of about BLOCK_BYTES of columns,
    # so doubling the input leaves the peak unchanged within one block. The
    # pass holds at most SLOTS slots, each with a frame block of about
    # BLOCK_BYTES / SLOTS of windowed frames or of samples read: its
    # samples, magnitudes, dB, CSV text and gray levels, and its worker's
    # windowed frames and complex rFFT. Measured in BLOCK_BYTES, mono 2**21
    # and 2**22 samples with the CSV and PGM: 2.01 and 1.98 on one worker,
    # 3.17 and 3.30 on two, 3.95 and 3.98 on eight; stereo 2**21 at hop 512
    # with the PGM, whose reads are twice its windowed frames: 1.03, 2.41
    # and 3.17.
    inputs = {n: tmp_path_factory.mktemp(f"n{n}") for n in (1 << 21, 1 << 22)}
    for n, work in inputs.items():
        _write(work / "in.wav", _noise(1, n, seed=n))
    stereo = tmp_path_factory.mktemp("stereo")
    _write(stereo / "in.wav", _noise(2, 1 << 21, seed=3))
    for count in (1, 2, 8):
        workers(count)
        peaks = [_traced_peak(["analyze", "--in", str(work / "in.wav"), "--report", str(work / "r.json"),
                               "--csv", str(work / "s.csv"), "--pgm", str(work / "s.pgm"),
                               "--fs-in", "8000", "--factor", "4"]) for work in inputs.values()]
        peaks.append(_traced_peak(["analyze", "--in", str(stereo / "in.wav"), "--report", str(stereo / "r.json"),
                                   "--pgm", str(stereo / "s.pgm"), "--hop", "512"]))
        assert max(peaks) < 4.5 * sig.BLOCK_BYTES
        assert abs(peaks[1] - peaks[0]) < sig.BLOCK_BYTES
    capsys.readouterr()
