"""End-to-end checks of the command line interface, run in this process through cli.main.

run_cli captures what cli.main writes and the exit code it returns or
argparse exits with. One test still starts `python -m upsample_audit.cli` in
a fresh interpreter, with every warning an error (see conftest.py), for
what only a fresh interpreter shows: the module's entry point, and no
traceback on a refusal.
"""

import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from upsample_audit import analysis as ana
from upsample_audit import cli
from upsample_audit import signals as sig
from upsample_audit.signals import MAX_WAV_DATA_BYTES, read_wav


def run_cli(*args, expect=0):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(map(str, args)))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    proc = subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def test_the_module_runs_in_a_fresh_interpreter(tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, "-m", "upsample_audit.cli", *map(str, args)],
                              capture_output=True, text=True)

    out = tmp_path / "t.wav"
    proc = run("generate", "--kind", "tone", "--n", 64, "--fs", 8000, "--f0", 1000, "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "generate"
    assert proc.stderr == ""
    proc = run("generate", "--kind", "tone", "--n", 64, "--fs", 8000, "--f0", 5000, "--out", tmp_path / "x.wav")
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "" and not (tmp_path / "x.wav").exists()


def make_wav(tmp_path, name, *gen_args):
    path = tmp_path / name
    run_cli("generate", "--out", path, *gen_args)
    return path


class TestGenerate:
    def test_ones_writes_unit_samples(self, tmp_path):
        path = make_wav(tmp_path, "ones.wav", "--kind", "ones", "--n", 16, "--fs", 8000)
        x = read_wav(path)
        assert x.sample_rate_hz == 8000
        np.testing.assert_array_equal(x.data[0], np.ones(16))

    def test_noise_is_reproducible(self, tmp_path):
        a = make_wav(tmp_path, "a.wav", "--kind", "noise", "--n", 4096, "--fs", 8000, "--seed", 1)
        b = make_wav(tmp_path, "b.wav", "--kind", "noise", "--n", 4096, "--fs", 8000, "--seed", 1)
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_echo_is_json(self, tmp_path):
        proc = run_cli(
            "generate", "--kind", "tone", "--n", 64, "--fs", 8000,
            "--f0", 1000, "--out", tmp_path / "t.wav",
        )
        echo = json.loads(proc.stdout)
        assert echo["schema"] == 1
        assert echo["command"] == "generate"

    def test_tone_above_nyquist_fails_cleanly(self, tmp_path):
        proc = run_cli(
            "generate", "--kind", "tone", "--n", 64, "--fs", 8000,
            "--f0", 5000, "--out", tmp_path / "t.wav",
            expect=2,
        )
        assert "error:" in proc.stderr

    @pytest.mark.parametrize(
        "flag,value,kind",
        [
            ("--f0", "nan", "noise"),
            ("--f0", "inf", "tone"),
            ("--amplitude", "nan", "ones"),
            ("--amplitude", "-inf", "tone"),
        ],
    )
    def test_non_finite_flags_are_refused(self, tmp_path, flag, value, kind):
        out = tmp_path / "t.wav"
        args = ["generate", "--kind", kind, "--n", 64, "--fs", 8000, "--out", out, f"{flag}={value}"]
        if kind == "tone" and flag != "--f0":
            args += ["--f0", 1000]
        proc = run_cli(*args, expect=2)
        assert proc.stderr.splitlines() == [f"error: {flag} must be finite, got {float(value)}"]
        assert proc.stdout == ""
        assert not out.exists()

    def test_tone_requires_f0(self, tmp_path):
        run_cli(
            "generate", "--kind", "tone", "--n", 64, "--fs", 8000,
            "--out", tmp_path / "t.wav",
            expect=2,
        )

    def test_output_over_the_wav_limit_is_refused_before_allocation(self, tmp_path):
        out = tmp_path / "big.wav"
        proc = run_cli("generate", "--kind", "ones", "--n", 2**40, "--fs", 8000, "--out", out, expect=2)
        assert proc.stderr.splitlines() == [
            f"error: {2**40} samples of 4 bytes exceed the WAV data limit of {MAX_WAV_DATA_BYTES} bytes"
        ]
        assert not out.exists()

    def test_rate_beyond_the_wav_header_is_refused(self, tmp_path):
        out = tmp_path / "x.wav"
        proc = run_cli("generate", "--kind", "ones", "--n", 10, "--fs", 5_000_000_000, "--out", out, expect=2)
        assert proc.stderr.splitlines() == [
            "error: sample rate 5000000000 Hz at 4 bytes per frame exceeds the WAV header's 32-bit byte rate"
        ]
        assert not out.exists()

    def test_samples_beyond_float32_are_refused(self, tmp_path):
        out = tmp_path / "x.wav"
        proc = run_cli(
            "generate", "--kind", "tone", "--n", 100, "--fs", 8000, "--f0", 100,
            "--amplitude", 1e39, "--out", out,
            expect=2,
        )
        assert len(proc.stderr.splitlines()) == 1
        assert "beyond float32's range" in proc.stderr
        assert not out.exists()

    def test_a_directory_as_out_is_refused(self, tmp_path, capsys):
        out = tmp_path / "adir"
        out.mkdir()
        assert cli.main(["generate", "--kind", "ones", "--n", "8", "--fs", "8000", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {out} is not a regular file"]
        assert out.is_dir() and list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []


class TestUpsample:
    def test_stretch_quadruples_the_rate(self, tmp_path):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 256, "--fs", 8000)
        out = tmp_path / "out.wav"
        proc = run_cli("upsample", "--in", src, "--out", out, "--layer", "stretch", "--factor", 4)
        y = read_wav(out)
        assert y.sample_rate_hz == 32000
        assert y.num_samples == 1024
        echo = json.loads(proc.stdout)
        assert echo["out_sample_rate_hz"] == 32000

    def test_seeded_transposed_runs_are_byte_identical(self, tmp_path):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 256, "--fs", 8000)
        outs = []
        for name in ("a.wav", "b.wav"):
            out = tmp_path / name
            run_cli(
                "upsample", "--in", src, "--out", out, "--layer", "transposed",
                "--length", 8, "--stride", 4, "--seed", 3,
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_wavelet_round_trip_mode_preserves_the_input(self, tmp_path):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 997, "--fs", 8000)
        out = tmp_path / "rt.wav"
        run_cli(
            "upsample", "--in", src, "--out", out, "--layer", "wavelet-lifting",
            "--factor", 2, "--P", 1, "--U", 0.5, "--A", 1.41421356,
            "--wavelet-mode", "roundtrip",
        )
        x, y = read_wav(src), read_wav(out)
        assert y.sample_rate_hz == 8000
        assert y.num_samples == 997
        assert np.max(np.abs(y.data - x.data)) < 1e-6

    def test_wavelet_synthesis_doubles_per_level(self, tmp_path):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 128, "--fs", 8000)
        out = tmp_path / "up.wav"
        run_cli("upsample", "--in", src, "--out", out, "--layer", "wavelet-haar", "--factor", 4)
        y = read_wav(out)
        assert y.sample_rate_hz == 32000
        assert y.num_samples == 512

    def test_transposed_factor_defaults_to_stride(self, tmp_path):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 64, "--fs", 8000)
        out = tmp_path / "t.wav"
        run_cli(
            "upsample", "--in", src, "--out", out, "--layer", "transposed",
            "--length", 4, "--stride", 4,
        )
        assert read_wav(out).sample_rate_hz == 32000

    def test_lifting_layer_requires_the_triple(self, tmp_path):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 64, "--fs", 8000)
        proc = run_cli(
            "upsample", "--in", src, "--out", tmp_path / "x.wav",
            "--layer", "wavelet-lifting", "--factor", 2,
            expect=2,
        )
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("flag", ["--P", "--U", "--A"])
    def test_non_finite_lifting_params_are_refused(self, tmp_path, flag):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 64, "--fs", 8000)
        out = tmp_path / "x.wav"
        triple = {"--P": "1", "--U": "0.5", "--A": "1.4", flag: "nan"}
        proc = run_cli(
            "upsample", "--in", src, "--out", out, "--layer", "wavelet-lifting", "--factor", 2,
            *(f"{name}={value}" for name, value in triple.items()),
            expect=2,
        )
        assert proc.stderr.splitlines() == [f"error: {flag} must be finite, got nan"]
        assert not out.exists()

    def test_a_negative_exponent_is_a_value_apart_from_its_flag(self, tmp_path):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 64, "--fs", 8000)
        layer = ["--layer", "wavelet-lifting", "--factor", 2, "--P", 0, "--A", 1]
        run_cli("upsample", "--in", src, "--out", tmp_path / "apart.wav", *layer, "--U", "-1e-5")
        run_cli("upsample", "--in", src, "--out", tmp_path / "joined.wav", *layer, "--U=-1e-5")
        assert (tmp_path / "apart.wav").read_bytes() == (tmp_path / "joined.wav").read_bytes()
        proc = run_cli("upsample", "--in", src, "--out", tmp_path / "inf.wav", *layer, "--U", "-inf", expect=2)
        assert proc.stderr.splitlines() == ["error: --U must be finite, got -inf"]
        assert not (tmp_path / "inf.wav").exists()

    def test_subpixel_requires_length(self, tmp_path):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 64, "--fs", 8000)
        run_cli(
            "upsample", "--in", src, "--out", tmp_path / "x.wav",
            "--layer", "subpixel", "--factor", 4,
            expect=2,
        )

    def test_unknown_layer_is_a_usage_error(self, tmp_path):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 64, "--fs", 8000)
        run_cli(
            "upsample", "--in", src, "--out", tmp_path / "x.wav",
            "--layer", "bicubic", "--factor", 4,
            expect=2,
        )

    def test_missing_input_file_fails_cleanly(self, tmp_path):
        run_cli(
            "upsample", "--in", tmp_path / "nope.wav", "--out", tmp_path / "x.wav",
            "--layer", "stretch", "--factor", 4,
            expect=2,
        )

    def test_output_over_the_wav_limit_is_refused_before_allocation(self, tmp_path):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 64, "--fs", 8000)
        out = tmp_path / "big.wav"
        proc = run_cli(
            "upsample", "--in", src, "--out", out, "--layer", "stretch", "--factor", 2**40,
            expect=2,
        )
        assert proc.stderr.splitlines() == [
            f"error: {64 * 2**40} samples of 4 bytes exceed the WAV data limit of {MAX_WAV_DATA_BYTES} bytes"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "layer, values",
        [
            (["--layer", "transposed", "--stride", 4, "--length", 1000], 63 * 4 + 1000),
            (["--layer", "subpixel", "--factor", 4, "--length", 1000], 4 * (64 + 1000 - 1)),
            (["--layer", "sinc", "--factor", 4, "--taps", 4001], 4 * (64 + 1001 - 1)),
        ],
    )
    def test_filter_length_is_bounded_before_allocation(self, tmp_path, monkeypatch, capsys, layer, values):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 64, "--fs", 8000)
        out = tmp_path / "big.wav"
        monkeypatch.setattr(sig, "MAX_WAV_DATA_BYTES", 4 * 1000)
        monkeypatch.setattr(cli, "apply_blocks", lambda spec, x: pytest.fail("apply_blocks ran before the size check"))
        argv = ["upsample", "--in", str(src), "--out", str(out), *map(str, layer)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {values} samples of 4 bytes exceed the WAV data limit of 4000 bytes"
        ]
        assert not out.exists()

    def test_filters_within_the_limit_still_run(self, tmp_path, monkeypatch):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 64, "--fs", 8000)
        out = tmp_path / "up.wav"
        monkeypatch.setattr(sig, "MAX_WAV_DATA_BYTES", 4 * 1000)
        argv = ["upsample", "--in", str(src), "--out", str(out), "--layer", "transposed",
                "--stride", "4", "--length", "9"]
        assert cli.main(argv) == 0
        assert read_wav(out).num_samples == 63 * 4 + 9

    def test_output_rate_beyond_the_wav_header_is_refused_before_apply(self, tmp_path, monkeypatch, capsys):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 64, "--fs", 600_000_000)
        out = tmp_path / "up.wav"
        argv = ["upsample", "--in", src, "--out", out, "--layer", "stretch", "--factor", 8]
        proc = run_cli(*argv, expect=2)
        assert proc.stderr.splitlines() == [
            "error: sample rate 4800000000 Hz at 4 bytes per frame exceeds the WAV header's 32-bit byte rate"
        ]
        assert not out.exists()
        monkeypatch.setattr(cli, "apply_blocks", lambda spec, x: pytest.fail("apply_blocks ran before the rate check"))
        assert cli.main(list(map(str, argv))) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags, length", [(["--layer", "sinc", "--factor", 4], 4 * 4096),
                                               (["--layer", "wavelet-haar", "--factor", 4,
                                                 "--wavelet-mode", "roundtrip"], 4096)],
                             ids=["synthesis", "roundtrip"])
    def test_the_output_goes_through_write_wav_once(self, tmp_path, monkeypatch, flags, length):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 4096, "--fs", 8000)
        out = tmp_path / "up.wav"
        written = []
        write_wav = sig.write_wav

        def counted(path, x, fmt="float32"):
            written.append((path, x.num_samples, fmt))
            return write_wav(path, x, fmt)

        monkeypatch.setattr(cli.sig, "write_wav", counted)
        run_cli("upsample", "--in", src, "--out", out, *flags)
        assert written == [(str(out), length, "float32")]
        assert read_wav(out).num_samples == length

    def test_outputs_beyond_float32_are_refused(self, tmp_path):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 64, "--fs", 8000)
        out = tmp_path / "up.wav"
        proc = run_cli(
            "upsample", "--in", src, "--out", out, "--layer", "wavelet-lifting", "--factor", 2,
            "--P", 0, "--U", 0, "--A", 1e-300,
            expect=2,
        )
        assert len(proc.stderr.splitlines()) == 1
        assert "beyond float32's range" in proc.stderr
        assert not out.exists()

    def test_wavelet_round_trip_refuses_odd_rates(self, tmp_path):
        src = make_wav(tmp_path, "in.wav", "--kind", "noise", "--n", 64, "--fs", 11025)
        out = tmp_path / "rt.wav"
        proc = run_cli(
            "upsample", "--in", src, "--out", out, "--layer", "wavelet-haar",
            "--factor", 2, "--wavelet-mode", "roundtrip",
            expect=2,
        )
        assert proc.stderr.splitlines() == ["error: wavelet analysis needs an even sample rate, got 11025 Hz"]
        assert not out.exists()


@pytest.fixture()
def stretched_ones(tmp_path):
    src = make_wav(tmp_path, "ones.wav", "--kind", "ones", "--n", 32768, "--fs", 8000)
    out = tmp_path / "up.wav"
    run_cli("upsample", "--in", src, "--out", out, "--layer", "stretch", "--factor", 4)
    return out


class TestAnalyze:
    def test_report_flags_offset_replicas(self, stretched_ones, tmp_path):
        report_path = tmp_path / "report.json"
        run_cli(
            "analyze", "--in", stretched_ones, "--report", report_path,
            "--fs-in", 8000, "--factor", 4,
        )
        report = json.loads(report_path.read_text())
        assert report["schema"] == 1
        artifacts = report["artifacts"]
        assert artifacts["predicted_replicas_hz"] == [8000.0, 16000.0]
        assert artifacts["tonal_detected"] is True
        freqs = [p["freq_hz"] for p in artifacts["tonal_peaks"]]
        assert freqs == [8000.0, 16000.0]
        assert all(p["prominence_db"] > 40.0 for p in artifacts["tonal_peaks"])

    def test_report_flags_filtering_without_tones(self, tmp_path):
        src = make_wav(tmp_path, "n.wav", "--kind", "noise", "--n", 32768, "--fs", 8000)
        up = tmp_path / "up.wav"
        run_cli("upsample", "--in", src, "--out", up, "--layer", "sinc", "--factor", 4)
        report_path = tmp_path / "report.json"
        run_cli(
            "analyze", "--in", up, "--report", report_path,
            "--fs-in", 8000, "--factor", 4,
        )
        artifacts = json.loads(report_path.read_text())["artifacts"]
        assert artifacts["tonal_detected"] is False
        assert artifacts["filtering_detected"] is True
        assert artifacts["band_attenuation_db"][-1] < -30.0

    def test_reports_are_byte_identical_across_runs(self, stretched_ones, tmp_path):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            run_cli(
                "analyze", "--in", stretched_ones, "--report", p,
                "--fs-in", 8000, "--factor", 4,
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_a_report_without_exports_is_the_exporting_report_and_takes_no_block_db(
            self, stretched_ones, tmp_path, monkeypatch):
        csv, pgm = tmp_path / "s.csv", tmp_path / "s.pgm"
        exported, alone = tmp_path / "exported.json", tmp_path / "alone.json"
        flags = ["--in", stretched_ones, "--fs-in", 8000, "--factor", 4]
        run_cli("analyze", *flags, "--report", exported, "--csv", csv, "--pgm", pgm)
        calls = []
        to_db = ana._to_db

        def counted(magnitudes, out=None):
            calls.append(magnitudes.shape)
            return to_db(magnitudes, out)

        monkeypatch.setattr(ana, "_to_db", counted)
        run_cli("analyze", *flags, "--report", alone)
        assert calls == [(257,)]  # the average's, and no block's
        text = exported.read_text().replace(json.dumps(str(csv)), "null").replace(json.dumps(str(pgm)), "null")
        assert alone.read_text() == text

    def test_csv_round_trips_the_spectrogram(self, tmp_path):
        src = make_wav(tmp_path, "n.wav", "--kind", "noise", "--n", 8192, "--fs", 8000)
        report_path, csv_path = tmp_path / "r.json", tmp_path / "s.csv"
        run_cli("analyze", "--in", src, "--report", report_path, "--csv", csv_path)
        matrix = np.loadtxt(csv_path, delimiter=",")
        report = json.loads(report_path.read_text())
        assert matrix.shape == (report["spectrogram"]["frames"], report["spectrogram"]["bins"])

        from upsample_audit.analysis import spectrogram

        view = spectrogram(read_wav(src))
        assert np.max(np.abs(matrix - view.magnitudes_db)) < 1e-6

    def test_pgm_header_and_payload(self, tmp_path):
        src = make_wav(tmp_path, "n.wav", "--kind", "noise", "--n", 8192, "--fs", 8000)
        report_path, pgm_path = tmp_path / "r.json", tmp_path / "s.pgm"
        run_cli("analyze", "--in", src, "--report", report_path, "--pgm", pgm_path)
        report = json.loads(report_path.read_text())
        frames, bins = report["spectrogram"]["frames"], report["spectrogram"]["bins"]
        raw = pgm_path.read_bytes()
        header = f"P5\n{frames} {bins}\n255\n".encode()
        assert raw.startswith(header)
        assert len(raw) == len(header) + frames * bins

    def test_pgm_payload_is_the_flipped_gray_level_image(self, tmp_path):
        # A loud tone reaches above 0 dB and its far bins fall below -80 dB;
        # hop 1 gives 7681 frames, several blocks of the PGM writer.
        src = make_wav(tmp_path, "t.wav", "--kind", "tone", "--n", 8192, "--fs", 8000,
                       "--f0", 1000, "--amplitude", 4)
        pgm_path = tmp_path / "s.pgm"
        run_cli("analyze", "--in", src, "--report", tmp_path / "r.json", "--hop", 1, "--pgm", pgm_path)
        db = ana.spectrogram(read_wav(src), hop=1).magnitudes_db
        assert db.max() > 0.0 and db.min() < -80.0
        img = np.flipud(np.round((np.clip(db, -80.0, 0.0) + 80.0) / 80.0 * 255.0).astype(np.uint8).T)
        header = f"P5\n{db.shape[0]} {db.shape[1]}\n255\n".encode()
        assert pgm_path.read_bytes() == header + img.tobytes()

    def test_short_pgm_writes_are_continued_and_empty_ones_refused(self, tmp_path, monkeypatch):
        src = make_wav(tmp_path, "n.wav", "--kind", "noise", "--n", 8192, "--fs", 8000)
        run_cli("analyze", "--in", src, "--report", tmp_path / "r.json", "--hop", 1, "--pgm", tmp_path / "want.pgm")
        pwrite = cli.os.pwrite
        monkeypatch.setattr(cli.os, "pwrite", lambda fd, data, offset: pwrite(fd, data[:1000], offset))  # two or three calls a segment
        run_cli("analyze", "--in", src, "--report", tmp_path / "r.json", "--hop", 1, "--pgm", tmp_path / "s.pgm")
        assert (tmp_path / "s.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes()
        monkeypatch.setattr(cli.os, "pwrite", lambda fd, data, offset: 0)
        proc = run_cli("analyze", "--in", src, "--report", tmp_path / "r2.json", "--hop", 1,
                       "--pgm", tmp_path / "s2.pgm", expect=2)
        header = cli._pgm_header(7681, 257)
        assert proc.stderr.splitlines() == [f"error: no bytes of the image written at offset {len(header)}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["n.wav", "r.json", "s.pgm", "want.pgm"]

    def test_replica_prediction_needs_both_rate_and_factor(self, tmp_path):
        src = make_wav(tmp_path, "n.wav", "--kind", "noise", "--n", 8192, "--fs", 8000)
        proc = run_cli(
            "analyze", "--in", src, "--report", tmp_path / "r.json", "--fs-in", 8000,
            expect=2,
        )
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_refused(self, stretched_ones, tmp_path, value):
        report, pgm = tmp_path / "r.json", tmp_path / "s.pgm"
        proc = run_cli(
            "analyze", "--in", stretched_ones, "--report", report, "--pgm", pgm,
            "--fs-in", 8000, "--factor", 4, "--threshold-db", value,
            expect=2,
        )
        assert proc.stderr.splitlines() == [f"error: --threshold-db must be finite, got {value}"]
        assert not report.exists() and not pgm.exists()

    def test_zero_sum_window_is_refused(self, tmp_path):
        src = make_wav(tmp_path, "n.wav", "--kind", "noise", "--n", 64, "--fs", 8000)
        report = tmp_path / "r.json"
        proc = run_cli(
            "analyze", "--in", src, "--report", report, "--stft-size", 2, "--hop", 1,
            expect=2,
        )
        assert proc.stderr.splitlines() == ["error: hann window of 2 samples has no positive sum"]
        assert not report.exists()

    def test_rate_inconsistent_with_fs_in_and_factor_is_refused(self, stretched_ones, tmp_path):
        report, csv = tmp_path / "r.json", tmp_path / "s.csv"
        proc = run_cli(
            "analyze", "--in", stretched_ones, "--report", report, "--csv", csv,
            "--fs-in", 8000, "--factor", 2,
            expect=2,
        )
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: spectrum rate 32000 Hz is not fs_in * factor")
        assert not report.exists() and not csv.exists()


    def test_bands_narrower_than_a_bin_are_refused(self, tmp_path):
        src = make_wav(tmp_path, "n.wav", "--kind", "noise", "--n", 16384, "--fs", 8000)
        report = tmp_path / "r.json"
        proc = run_cli("analyze", "--in", src, "--report", report, "--fs-in", 1, "--factor", 8000, expect=2)
        assert proc.stderr.splitlines() == ["error: bands of fs_in/2 = 0.5 Hz are narrower than one rFFT bin (15.625 Hz)"]
        assert not report.exists()

    @pytest.mark.parametrize("flag", ["--report", "--csv", "--pgm"])
    def test_an_output_naming_the_input_is_refused_before_it_is_read(self, tmp_path, monkeypatch, flag):
        src = make_wav(tmp_path, "n.wav", "--kind", "noise", "--n", 8192, "--fs", 8000)
        before = src.read_bytes()
        monkeypatch.setattr(sig, "wav_blocks", lambda path: pytest.fail("the input was read"))
        monkeypatch.chdir(tmp_path)
        outputs = {"--report": "r.json", "--csv": "s.csv", "--pgm": "s.pgm", flag: "./sub/../n.wav"}
        (tmp_path / "sub").mkdir()
        proc = run_cli("analyze", "--in", "n.wav", *[arg for pair in outputs.items() for arg in pair], expect=2)
        assert proc.stderr.splitlines() == [f"error: {flag} ./sub/../n.wav names the input file"]
        assert proc.stdout == ""
        assert src.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["n.wav", "sub"]

    def test_cancelling_channels_are_refused(self, tmp_path):
        src, report = tmp_path / "anti.wav", tmp_path / "r.json"
        left = sig.tone(32000, 32000, 3000.0)
        sig.write_wav(src, sig.Signal(np.vstack([left.data, -left.data]), 32000))
        proc = run_cli("analyze", "--in", src, "--report", report, expect=2)
        assert proc.stderr.splitlines() == [
            "error: the 2 channels cancel in the mixdown: its energy is more than 20 dB below theirs"
        ]
        assert not report.exists()


class TestErrors:
    def test_failed_allocation_is_one_line_and_exit_2(self, monkeypatch, capsys):
        def out_of_memory(args):
            raise MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627776,)")

        monkeypatch.setattr(cli, "cmd_verify", out_of_memory)
        assert cli.main(["verify", "--suite", "grads"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: Unable to allocate 8.00 TiB for an array with shape (1099511627776,)"
        ]
        assert captured.out == ""

    @pytest.mark.parametrize("command, flags", [
        ("analyze", ["--report", "r.json", "--csv", "s.csv", "--pgm", "s.pgm"]),
        ("upsample", ["--out", "up.wav", "--layer", "stretch", "--factor", "2"]),
    ])
    def test_a_file_of_rate_zero_is_refused_at_its_header(self, tmp_path, monkeypatch, capsys, command, flags):
        src = tmp_path / "in.wav"
        sig.write_wav(src, sig.white_noise(8192, 8000, 1))
        raw = bytearray(src.read_bytes())
        raw[24:32] = bytes(8)  # the fmt chunk's sample rate and byte rate
        src.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="^sample rate must be positive, got 0$"):
            read_wav(src)
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, "--in", "in.wav", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: sample rate must be positive, got 0"]
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["in.wav"]


class TestVerify:
    @pytest.mark.parametrize("suite", ["pr", "grads"])
    def test_fast_suites_pass(self, suite):
        proc = run_cli("verify", "--suite", suite)
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        assert summary["command"] == "verify"
        assert summary["failures"] == 0
        assert summary["passed"] is True

    def test_pr_checks_its_50_signals_in_one_call_per_configuration(self, monkeypatch):
        """Haar and lazy at 1 and 2 levels, 20 lifting triples at 1 and 2 levels, and the odd-length case: 45 calls.

        Checked one signal at a time, the same lines would take 2,201 calls.
        """
        channels = []
        measure = ana.perfect_reconstruction_error

        def counted(base, levels, x, lifting=None):
            channels.append(x.channels)
            return measure(base, levels, x, lifting)

        monkeypatch.setattr(ana, "perfect_reconstruction_error", counted)
        proc = run_cli("verify", "--suite", "pr")
        assert channels == [50] * 44 + [1]
        assert proc.stdout.splitlines() == [
            "[pr] haar levels=1 round trip: value=3.33067e-16 < 1e-09 PASS",
            "[pr] haar levels=2 round trip: value=6.66134e-16 < 1e-09 PASS",
            "[pr] lazy levels=1 round trip: value=0 < 1e-09 PASS",
            "[pr] lazy levels=2 round trip: value=0 < 1e-09 PASS",
            "[pr] lifting 20 random triples levels=1 round trip: value=2.88658e-15 < 1e-09 PASS",
            "[pr] lifting 20 random triples levels=2 round trip: value=2.69784e-14 < 1e-09 PASS",
            "[pr] haar odd-length pad round trip: value=3.33067e-16 < 1e-09 PASS",
            '{"schema": 1, "command": "verify", "suite": "pr", "checks": 7, "failures": 0, "passed": true}',
        ]
