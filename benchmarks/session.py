"""One fresh process per step of a benchmark run.

    python3 benchmarks/session.py prepare WORKLOAD SEED WORKDIR
    python3 benchmarks/session.py run WORKLOAD SEED SECONDS TRACE WORKDIR TRACEFILE

`prepare` writes the seeded input files. `run` runs the workload's first
command once untimed as a warm-up, then repeats passes of its commands
through `upsample_audit.cli.main` until SECONDS are spent (at least one
pass), digests every command's output outside the timed region, and prints
one JSON object. With TRACE 1 it alternates untraced and traced passes,
so the tracing overhead is measured in the same process, and writes every
span to TRACEFILE.

The parent, run.py, puts the checkout's `src` first on PYTHONPATH; this
process refuses to run against any other copy of the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import statistics
import struct
import sys
import time

import numpy as np

import workloads
from tracer import Tracer, layer_metrics, reconcile

_CHUNK = 1 << 20
_CHECK_LINE = re.compile(r"^(\[\w+\] .*): value=\S+ \S+ \S+ (PASS|FAIL)$")


def _load_package():
    import upsample_audit
    from upsample_audit import cli

    src = os.path.realpath(os.environ["UPSAMPLE_AUDIT_SRC"])
    if not os.path.realpath(upsample_audit.__file__).startswith(src + os.sep):
        raise SystemExit(f"upsample_audit was imported from {upsample_audit.__file__}, not {src}")
    return cli


def wav_digest(path) -> dict:
    """Rate, channels, length, and sum and energy of the samples of a float32 WAV.

    Parsed here rather than with the package's own reader, so a bug in
    read_wav cannot hide one in write_wav.
    """
    with open(path, "rb") as fh:
        if fh.read(12)[8:12] != b"WAVE":
            raise ValueError(f"{path}: not a WAVE file")
        fmt = None
        while True:
            head = fh.read(8)
            if len(head) < 8:
                raise ValueError(f"{path}: no data chunk")
            cid, size = struct.unpack("<4sI", head)
            if cid == b"data":
                offset = fh.tell()
                break
            body = fh.read(size + (size & 1))
            if cid == b"fmt ":
                fmt = struct.unpack_from("<HHIIHH", body)
    if fmt is None or (fmt[0], fmt[5]) != (3, 32):
        raise ValueError(f"{path}: expected a float32 fmt chunk, got {fmt}")
    channels, rate = fmt[1], fmt[2]
    data = np.memmap(path, dtype="<f4", mode="r", offset=offset, shape=(size // 4,))
    total = energy = 0.0
    finite = True
    for i in range(0, data.size, _CHUNK):
        chunk = data[i : i + _CHUNK].astype(np.float64)
        finite = finite and bool(np.isfinite(chunk).all())
        total += float(chunk.sum())
        energy += float(chunk @ chunk)
    length = data.size // channels
    del data
    return {"rate": rate, "channels": channels, "length": length,
            "sum": total, "energy": energy, "finite": finite}


def analyze_digest(argv) -> dict:
    report_path = argv[argv.index("--report") + 1]
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    digest = {"input": report["input"], "frames": report["spectrogram"]["frames"],
              "bins": report["spectrogram"]["bins"], "artifacts": report["artifacts"]}
    if "--pgm" in argv:
        with open(argv[argv.index("--pgm") + 1], "rb") as fh:
            magic, dims, depth = fh.read(64).split(b"\n")[:3]
            fh.seek(0, os.SEEK_END)
            width, height = (int(v) for v in dims.split())
            header = len(magic) + len(dims) + len(depth) + 3
            digest["pgm"] = {"width": width, "height": height,
                             "complete": fh.tell() == header + width * height}
    if "--csv" in argv:
        rows = 0
        with open(argv[argv.index("--csv") + 1], "rb") as fh:
            first = fh.readline()
            fh.seek(0)
            for block in iter(lambda: fh.read(_CHUNK), b""):
                rows += block.count(b"\n")
        digest["csv"] = {"rows": rows, "columns": first.count(b",") + 1}
    return digest


def verify_digest(stdout: str) -> dict:
    lines = stdout.splitlines()
    summary = json.loads(lines[-1])
    checks = []
    for line in lines[:-1]:
        match = _CHECK_LINE.match(line)
        checks.append(f"{match.group(1)} {match.group(2)}" if match else line)
    return {"checks": summary["checks"], "failures": summary["failures"], "lines": checks}


def digest(argv, stdout: str) -> dict:
    if argv[0] == "upsample":
        return wav_digest(argv[argv.index("--out") + 1])
    if argv[0] == "analyze":
        return analyze_digest(argv)
    return verify_digest(stdout)


def run_command(cli, argv):
    """Run one CLI command; return (wall seconds, exit code, stdout, error)."""
    out = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        except Exception as exc:  # a crash counts as a failed command, not a failed run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    return wall, rc, out.getvalue(), error


def run(workload, seed, seconds, traced, work, trace_path) -> dict:
    cli = _load_package()
    cmds = workloads.commands(workload, seed, work)
    tracer = Tracer() if traced else None
    run_command(cli, cmds[0]["argv"])  # warm-up: lazy imports and first-call set-up, untimed
    passes, span_ranges = [], []
    started = time.perf_counter()
    while True:
        tracing = traced and len(passes) % 2 == 1  # untraced, traced, untraced, ...
        if tracing:
            tracer.run_id = f"{workload}:{seed}:{len(passes)}"
            tracer.install()
        records, ranges = [], []
        for cmd in cmds:
            first = len(tracer.spans) if tracing else 0
            wall, rc, stdout, error = run_command(cli, cmd["argv"])
            ranges.append(range(first, len(tracer.spans)) if tracing else None)
            record = {"wall": wall, "rc": rc, "error": error}
            if error is None:
                try:
                    record["digest"] = digest(cmd["argv"], stdout)
                except (OSError, ValueError, KeyError, IndexError, AttributeError) as exc:
                    record["error"] = f"unreadable output: {type(exc).__name__}: {exc}"
            records.append(record)
        if tracing:
            tracer.uninstall()
        passes.append({"traced": tracing, "wall": sum(r["wall"] for r in records),
                       "commands": records})
        span_ranges.append(ranges)
        elapsed = time.perf_counter() - started
        if traced and len(passes) % 2:
            continue
        step = 2 if traced else 1  # a traced run measures in untraced/traced pairs
        if elapsed * (len(passes) + step) / len(passes) > seconds:
            break
    result = {
        "numpy": np.__version__,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
    }
    if traced:
        result.update(_trace_summary(tracer, passes, span_ranges))
        tracer.write(trace_path)
    return result


def _trace_summary(tracer, passes, span_ranges) -> dict:
    spans = tracer.spans
    plain = [p for p in passes if not p["traced"]]
    traced_idx = [i for i, p in enumerate(passes) if p["traced"]]
    untraced_wall = statistics.median(p["wall"] for p in plain)
    overhead = 100.0 * (statistics.median(passes[i]["wall"] for i in traced_idx)
                        - untraced_wall) / untraced_wall
    rows = []
    for c in range(len(passes[0]["commands"])):
        base = statistics.median(p["commands"][c]["wall"] for p in plain)
        for i in traced_idx:
            wall = passes[i]["commands"][c]["wall"]
            row = reconcile(spans, span_ranges[i][c], wall)
            row.update(command=c, pass_index=i, wall_s=wall, untraced_wall_s=base,
                       dev_pct=100.0 * (wall - base) / base)
            rows.append(row)
    metrics = layer_metrics(spans, [[j for r in span_ranges[i] for j in r] for i in traced_idx])
    metrics["trace.overhead_pct"] = overhead
    return {"layer_metrics": metrics, "reconcile": rows}


def main(argv) -> int:
    step, workload, seed = argv[0], argv[1], int(argv[2])
    if step == "prepare":
        _load_package()
        workloads.prepare(workload, seed, argv[3])
        return 0
    if step == "run":
        seconds, traced, work, trace_path = float(argv[3]), argv[4] == "1", argv[5], argv[6]
        print(json.dumps(run(workload, seed, seconds, traced, work, trace_path)))
        return 0
    raise SystemExit(f"unknown step {step!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
