"""Benchmark for upsample-audit: CLI workloads timed end to end, layers traced.

    python3 benchmarks/run.py --workload upsample-long --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
Each run works in `.bench_work/` under the checkout:

1. set-up: `setup_s` is the time to `import upsample_audit` in fresh
   interpreters (median per CPU, then over CPUs, after one warm-up import
   that compiles bytecode), then a fresh process writes the seeded input
   files (untimed);
2. a second fresh process runs the first command once as a warm-up, then
   passes of the workload's commands through `upsample_audit.cli.main`
   until --seconds are spent, at least one pass;
3. every command's output is checked (checks.py).

With --trace 0 the result carries the end-to-end metrics; with --trace 1
it carries the per-layer metrics of traced passes, each paired with an
untraced pass. `--workload all` runs each workload in turn. The last line
of standard output is the JSON result; the line before it is a full record
(environment, per-pass walls, failures) that compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
IMPORT_REPEATS = 10
MAX_LISTED_FAILURES = 20
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["UPSAMPLE_AUDIT_SRC"] = SRC
    for var in THREAD_VARS:
        env[var] = str(_nproc())
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level"), encoding="ascii") as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(base, index, "size"), encoding="ascii") as fh:
                size = fh.read().strip()
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
            return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


def environment(numpy_version: str) -> dict:
    env = child_env()
    return {
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "l3_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_caps": {var: env[var] for var in THREAD_VARS},
    }


def _child(args, timeout):
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def measure_setup() -> float:
    """Seconds to import upsample_audit in a fresh interpreter.

    Import time differs between the CPUs of a shared VM, so the probes are
    pinned to the allowed CPUs in turn and the result is the median over
    CPUs of each CPU's median; the mix of CPUs is then the same in every run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    probe = ("import os, time; os.sched_setaffinity(0, {%d}); t = time.perf_counter(); "
             "import upsample_audit; print(time.perf_counter() - t)")
    _child(["-c", probe % cpus[0]], 60)  # the first import also writes bytecode
    times = {}
    for i in range(IMPORT_REPEATS):
        cpu = cpus[i % len(cpus)]
        times.setdefault(cpu, []).append(float(_child(["-c", probe % cpu], 60)))
    return statistics.median(statistics.median(t) for t in times.values())


def execute(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Prepare the inputs, run the timed passes in a fresh process, return its result."""
    work = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(work)
    started = time.monotonic()
    session = os.path.join(HERE, "session.py")
    _child([session, "prepare", workload, str(seed), work], CHILD_TIMEOUT_S)
    trace_path = os.path.join(WORK, f"trace-{workload}-{seed}.jsonl")
    budget = CHILD_TIMEOUT_S - (time.monotonic() - started)
    try:
        out = _child([session, "run", workload, str(seed), str(seconds), "1" if trace else "0",
                      work, trace_path], budget)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run; returns the full record."""
    setup_s = None if trace else measure_setup()
    result = execute(workload, seed, seconds, trace)
    cmds = workloads.commands(workload, seed, "")
    refs = checks.load_references(workload, seed)
    failures = []
    attempted = 0
    for i, p in enumerate(result["passes"]):
        for c, (cmd, rec) in enumerate(zip(cmds, p["commands"])):
            attempted += 1
            problems = checks.check(workload, cmd["expect"], rec, refs[c] if refs else None)
            if problems:
                failures.append({"pass": i, "command": " ".join(cmd["argv"]),
                                 "problems": problems})
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(result["numpy"]),
        "working_set_bytes": workloads.working_set_bytes(workload),
        "reference": "stored" if refs else "none for this seed: invariants only",
        "attempted": attempted, "failed": len(failures),
        "failed_ratio": len(failures) / attempted, "failures": failures[:MAX_LISTED_FAILURES],
        "passes": [{"traced": p["traced"], "wall_s": p["wall"],
                    "command_walls_s": [r["wall"] for r in p["commands"]]}
                   for p in result["passes"]],
    }
    if trace:
        values = result["layer_metrics"]
        counted = values["upsamplers.apply.samples_in"]
        if workload == "verify-all" and counted != workloads.VERIFY_APPLY_SAMPLES:
            record["verify_apply_samples_mismatch"] = counted
        record["reconcile"] = result["reconcile"]
        record["reconciled"] = all(row["ok"] for row in result["reconcile"])
    else:
        walls = [p["wall"] for p in result["passes"]]
        in_samples = sum(cmd["in_samples"] for cmd in cmds)
        values = {
            "wall_s": statistics.median(walls),
            "throughput_msps": statistics.median(in_samples / w for w in walls) / 1e6,
            "peak_rss_mb": result["maxrss_mb"],
            "setup_s": setup_s,
        }
    record["metrics"] = {name: (values[name], unit)
                         for name, unit in declared_metrics(trace).items()}
    return record


def print_record(record: dict) -> None:
    head = (f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
            f"{len(record['passes'])} passes, {record['attempted']} commands, "
            f"{record['failed']} failed (failed_ratio {record['failed_ratio']:g}); "
            f"reference {record['reference']}")
    print(head)
    env = record["env"]
    l3 = env["l3_bytes"]
    print(f"  working set {record['working_set_bytes'] / 1e6:.1f} MB vs L3 "
          f"{'unknown' if l3 is None else f'{l3 / 1e6:.1f} MB'}; nproc {env['nproc']}, "
          f"{env['cpu_model']}, python {env['python']}, numpy {env['numpy']}")
    for f in record["failures"]:
        print(f"  FAILED pass {f['pass']}: {f['command']}: {'; '.join(f['problems'])}")
    for row in record.get("reconcile", ()):
        print(f"  reconcile pass {row['pass_index']} cmd {row['command']}: wall "
              f"{row['wall_s']:.4f} s = spans {row['top_s']:.4f} + residual "
              f"{row['residual_s']:.4f} ({'ok' if row['ok'] else 'MISMATCH'}); untraced "
              f"{row['untraced_wall_s']:.4f} s, {row['dev_pct']:+.2f} %")
    if "verify_apply_samples_mismatch" in record:
        print(f"  note: verify handed {record['verify_apply_samples_mismatch']} samples to apply, "
              f"throughput assumes {workloads.VERIFY_APPLY_SAMPLES}")
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(json.dumps({"record": record}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "upsample_audit", "__init__.py")):
        print(f"error: no upsample_audit sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            print_record(records[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def key(record, name):
        return name if len(records) == 1 else f"{record['workload']}.{name}"

    print(json.dumps({
        "correct": all(r["failed"] == 0 and r.get("reconciled", True) for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {key(r, name): {"value": value, "unit": unit}
                    for r in records for name, (value, unit) in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
