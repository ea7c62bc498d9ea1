"""Compare benchmark result files: medians and quartiles per workload.

    python3 benchmarks/compare.py BASE.log [CHANGE.log]

A result file is the captured standard output of any number of
`benchmarks/run.py` invocations; the `{"record": ...}` line of each run is
read. For every workload, trace mode and metric this prints the run count,
the median, the first and third quartiles, and the quartile spread as a
share of the median. Given a second file it also prints the change in median
and, for end-to-end metrics, whether the change stays within the bound that
BENCHMARK.json fixes ("worse" past the bound, "unresolved" when the base's
own spread is wider than the bound).
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")


def load(path) -> dict:
    """{(workload, trace, metric): [values]} from one result file."""
    series = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith('{"record"'):
                continue
            record = json.loads(line)["record"]
            for name, (value, _unit) in record["metrics"].items():
                series.setdefault((record["workload"], record["trace"], name), []).append(value)
    return series


def quartiles(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def end_to_end_rules() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def verdict(base, change, better: str, bound: float) -> str:
    b, c = statistics.median(base), statistics.median(change)
    worse = (c - b) / b if better == "lower" else (b - c) / b
    if worse > bound:
        return "worse"
    if spread(base) > bound:
        return "unresolved"
    return "ok"


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    base = load(argv[0])
    change = load(argv[1]) if len(argv) == 2 else None
    rules = end_to_end_rules()
    for key in sorted(base):
        workload, trace, name = key
        values = base[key]
        q1, median, q3 = quartiles(values)
        line = (f"{workload:<14} t{trace} {name:<44} n={len(values):<3} median={median:<12.6g} "
                f"q1={q1:<12.6g} q3={q3:<12.6g} spread={spread(values):.2%}")
        if change is not None and key in change:
            other = change[key]
            c = statistics.median(other)
            delta = (c - median) / median if median else 0.0
            line += f" | n={len(other)} median={c:<12.6g} delta={delta:+.2%}"
            if trace == 0 and name in rules:
                line += " " + verdict(values, other, *rules[name])
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
