"""Regenerate references.json: the output digests the checks compare against.

    python3 benchmarks/make_reference.py FIRST_SEED LAST_SEED

Runs one untimed pass of each workload per seed and stores, per command,
the part of its digest that checks.py compares: the sum and energy of each
upsample output, the artifact section of each analyze report, and the
verify check list (seed-independent, stored once under "any"). Run it only
on code whose outputs are known to be right; a run whose invariants fail is
not stored.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def digests(workload: str, seed: int) -> list:
    result = run.execute(workload, seed, 0, False)
    cmds = workloads.commands(workload, seed, "")
    records = result["passes"][0]["commands"]
    for cmd, rec in zip(cmds, records):
        problems = checks.check(workload, cmd["expect"], rec, None)
        if problems:
            raise SystemExit(f"{workload} seed {seed}: {' '.join(cmd['argv'][:1])}: {problems}")
    return [checks.reference_of(workload, rec["digest"]) for rec in records]


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    table = {"verify-all": {"any": digests("verify-all", 0)}}
    for workload in ("upsample-long", "analyze-long"):
        table[workload] = {}
        for seed in range(first, last + 1):
            table[workload][str(seed)] = digests(workload, seed)
            print(f"{workload} seed {seed} stored", flush=True)
    with open(checks.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
