"""Output checks: invariants that hold for every seed, plus stored references.

A command fails when it exits non-zero, crashes, leaves unreadable output,
breaks an invariant of its workload, or disagrees with the reference stored
for its seed in references.json. make_reference.py regenerates that file.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
SUM_RTOL = 1e-9
DB_ATOL = 1e-6  # one unit in the report's sixth decimal


def load_references(workload: str, seed: int):
    """The stored per-command reference digests for this seed, or None."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        table = json.load(fh).get(workload, {})
    return table.get(str(seed), table.get("any"))


def reference_of(workload: str, d: dict) -> dict:
    """The part of a command digest that references.json stores."""
    if workload == "upsample-long":
        return {"sum": d["sum"], "energy": d["energy"]}
    if workload == "analyze-long":
        return d["artifacts"]
    return {"lines": d["lines"]}


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= SUM_RTOL * scale


def _invariants(expect: dict, d: dict) -> list:
    problems = []
    if "rate" in expect:  # upsample
        for key in ("rate", "channels", "length"):
            if d[key] != expect[key]:
                problems.append(f"{key} {d[key]} != {expect[key]}")
        if not d["finite"]:
            problems.append("non-finite samples")
    elif "frames" in expect:  # analyze
        for key in ("sample_rate_hz", "channels", "num_samples"):
            if d["input"][key] != expect[key]:
                problems.append(f"input {key} {d['input'][key]} != {expect[key]}")
        if (d["frames"], d["bins"]) != (expect["frames"], expect["bins"]):
            problems.append(f"spectrogram {d['frames']}x{d['bins']} != "
                            f"{expect['frames']}x{expect['bins']}")
        if d["artifacts"]["predicted_replicas_hz"] != expect["replicas"]:
            problems.append(f"replicas {d['artifacts']['predicted_replicas_hz']}")
        if "pgm" in expect and d["pgm"] != {"width": expect["frames"],
                                            "height": expect["bins"], "complete": True}:
            problems.append(f"pgm {d['pgm']}")
        if "csv" in expect and d["csv"] != {"rows": expect["frames"], "columns": expect["bins"]}:
            problems.append(f"csv {d['csv']}")
    else:  # verify
        if (d["checks"], d["failures"]) != (expect["checks"], expect["failures"]):
            problems.append(f"{d['checks']} checks, {d['failures']} failures")
    return problems


def _against_reference(workload: str, d: dict, ref: dict) -> list:
    if workload == "upsample-long":
        scale = max(abs(ref["sum"]), math.sqrt(ref["energy"]))
        ok = _close(d["sum"], ref["sum"], scale) and _close(d["energy"], ref["energy"], ref["energy"])
        return [] if ok else [f"sum/energy {d['sum']!r}/{d['energy']!r} != reference"]
    if workload == "analyze-long":
        got = d["artifacts"]
        problems = []
        for key in ("tonal_detected", "filtering_detected", "predicted_replicas_hz"):
            if got[key] != ref[key]:
                problems.append(f"{key} {got[key]} != reference {ref[key]}")
        if [p["freq_hz"] for p in got["tonal_peaks"]] != [p["freq_hz"] for p in ref["tonal_peaks"]]:
            problems.append("tonal peak frequencies differ from reference")
        else:
            db = [(p["prominence_db"], q["prominence_db"])
                  for p, q in zip(got["tonal_peaks"], ref["tonal_peaks"])]
            db += list(zip(got["band_attenuation_db"], ref["band_attenuation_db"]))
            if len(got["band_attenuation_db"]) != len(ref["band_attenuation_db"]) or any(
                    abs(a - b) > DB_ATOL + 1e-12 for a, b in db):
                problems.append("dB fields differ from reference")
        return problems
    return [] if d["lines"] == ref["lines"] else ["verify check list differs from reference"]


def check(workload: str, expect: dict, record: dict, ref) -> list:
    """Problems with one command's result; empty when it passed."""
    if record["error"] is not None:
        return [record["error"]]
    problems = [] if record["rc"] == 0 else [f"exit code {record['rc']}"]
    d = record["digest"]
    problems += _invariants(expect, d)
    if ref is not None:
        problems += _against_reference(workload, d, ref)
    return problems
