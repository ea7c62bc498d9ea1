"""Spans around the public functions of each layer, recorded from outside.

The benchmark wraps the functions below in every loaded `upsample_audit`
module that holds them, so names imported directly (`from .signals import
white_noise`, `from .upsamplers import apply`) are wrapped too. Each span
records its name, start, end, parent span and run id, plus a few sizes
measured after the call returns. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

KINDS = ("stretch", "nearest", "linear", "sinc", "transposed", "subpixel",
         "wavelet-lazy", "wavelet-haar", "wavelet-lifting")
SUITES = ("pr", "response", "tonal", "grads")
CLI_COMMANDS = ("generate", "upsample", "analyze", "verify")


def _samples(signal) -> int:
    return signal.channels * signal.num_samples


# (module, attribute, span name, size measured from (args, result))
_FUNCTIONS = (
    ("signals", "white_noise", "signals.white_noise", None),
    ("signals", "read_wav", "signals.read_wav", lambda a, r: os.path.getsize(a[0])),
    ("signals", "write_wav", "signals.write_wav", lambda a, r: os.path.getsize(a[0])),
    ("upsamplers.config", "apply", "upsamplers.apply",
     lambda a, r: (a[0].kind, _samples(a[1]), r.data.nbytes)),
    ("upsamplers.config", "wavelet_roundtrip", "upsamplers.wavelet_roundtrip",
     lambda a, r: _samples(a[1])),
    ("upsamplers.wavelets", "cascade_analysis", "upsamplers.cascade_analysis", None),
    ("upsamplers.wavelets", "cascade_synthesis", "upsamplers.cascade_synthesis", None),
    ("analysis", "spectrogram", "analysis.spectrogram", lambda a, r: _samples(a[0])),
    ("analysis", "avg_spectrum", "analysis.avg_spectrum", lambda a, r: _samples(a[0])),
    ("analysis", "artifact_report", "analysis.artifact_report", None),
    ("analysis", "measure_response", "analysis.measure_response", None),
    ("analysis", "perfect_reconstruction_error", "analysis.perfect_reconstruction_error", None),
) + tuple(("cli", f"cmd_{c}", f"cli.{c}", None) for c in CLI_COMMANDS)


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, run, size]."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []
        self._undo = []

    def wrap(self, name, func, size=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if size is not None:
                span[5] = size(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an upsample_audit module holds it."""
        pkg = "upsample_audit"
        modules = [m for n, m in list(sys.modules.items()) if n == pkg or n.startswith(pkg + ".")]
        for mod_name, attr, name, size in _FUNCTIONS:
            original = getattr(sys.modules[f"{pkg}.{mod_name}"], attr)
            wrapped = self.wrap(name, original, size)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        signal_cls = sys.modules[f"{pkg}.signals"].Signal
        self._set(signal_cls, "__post_init__", self.wrap(
            "signals.Signal", signal_cls.__post_init__, lambda a, r: a[0].data.nbytes))
        suites = sys.modules[f"{pkg}.cli"]._SUITES
        for suite in SUITES:
            self._set_item(suites, suite, self.wrap(f"cli.verify.{suite}", suites[suite]))

    def _set(self, obj, key, value):
        self._undo.append((setattr, obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def _set_item(self, mapping, key, value):
        self._undo.append((type(mapping).__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._undo:
            setter, obj, key, value = self._undo.pop()
            setter(obj, key, value)

    def write(self, path) -> None:
        """Write every span as one JSON line (times in seconds, perf_counter clock)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run, size) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "size": size}) + "\n")


def self_times(spans, ids) -> dict:
    """Span duration minus the time its direct children cover, per span id."""
    own = {i: spans[i][2] - spans[i][1] for i in ids}
    for i in ids:
        parent = spans[i][3]
        if parent in own:
            own[parent] -= spans[i][2] - spans[i][1]
    return own


def reconcile(spans, ids, wall: float) -> dict:
    """Top-level span time plus the unspanned residual against a command's wall time.

    Self times of all spans plus the residual must sum back to the wall
    time; a gap means spans overlap or escaped the command's window.
    """
    top = sum(spans[i][2] - spans[i][1] for i in ids if spans[i][3] is None)
    residual = wall - top
    covered = sum(self_times(spans, ids).values())
    return {"top_s": top, "residual_s": residual,
            "ok": residual >= 0.0 and abs(covered + residual - wall) <= 1e-6 * max(wall, 1.0)}


def _pass_metrics(spans, ids) -> dict:
    by_name = {}
    for i in ids:
        by_name.setdefault(spans[i][0], []).append(i)
    own = self_times(spans, ids)

    def dur(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def size(name):
        return sum(spans[i][5] for i in by_name.get(name, ()))

    def per_s(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m = {}
    applies = [spans[i] for i in by_name.get("upsamplers.apply", ())]
    for kind in KINDS:
        mine = [s for s in applies if s[5][0] == kind]
        s = sum(x[2] - x[1] for x in mine)
        m[f"upsamplers.apply.{kind}.s"] = s
        m[f"upsamplers.apply.{kind}.msps"] = per_s(sum(x[5][1] for x in mine) / 1e6, s)
    m["upsamplers.apply.calls"] = len(applies)
    m["upsamplers.apply.s"] = dur("upsamplers.apply")
    m["upsamplers.apply.mb_out"] = sum(x[5][2] for x in applies) / 1e6
    m["upsamplers.apply.samples_in"] = sum(x[5][1] for x in applies)
    m["upsamplers.wavelet_roundtrip.s"] = dur("upsamplers.wavelet_roundtrip")
    m["upsamplers.wavelet_roundtrip.msps"] = per_s(
        size("upsamplers.wavelet_roundtrip") / 1e6, dur("upsamplers.wavelet_roundtrip"))
    for name in ("upsamplers.cascade_analysis", "upsamplers.cascade_synthesis"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = dur(name)
    m["signals.Signal.calls"] = calls("signals.Signal")
    m["signals.Signal.s"] = dur("signals.Signal")
    m["signals.Signal.mb"] = size("signals.Signal") / 1e6
    for name in ("signals.write_wav", "signals.read_wav"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = dur(name)
        m[f"{name}.mb_per_s"] = per_s(size(name) / 1e6, dur(name))
    m["signals.white_noise.calls"] = calls("signals.white_noise")
    m["signals.white_noise.s"] = dur("signals.white_noise")
    for name in ("analysis.spectrogram", "analysis.avg_spectrum"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = dur(name)
        m[f"{name}.msps"] = per_s(size(name) / 1e6, dur(name))
    for name in ("analysis.measure_response", "analysis.artifact_report",
                 "analysis.perfect_reconstruction_error"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = dur(name)
    m["analysis.measure_response.self_s"] = sum(
        own[i] for i in by_name.get("analysis.measure_response", ()))
    for command in CLI_COMMANDS:
        m[f"cli.{command}.calls"] = calls(f"cli.{command}")
        m[f"cli.{command}.s"] = dur(f"cli.{command}")
    for command in ("upsample", "analyze"):
        m[f"cli.{command}.self_s"] = sum(own[i] for i in by_name.get(f"cli.{command}", ()))
    for suite in SUITES:
        m[f"cli.verify.{suite}.s"] = dur(f"cli.verify.{suite}")
    return m


def layer_metrics(spans, pass_ids) -> dict:
    """Per-layer metrics of each traced pass, reduced to their medians."""
    per_pass = [_pass_metrics(spans, ids) for ids in pass_ids]
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
