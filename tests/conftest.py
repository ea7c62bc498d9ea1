"""The CLI and demo subprocesses the tests start import the package the tests import, installed or not,
and turn every warning into an error, as pytest's `filterwarnings = ["error"]` does in-process. The
`workers` fixture sets the CPU count an analysis pass sees."""

import os
from pathlib import Path

import pytest

import upsample_audit
from upsample_audit import signals

_SRC = str(Path(upsample_audit.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
os.environ["PYTHONWARNINGS"] = "error"


@pytest.fixture
def workers(monkeypatch):
    """workers(count) sets the CPU count each later analysis pass sizes its threads by."""
    return lambda count: monkeypatch.setattr(signals, "cpu_count", lambda: count)
