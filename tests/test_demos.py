"""The narrative demos run to completion and print their walkthrough."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import upsample_audit

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# The demos import the package the tests import, installed or not.
SRC = str(Path(upsample_audit.__file__).resolve().parent.parent)


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
