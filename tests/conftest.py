"""The CLI and demo subprocesses the tests start import the package the tests import, installed or not."""

import os
from pathlib import Path

import upsample_audit

_SRC = str(Path(upsample_audit.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
