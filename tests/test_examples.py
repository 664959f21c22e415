"""Every example script runs to completion against the current package."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_exits_cleanly(script, tmp_path):
    # The child imports ``repro`` from where this process did, and writes
    # whatever it produces (session_waveform.py's VCD) under ``tmp_path``.
    source = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.environ.get("PYTHONPATH")
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={
            **os.environ,
            "PYTHONPATH": source + (os.pathsep + path if path else ""),
        },
    )
    assert result.returncode == 0, result.stderr
