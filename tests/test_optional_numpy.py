"""numpy is the [fast] extra: the package must import and run without it.

Simulated by installing an import blocker in a subprocess (numpy stays
installed in the test environment itself).
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro

BLOCKED_PRELUDE = """
import sys

class _BlockNumpy:
    def find_module(self, name, path=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy blocked for this test")

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy blocked for this test")

sys.meta_path.insert(0, _BlockNumpy())
"""


def run_without_numpy(body: str) -> subprocess.CompletedProcess:
    # The child imports ``repro`` from where this process did, installed
    # or not.
    source = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, "-c", BLOCKED_PRELUDE + body],
        capture_output=True,
        text=True,
        timeout=120,
        env={
            **os.environ,
            "PYTHONPATH": source + (os.pathsep + path if path else ""),
        },
    )


def test_import_repro_without_numpy():
    result = run_without_numpy(
        "import repro\n"
        "import repro.engine\n"
        "print(repro.__version__)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_reference_diagnosis_runs_without_numpy():
    result = run_without_numpy(
        "from repro import FastDiagnosisScheme, MemoryBank, MemoryGeometry, SRAM\n"
        "from repro.faults.stuck_at import StuckAtFault\n"
        "from repro.memory.geometry import CellRef\n"
        "memory = SRAM(MemoryGeometry(16, 4, 'm0'))\n"
        "StuckAtFault(CellRef(3, 1), value=1).attach(memory)\n"
        "report = FastDiagnosisScheme(MemoryBank([memory])).diagnose()\n"
        "assert not report.passed\n"
        "print(report.total_failures)\n"
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.strip()) > 0


def test_auto_backend_degrades_to_reference_without_numpy():
    result = run_without_numpy(
        "from repro.engine import get_backend, available_backends\n"
        "backend = get_backend('auto')\n"
        "print(type(backend).__name__)\n"
        "print(available_backends()['numpy'])\n"
    )
    assert result.returncode == 0, result.stderr
    name, numpy_available = result.stdout.split()
    assert name == "ReferenceBackend"
    assert numpy_available == "False"


def test_explicit_numpy_backend_raises_without_numpy():
    # Only "auto" may degrade silently; an explicit request must fail loudly.
    result = run_without_numpy(
        "from repro.engine import get_backend\n"
        "try:\n"
        "    get_backend('numpy')\n"
        "except RuntimeError as error:\n"
        "    print('[fast]' in str(error))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True"


def test_sampling_raises_helpful_error_without_numpy():
    result = run_without_numpy(
        "from repro.util.rng import make_rng\n"
        "try:\n"
        "    make_rng(0)\n"
        "except RuntimeError as error:\n"
        "    print('fast extra' in str(error) or '[fast]' in str(error))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True"
