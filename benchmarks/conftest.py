"""Shared helpers for the benchmark harness.

The paper-experiment benches (``bench_e*``, ``bench_eq*``, ``bench_f*``,
``bench_x*``, ``bench_perf_simulator``) each regenerate one experiment
from the paper's evaluation and assert the paper's number, or the
measured deviation from it, in place.  Run each once with::

    python -m pytest benchmarks -q --benchmark-disable

or time them, showing the paper-vs-measured tables each prints, with::

    python -m pytest benchmarks --benchmark-only -s
"""

from __future__ import annotations

import pytest


def emit(title: str, body: str) -> None:
    """Print one experiment's table with a banner."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
    print(body)


@pytest.fixture
def table_printer():
    """Fixture handing benches the banner printer."""
    return emit
