"""Deterministic fault-injection tooling for exercising the fleet's
fault-tolerant execution layer.

Everything here is *test infrastructure shipped as library code*: the
chaos harness must be importable by worker processes (a chunk runner
has to pickle by module reference) and by the CLI's ``--chaos`` option,
so it lives in the package rather than under ``tests/``.
"""

from repro.testing.chaos import (
    CHAOS_CRASH_EXIT_CODE,
    ChaosChunkRunner,
    ChaosError,
    ChaosSpec,
    corrupt_checkpoint_chunks,
    parse_chaos_spec,
)

__all__ = [
    "CHAOS_CRASH_EXIT_CODE",
    "ChaosChunkRunner",
    "ChaosError",
    "ChaosSpec",
    "corrupt_checkpoint_chunks",
    "parse_chaos_spec",
]
