"""High-throughput batch diagnosis engine.

The engine is the execution layer above the paper's single-session models:

* :mod:`repro.engine.backends` -- registry of interchangeable march
  simulation backends (pure-Python reference, numpy bit-parallel);
* :mod:`repro.engine.kernel` -- the one vector march-element executor
  every numpy and batched run goes through, over stacks of memories;
* :mod:`repro.engine.batched` -- the session planner: one-deep stacks
  for numpy, and for the fleet tier same-geometry memories stacked into
  one ``(n_mem, words, lanes)`` array, with a compiled fault table where
  a stack has enough fault-hooked rows;
* :mod:`repro.engine.session` -- fast, bit-exact execution of a full
  proposed-scheme diagnosis session;
* :mod:`repro.engine.baseline_session` -- fast, bit-exact execution of the
  baseline's iterative DIAG-RSMARCH diagnosis flow (sparse serial replay
  via :mod:`repro.engine.serial_kernel`);
* :mod:`repro.engine.fleet` -- campaign fan-out over a multiprocessing
  worker pool with deterministic per-campaign seeding;
* :mod:`repro.engine.checkpoint` -- content-addressed persistence of
  finished chunks, making fleet and scenario runs resumable;
* :mod:`repro.engine.aggregate` -- streaming reduction of campaign results
  into fleet-level statistics.

Every layer is instrumented with :mod:`repro.telemetry` sites (spans and
counters behind one ``if tracer.enabled`` gate); scheduling a fleet with
``telemetry=True`` attaches the merged per-lane attribution and
scheduler stats to the returned report.
"""

from repro.engine.aggregate import (
    CampaignSummary,
    FleetReport,
    StreamingStats,
)
from repro.engine.backends import (
    MarchBackend,
    NumpyBackend,
    ReferenceBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.engine.batched import (
    BatchedBackend,
    GeometryBucket,
    geometry_buckets,
    plan_session_buckets,
    run_batched_session,
)
from repro.engine.checkpoint import (
    CheckpointError,
    CheckpointStore,
    RingCheckpointStore,
)
from repro.engine.fault_table import (
    BucketLanes,
    CompiledFaultTable,
    lower_bucket,
    partition_faults,
)
from repro.engine.fleet import (
    FleetScheduler,
    FleetSpec,
    plan_spec_backend,
    run_campaign,
    run_fleet,
)
from repro.engine.supervisor import (
    ChunkExecutionError,
    ChunkFailure,
    ChunkRetryPolicy,
)
from repro.engine.baseline_session import run_baseline_session
from repro.engine.packing import HAVE_NUMPY
from repro.engine.session import plan_cache_stats, reset_plan_cache, run_session

__all__ = [
    "BatchedBackend",
    "BucketLanes",
    "CampaignSummary",
    "CheckpointError",
    "CheckpointStore",
    "RingCheckpointStore",
    "ChunkExecutionError",
    "ChunkFailure",
    "ChunkRetryPolicy",
    "CompiledFaultTable",
    "FleetReport",
    "FleetScheduler",
    "FleetSpec",
    "GeometryBucket",
    "HAVE_NUMPY",
    "MarchBackend",
    "NumpyBackend",
    "ReferenceBackend",
    "StreamingStats",
    "available_backends",
    "geometry_buckets",
    "get_backend",
    "lower_bucket",
    "partition_faults",
    "plan_cache_stats",
    "plan_session_buckets",
    "plan_spec_backend",
    "register_backend",
    "reset_plan_cache",
    "resolve_backend",
    "run_batched_session",
    "run_baseline_session",
    "run_campaign",
    "run_fleet",
    "run_session",
]
