"""Session planning for the vector backends: geometry stacks, fault tables.

Both vector backends run a diagnosis session through
:func:`run_batched_session`, which hands stacks of memories to the
engine's one element executor (:func:`repro.engine.kernel.run_stack`);
they differ only in what the planner hands it:

* ``batched`` -- the **geometry-bucketing planner**
  (:func:`geometry_buckets`, :func:`plan_session_buckets`) groups the
  vector-capable memories of a bank by ``(words, bits)``.  Each bucket
  is packed into one stacked ``(n_mem, words, lanes)`` uint64 array and
  every march element is applied to the whole stack as single
  fleet-wide ops -- one write assignment and one compare per operation
  per wrap-around block, regardless of how many SRAMs share the
  geometry.  A bucket whose memories carry at least
  :data:`TABLE_MIN_HOOKED_ROWS` fault-hooked rows also compiles a fault
  table (:mod:`repro.engine.fault_table`): its *analytically evaluable*
  cell faults -- the deterministic kinds (stuck-at, transition,
  read/write-disturb, NWRC-weak, inter-word coupling) plus the
  stateful-but-closed-form ones (counter-based intermittent/soft-error
  upsets, retention decay with its analytic visit clock) -- run as a
  lane of their own, fleet-wide masked vector ops over the same blocks
  as the clean rows, and the remaining fault-hooked words (intra-word
  coupling, shared-cell chains) keep the behavioural replay lane, exact
  sweep order and clocking per memory.  A bucket with fewer hooked rows
  compiles nothing and replays them all, because the table lane costs
  fixed numpy work per block that only many rows repay.  The
  count comes from the packed stack's hooked-row masks, before anything
  is partitioned.  The rule is part of the plan, so it holds whether
  ``batched`` was forced or ``auto`` chose it.
* ``numpy`` -- one-deep stacks, one per vector-capable memory, with
  every fault-hooked row on behavioural replay: no lowering, no table.

Element plans are built once per stack (plans are pure functions of the
widths, see :func:`repro.engine.session.session_step_plans`) and cached
across campaigns sharing a (march, geometry) pair.  Memories the vector
path cannot represent (access tracing, decoder or column-mux faults)
take the per-memory pure-Python path.  Either plan is bit-exact against
the reference (validated by the differential fuzz matrix) while the
batched plan amortizes the Python overhead over the bucket population.
``BatchedBackend`` subclasses the numpy backend, so raw single-memory
march runs and the baseline's iterate-repair sparse serial replay
(:mod:`repro.engine.baseline_session`) run unchanged through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.report import ProposedReport
from repro.core.scheme import FastDiagnosisScheme
from repro.engine.backends import NumpyBackend, register_backend, vector_capable
from repro.engine.fault_table import BucketLanes, lower_bucket
from repro.engine.kernel import run_stack
from repro.engine.session import (
    _run_memory_session,
    begin_session,
    finalize_memory_counters,
    finish_session,
    session_step_plans,
)

#: Fault-hooked rows, summed over a geometry bucket's memories, from
#: which the batched plan compiles the bucket's fault table; a smaller
#: bucket replays every hooked row.  Traced over the buckets of all four
#: perfbench workloads (2-core Xeon), replay costs a near-flat 5-9 us per
#: row visit (``lane.replay.ns`` / ``lane.replay.words``).  The table
#: lane's numpy work is fixed per block, so its cost per row
#: visit (``lane.table.ns`` plus ``table.compile.ns``, over
#: ``lane.table.words``) falls with the bucket's rows: 40 us at 1-3 rows,
#: 11 us at 16-31, 6-7 us at 32-64 and 1-4 us from 65.  The lanes break
#: even between 32 and 64 rows, where every threshold gave the same
#: workload totals.  The low end is taken: a table just past break-even
#: costs at most ~1.2x replay, while replay past it grows with each row.
TABLE_MIN_HOOKED_ROWS = 32


class BatchedBackend(NumpyBackend):
    """Numpy backend whose sessions sweep geometry buckets as one array.

    For raw single-memory march runs this is exactly the numpy backend;
    selecting it for a session (``run_session`` / campaigns / fleets)
    switches :func:`run_batched_session` to geometry stacks, with a
    compiled fault table on buckets of enough hooked rows.
    """

    name = "batched"


# --------------------------------------------------------------------- #
# Geometry-bucketing planner                                            #
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class GeometryBucket:
    """One same-geometry group of bank positions."""

    words: int
    bits: int
    indices: tuple[int, ...]


def geometry_buckets(geometries) -> dict[tuple[int, int], list[int]]:
    """Group indices of ``(words, bits)``-shaped entries by geometry.

    Accepts anything with ``words``/``bits`` attributes (geometries,
    SRAMs).  Bucket order follows first appearance, so planning is
    deterministic for a given bank order.
    """
    buckets: dict[tuple[int, int], list[int]] = {}
    for index, geometry in enumerate(geometries):
        buckets.setdefault((geometry.words, geometry.bits), []).append(index)
    return buckets


def plan_session_buckets(
    bank, stacked: bool = True
) -> tuple[list[GeometryBucket], list[int]]:
    """Split a bank into vector buckets and fallback positions.

    Memories the vector path cannot represent (access tracing, decoder or
    column-mux faults) fall back to the per-memory session path; everyone
    else joins the bucket of its geometry, single-memory buckets included
    (a stack of one is still the vector path, just without amortization).
    ``stacked=False`` -- the numpy backend's plan -- gives every capable
    memory a bucket of its own instead.
    """
    capable: list[int] = []
    fallback: list[int] = []
    for index, memory in enumerate(bank):
        if vector_capable(memory):
            capable.append(index)
        else:
            fallback.append(index)
    if not stacked:
        return [
            GeometryBucket(bank[index].words, bank[index].bits, (index,))
            for index in capable
        ], fallback
    grouped = geometry_buckets([bank[index] for index in capable])
    buckets = [
        GeometryBucket(words, bits, tuple(capable[i] for i in members))
        for (words, bits), members in grouped.items()
    ]
    return buckets, fallback


def batched_backend_pays_off(geometries) -> bool:
    """Whether geometry bucketing amortizes anything for this bank shape.

    The fleet scheduler's ``auto`` planning upgrades to the batched
    backend exactly when some bucket holds at least two memories --
    otherwise every stack has depth one and the per-memory numpy path is
    the same work with less indirection.
    """
    return any(
        len(members) >= 2 for members in geometry_buckets(geometries).values()
    )


# --------------------------------------------------------------------- #
# Stacked session execution                                             #
# --------------------------------------------------------------------- #
def run_batched_session(
    scheme: FastDiagnosisScheme, batched: bool = True
) -> ProposedReport:
    """Run one diagnosis session through the vector stack runner.

    ``batched=True`` sweeps geometry buckets, each with a compiled fault
    table or on replay alone (:func:`_bucket_lanes`); ``batched=False``
    is the numpy backend's plan (one-deep stacks, every fault-hooked row
    replayed).  Either way the
    :class:`~repro.core.report.ProposedReport` equals the reference's,
    bit for bit (failure logs whose records come out in identical order,
    cycle and time accounting included).
    """
    algorithm, report, deliveries, nwrc_ops = begin_session(scheme)
    reads_per_word = algorithm.reads_per_word()
    buckets, fallback = plan_session_buckets(scheme.bank, stacked=batched)
    for logs in session_logs(scheme, algorithm, buckets, fallback, batched):
        for failures in logs:
            report.failures[failures.memory_name] = failures
    for memory in scheme.bank:
        finalize_memory_counters(
            scheme, memory, report.failures[memory.name], reads_per_word
        )
    return finish_session(scheme, report, deliveries, nwrc_ops)


def session_logs(scheme, algorithm, buckets, fallback, batched):
    """Run a planned session lazily: one list of failure logs per bucket.

    Geometry buckets come first, in plan order, then every fallback
    memory as a bucket of its own.  :func:`run_batched_session` drains
    it; :func:`repro.engine.session.session_passes` stops at the first
    bucket that fails, leaving the rest of the bank unswept.
    """
    for bucket in buckets:
        memories = [scheme.bank[index] for index in bucket.indices]
        yield run_stack(
            memories,
            session_step_plans(scheme, memories[0], algorithm),
            scheme.controller_words,
            scheme.ecc_observers,
            _bucket_lanes if batched else None,
        )
    for index in fallback:
        yield [_run_memory_session(scheme, scheme.bank[index], algorithm)]


def _bucket_lanes(memories, hooked_masks) -> BucketLanes | None:
    """The batched plan of one bucket: a fault table, or replay only.

    A bucket with at least :data:`TABLE_MIN_HOOKED_ROWS` fault-hooked
    rows splits three ways -- ideal rows on the block ops, rows whose
    faults all lower on the compiled table, the rest on behavioural
    replay.  A smaller one compiles nothing: its hooked rows replay, as
    on the numpy plan, while the stack still shares the block ops.
    """
    if int(hooked_masks.sum()) < TABLE_MIN_HOOKED_ROWS:
        return None
    return lower_bucket(memories)


register_backend("batched", BatchedBackend)
