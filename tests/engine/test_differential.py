"""Seeded differential fuzz harness: reference vs numpy, both schemes.

Each fuzz case draws a random (geometry, fault population, march
algorithm) triple from a seeded generator and asserts complete
equivalence between the pure-Python reference path and the vectorized
numpy path at three levels:

* raw march runs (:mod:`repro.engine.backends`) -- failure records,
  cycle/time accounting, final memory state;
* proposed-scheme sessions (:mod:`repro.engine.session`) -- full
  :class:`~repro.core.report.ProposedReport` plus end state and clocking;
* baseline sessions (:mod:`repro.engine.baseline_session`, bit-accurate
  iterate-repair) -- iteration count, localization records, missed
  faults, end state and clocking.

A third axis runs the *fleet-batched* tier through the same matrix:
banks drawn with deliberately duplicated geometries (so the geometry
buckets actually stack), asserting ``reference == numpy == batched`` on
fault maps, cycle accounting, end state, baseline iterate-repair output
(k-counts and localization records) and scenario/fleet aggregates.

A second suite layers *intermittent/soft-error* populations
(:mod:`repro.faults.intermittent`) on top of the manufacturing faults:
per-access upset draws come from each fault's private deterministic
stream, and the vectorized paths replay fault-hooked words in exact
reference order, so the numpy fast path must still match the pure-Python
reference bit-exactly (there is no delegation for cell-level faults; the
fast paths only delegate for whole-session features such as tracing or
decoder faults, which these populations never draw).

A fourth axis (:class:`TestDifferentialFuzzDense`) drives the *dense*
diagnostic regimes (0.5-12 % defect rates plus a read/write-disturb +
weak-cell layer and a mandatory intermittent layer), so the compiled
fault table's mixed lowerable/behavioural partition is fuzzed with every
table-lowerable class present.

The bucket-stacking and dense three-way matrices also run every fast
backend on banks whose manufacturing population attaches as one record
of rows (the ``-rows`` legs, :data:`LEGS`): the vector paths lower and
replay those rows without building objects up front, and each row leg
must equal the reference on the same row bank.

The batched plan compiles a bucket's fault table only from
:data:`~repro.engine.batched.TABLE_MIN_HOOKED_ROWS` hooked rows, which
most fuzz buckets fall below.  Every batched session in this module
therefore runs with that threshold at 0 -- every bucket on the table
lane -- and the bucketed and dense suites add the shipped threshold as
one more leg, which also covers stacked buckets whose lowerable faults
replay.  :class:`TestDefaultPlan` pins that coverage and checks a
session that mixes both plans.

The generator is deterministic per case index, so failures reproduce
exactly; widen ``CASES`` locally to fuzz harder.
"""

from __future__ import annotations

import pytest

from repro.baseline.scheme import HuangJoneScheme
from repro.core.scheme import FastDiagnosisScheme
from repro.engine import batched
from repro.engine.backends import ReferenceBackend, get_backend
from repro.engine.baseline_session import run_baseline_session
from repro.engine.session import run_session
from repro.faults.injector import FaultInjector
from repro.faults.intermittent import sample_intermittent_population
from repro.faults.population import sample_population
from repro.march.library import (
    march_c_minus,
    march_c_nw,
    march_cw,
    march_cw_nw,
    march_ss,
    march_with_retention_pauses,
    mats_plus,
)
from repro.memory.bank import MemoryBank
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import SRAM
from repro.util.rng import make_rng

ALGORITHMS = [
    mats_plus,
    march_c_minus,
    march_c_nw,
    march_cw,
    march_cw_nw,
    march_ss,
    march_with_retention_pauses,
]

#: Number of fuzz cases per suite run (each is an independent seed).
CASES = 10

#: The batched plan's shipped table threshold (the fixture below lowers
#: the module's to 0 for every test).
DEFAULT_TABLE_ROWS = batched.TABLE_MIN_HOOKED_ROWS


@pytest.fixture(autouse=True)
def table_on_every_bucket(monkeypatch):
    """Run every batched session of this module on the always-table plan."""
    monkeypatch.setattr(batched, "TABLE_MIN_HOOKED_ROWS", 0)


def run_default_plan(monkeypatch, scheme):
    """A batched session at the shipped table threshold."""
    with monkeypatch.context() as patch:
        patch.setattr(batched, "TABLE_MIN_HOOKED_ROWS", DEFAULT_TABLE_ROWS)
        return run_session(scheme, backend="batched")


#: The fast legs of the three-way matrices: each backend (``batched`` on
#: the always-table plan, ``batched-default`` at the shipped threshold),
#: with the manufacturing population attached as fault objects or, on
#: the ``-rows`` legs, as one record of rows (see :func:`build_bank`).
#: Object legs are compared with the reference on object banks, row legs
#: with the reference on row banks.
LEGS = (
    "numpy",
    "batched",
    "batched-default",
    "numpy-rows",
    "batched-rows",
    "batched-default-rows",
)


def run_legs(monkeypatch, algorithm, *bank_args):
    """``(banks, reports)`` of every leg and of both reference legs."""
    banks, reports = {}, {}
    for leg in ("reference", "reference-rows", *LEGS):
        banks[leg] = build_bank(*bank_args, rows=leg.endswith("-rows"))[0]
        scheme = FastDiagnosisScheme(banks[leg], algorithm_factory=algorithm)
        backend = leg.removesuffix("-rows")
        if backend == "reference":
            reports[leg] = scheme.diagnose()
        elif backend == "batched-default":
            reports[leg] = run_default_plan(monkeypatch, scheme)
        else:
            reports[leg] = run_session(scheme, backend=backend)
    return banks, reports


def reference_leg(leg: str) -> str:
    """The reference bank a leg is compared with."""
    return "reference-rows" if leg.endswith("-rows") else "reference"


def draw_case(case_index: int):
    """One random (bank geometries, defect rate, algorithm) triple."""
    rng = make_rng(0xD1FF + case_index)
    memories = int(rng.integers(1, 4))
    geometries = [
        MemoryGeometry(
            int(rng.integers(3, 25)), int(rng.integers(2, 11)), f"fuzz_{i}"
        )
        for i in range(memories)
    ]
    defect_rate = float(rng.uniform(0.0, 0.08))
    algorithm = ALGORITHMS[int(rng.integers(len(ALGORITHMS)))]
    seed = int(rng.integers(2**31))
    return geometries, defect_rate, algorithm, seed


def sample_dynamic_population(geometry, rate, rng):
    """Seeded read/write-disturb and weak-cell faults (table classes the
    manufacturing sampler never draws)."""
    from repro.faults.dynamic import (
        DeceptiveReadDestructiveFault,
        IncorrectReadFault,
        ReadDestructiveFault,
        WriteDisturbFault,
    )
    from repro.faults.weak_cell import WeakCellDefect

    count = max(1, int(geometry.cells * rate))
    cells = rng.choice(geometry.cells, size=min(count, geometry.cells), replace=False)
    classes = (
        lambda cell: IncorrectReadFault(cell),
        lambda cell: ReadDestructiveFault(cell),
        lambda cell: DeceptiveReadDestructiveFault(cell),
        lambda cell: WriteDisturbFault(cell, [None, 0, 1][int(rng.integers(3))]),
        lambda cell: WeakCellDefect(cell, int(rng.integers(2))),
    )
    return [
        classes[int(rng.integers(len(classes)))](geometry.cell_at(int(index)))
        for index in cells
    ]


def build_bank(
    geometries, defect_rate, seed, intermittent=None, dynamic_rate=None, rows=False
):
    """A seeded faulty bank; ``intermittent=(rate, upset_p)`` layers the
    per-access soft-error population on top of the manufacturing one and
    ``dynamic_rate`` a read/write-disturb + weak-cell population.

    With ``rows`` the manufacturing population attaches as one record of
    rows, after the other layers: attaching a single fault builds any
    pending rows into objects, so the rows come last to reach the session
    unbuilt.  Hook chains on shared cells then run the layers first, so
    row banks are compared with a row-built reference."""
    bank = MemoryBank([SRAM(geometry) for geometry in geometries])
    injector = FaultInjector()
    for index, memory in enumerate(bank):
        population = sample_population(memory.geometry, defect_rate, rng=seed + index)
        if not rows:
            injector.inject(memory, population.faults)
        if dynamic_rate is not None:
            injector.inject(
                memory,
                sample_dynamic_population(
                    memory.geometry, dynamic_rate, make_rng(seed + 31 * index)
                ),
            )
        if intermittent is not None:
            rate, upset_probability = intermittent
            injector.inject(
                memory,
                list(
                    sample_intermittent_population(
                        memory.geometry, rate, upset_probability, seed=seed + index
                    )
                ),
            )
        if rows:
            injector.inject(memory, population)
    return bank, injector


def assert_states_equal(reference_bank, fast_bank):
    for reference_memory, fast_memory in zip(reference_bank, fast_bank):
        assert fast_memory.dump() == reference_memory.dump()
        assert fast_memory.timebase.cycles == reference_memory.timebase.cycles


def draw_intermittent_case(case_index: int):
    """Like :func:`draw_case`, plus an intermittent/soft-error layer."""
    geometries, defect_rate, algorithm, seed = draw_case(case_index)
    rng = make_rng(0x50F7 + case_index)
    intermittent = (
        float(rng.uniform(0.01, 0.15)),  # fraction of cells upset-prone
        float(rng.uniform(0.05, 0.9)),  # per-access upset probability
    )
    return geometries, defect_rate, algorithm, seed, intermittent


def draw_bucketed_case(case_index: int):
    """A fuzz case whose bank repeats geometries (non-trivial buckets).

    Draws 1-2 distinct shapes and assigns 2-5 memories to them round
    robin, so at least one geometry bucket stacks several memories --
    the configuration the batched tier's fleet-wide ops actually
    amortize over.
    """
    rng = make_rng(0xBA7C + case_index)
    shapes = [
        (int(rng.integers(3, 25)), int(rng.integers(2, 11)))
        for _ in range(int(rng.integers(1, 3)))
    ]
    memories = int(rng.integers(2, 6))
    geometries = [
        MemoryGeometry(*shapes[i % len(shapes)], f"fuzz_{i}")
        for i in range(memories)
    ]
    defect_rate = float(rng.uniform(0.0, 0.08))
    algorithm = ALGORITHMS[int(rng.integers(len(ALGORITHMS)))]
    seed = int(rng.integers(2**31))
    return geometries, defect_rate, algorithm, seed


@pytest.mark.parametrize("case_index", range(CASES))
class TestDifferentialFuzz:
    def test_raw_march_backend(self, case_index):
        geometries, defect_rate, algorithm, seed = draw_case(case_index)
        reference_bank, _ = build_bank(geometries, defect_rate, seed)
        fast_bank, _ = build_bank(geometries, defect_rate, seed)
        for reference_memory, fast_memory in zip(reference_bank, fast_bank):
            reference = ReferenceBackend().run(
                reference_memory, algorithm(reference_memory.bits)
            )
            fast = get_backend("numpy").run(fast_memory, algorithm(fast_memory.bits))
            assert fast.failures == reference.failures
            assert fast.cycles == reference.cycles
            assert fast.elapsed_ns == reference.elapsed_ns
        assert_states_equal(reference_bank, fast_bank)

    def test_proposed_session(self, case_index):
        geometries, defect_rate, algorithm, seed = draw_case(case_index)
        reference_bank, _ = build_bank(geometries, defect_rate, seed)
        fast_bank, _ = build_bank(geometries, defect_rate, seed)
        reference = FastDiagnosisScheme(
            reference_bank, algorithm_factory=algorithm
        ).diagnose()
        fast = run_session(
            FastDiagnosisScheme(fast_bank, algorithm_factory=algorithm),
            backend="numpy",
        )
        assert fast.failures == reference.failures
        assert fast.cycles == reference.cycles
        assert fast.pause_ns == reference.pause_ns
        assert fast.deliveries == reference.deliveries
        assert fast.nwrc_ops == reference.nwrc_ops
        assert fast.time_ns == reference.time_ns
        assert_states_equal(reference_bank, fast_bank)

    def test_baseline_session(self, case_index):
        geometries, defect_rate, _, seed = draw_case(case_index)
        reference_bank, reference_injector = build_bank(geometries, defect_rate, seed)
        fast_bank, fast_injector = build_bank(geometries, defect_rate, seed)
        reference = HuangJoneScheme(reference_bank).diagnose(
            reference_injector, bit_accurate=True
        )
        fast = run_baseline_session(
            HuangJoneScheme(fast_bank),
            fast_injector,
            backend="numpy",
            bit_accurate=True,
        )
        assert fast.iterations == reference.iterations
        assert fast.localized == reference.localized
        assert [(n, f.describe()) for n, f in fast.missed] == [
            (n, f.describe()) for n, f in reference.missed
        ]
        assert fast.cycles == reference.cycles
        assert_states_equal(reference_bank, fast_bank)


@pytest.mark.parametrize("case_index", range(CASES))
class TestDifferentialFuzzIntermittent:
    """The same three equivalence levels over soft-error populations.

    Intermittent hooks draw from per-fault deterministic streams, so the
    fast paths -- which replay every fault-hooked word behaviourally in
    exact reference order -- must reproduce the reference's stochastic
    behaviour draw for draw.
    """

    def test_raw_march_backend(self, case_index):
        geometries, defect_rate, algorithm, seed, layer = draw_intermittent_case(
            case_index
        )
        reference_bank, _ = build_bank(geometries, defect_rate, seed, layer)
        fast_bank, _ = build_bank(geometries, defect_rate, seed, layer)
        for reference_memory, fast_memory in zip(reference_bank, fast_bank):
            reference = ReferenceBackend().run(
                reference_memory, algorithm(reference_memory.bits)
            )
            fast = get_backend("numpy").run(fast_memory, algorithm(fast_memory.bits))
            assert fast.failures == reference.failures
            assert fast.cycles == reference.cycles
        assert_states_equal(reference_bank, fast_bank)

    def test_proposed_session(self, case_index):
        geometries, defect_rate, algorithm, seed, layer = draw_intermittent_case(
            case_index
        )
        reference_bank, _ = build_bank(geometries, defect_rate, seed, layer)
        fast_bank, _ = build_bank(geometries, defect_rate, seed, layer)
        reference = FastDiagnosisScheme(
            reference_bank, algorithm_factory=algorithm
        ).diagnose()
        fast = run_session(
            FastDiagnosisScheme(fast_bank, algorithm_factory=algorithm),
            backend="numpy",
        )
        assert fast.failures == reference.failures
        assert fast.cycles == reference.cycles
        assert fast.time_ns == reference.time_ns
        assert_states_equal(reference_bank, fast_bank)

    def test_baseline_session(self, case_index):
        geometries, defect_rate, _, seed, layer = draw_intermittent_case(case_index)
        reference_bank, reference_injector = build_bank(
            geometries, defect_rate, seed, layer
        )
        fast_bank, fast_injector = build_bank(geometries, defect_rate, seed, layer)
        reference = HuangJoneScheme(reference_bank).diagnose(
            reference_injector, bit_accurate=True
        )
        fast = run_baseline_session(
            HuangJoneScheme(fast_bank),
            fast_injector,
            backend="numpy",
            bit_accurate=True,
        )
        assert fast.iterations == reference.iterations
        assert fast.localized == reference.localized
        assert [(n, f.describe()) for n, f in fast.missed] == [
            (n, f.describe()) for n, f in reference.missed
        ]
        assert fast.cycles == reference.cycles
        assert_states_equal(reference_bank, fast_bank)


@pytest.mark.parametrize("case_index", range(CASES))
class TestDifferentialFuzzBatched:
    """reference == numpy == batched over bucket-stacking banks.

    Banks repeat geometries so the batched tier's stacked sweeps cover
    multi-memory buckets (plus the occasional single-memory bucket); the
    assertions are the full three-way report, fault-map and end-state
    comparison, manufacturing-only and with the intermittent layer.
    """

    @staticmethod
    def intermittent_layer(case_index):
        rng = make_rng(0xBEA7 + case_index)
        # Roughly half the cases add the soft-error population.
        if rng.integers(2) == 0:
            return None
        return (
            float(rng.uniform(0.01, 0.15)),
            float(rng.uniform(0.05, 0.9)),
        )

    def test_proposed_session_three_way(self, case_index, monkeypatch):
        geometries, defect_rate, algorithm, seed = draw_bucketed_case(case_index)
        layer = self.intermittent_layer(case_index)
        banks, reports = run_legs(
            monkeypatch, algorithm, geometries, defect_rate, seed, layer
        )
        for backend in LEGS:
            fast, reference = reports[backend], reports[reference_leg(backend)]
            assert fast.failures == reference.failures, backend
            assert fast.cycles == reference.cycles, backend
            assert fast.pause_ns == reference.pause_ns, backend
            assert fast.deliveries == reference.deliveries, backend
            assert fast.nwrc_ops == reference.nwrc_ops, backend
            assert fast.time_ns == reference.time_ns, backend
            assert_states_equal(banks[reference_leg(backend)], banks[backend])

    def test_raw_march_backend(self, case_index):
        geometries, defect_rate, algorithm, seed = draw_bucketed_case(case_index)
        reference_bank, _ = build_bank(geometries, defect_rate, seed)
        fast_bank, _ = build_bank(geometries, defect_rate, seed)
        for reference_memory, fast_memory in zip(reference_bank, fast_bank):
            reference = ReferenceBackend().run(
                reference_memory, algorithm(reference_memory.bits)
            )
            fast = get_backend("batched").run(fast_memory, algorithm(fast_memory.bits))
            assert fast.failures == reference.failures
            assert fast.cycles == reference.cycles
            assert fast.elapsed_ns == reference.elapsed_ns
        assert_states_equal(reference_bank, fast_bank)

    def test_baseline_session(self, case_index):
        geometries, defect_rate, _, seed = draw_bucketed_case(case_index)
        layer = self.intermittent_layer(case_index)
        reference_bank, reference_injector = build_bank(
            geometries, defect_rate, seed, layer
        )
        fast_bank, fast_injector = build_bank(geometries, defect_rate, seed, layer)
        reference = HuangJoneScheme(reference_bank).diagnose(
            reference_injector, bit_accurate=True
        )
        fast = run_baseline_session(
            HuangJoneScheme(fast_bank),
            fast_injector,
            backend="batched",
            bit_accurate=True,
        )
        assert fast.iterations == reference.iterations
        assert fast.localized == reference.localized
        assert [(n, f.describe()) for n, f in fast.missed] == [
            (n, f.describe()) for n, f in reference.missed
        ]
        assert fast.cycles == reference.cycles
        assert_states_equal(reference_bank, fast_bank)


def draw_dense_case(case_index: int):
    """A bucket-stacking case in the dense diagnostic regime.

    Defect rates are drawn from [0.5 %, 12 %] (the paper's diagnostic and
    heavy-diagnostic regimes and beyond), a read/write-disturb + weak-cell
    layer covers every remaining table-lowerable class, and a mandatory
    intermittent layer forces the mixed table/behavioural partition --
    the configuration the compiled fault table was built for.
    """
    rng = make_rng(0xDE5E + case_index)
    shapes = [
        (int(rng.integers(4, 30)), int(rng.integers(2, 11)))
        for _ in range(int(rng.integers(1, 3)))
    ]
    memories = int(rng.integers(2, 6))
    geometries = [
        MemoryGeometry(*shapes[i % len(shapes)], f"dense_{i}")
        for i in range(memories)
    ]
    defect_rate = float(rng.uniform(0.005, 0.12))
    dynamic_rate = float(rng.uniform(0.01, 0.08))
    intermittent = (
        float(rng.uniform(0.01, 0.1)),
        float(rng.uniform(0.05, 0.9)),
    )
    algorithm = ALGORITHMS[int(rng.integers(len(ALGORITHMS)))]
    seed = int(rng.integers(2**31))
    return geometries, defect_rate, dynamic_rate, intermittent, algorithm, seed


@pytest.mark.parametrize("case_index", range(CASES))
class TestDifferentialFuzzDense:
    """reference == numpy == batched in the dense-defect regimes.

    Dense populations push most words onto the compiled-table lane while
    the intermittent layer keeps a behavioural population interleaved on
    the same memories, so these cases exercise the three-way lane
    partition (clean / table / replay), taint propagation across coupling
    edges and the wrap-around block evaluation together.
    """

    def test_proposed_session_three_way(self, case_index, monkeypatch):
        (
            geometries,
            defect_rate,
            dynamic_rate,
            intermittent,
            algorithm,
            seed,
        ) = draw_dense_case(case_index)
        banks, reports = run_legs(
            monkeypatch,
            algorithm,
            geometries,
            defect_rate,
            seed,
            intermittent,
            dynamic_rate,
        )
        for backend in LEGS:
            fast, reference = reports[backend], reports[reference_leg(backend)]
            assert fast.failures == reference.failures, backend
            assert fast.cycles == reference.cycles, backend
            assert fast.deliveries == reference.deliveries, backend
            assert fast.nwrc_ops == reference.nwrc_ops, backend
            assert fast.time_ns == reference.time_ns, backend
            assert_states_equal(banks[reference_leg(backend)], banks[backend])

    def test_dense_manufacturing_only(self, case_index):
        geometries, defect_rate, dynamic_rate, _, algorithm, seed = draw_dense_case(
            case_index
        )
        reference_bank, _ = build_bank(
            geometries, defect_rate, seed, dynamic_rate=dynamic_rate
        )
        fast_bank, _ = build_bank(
            geometries, defect_rate, seed, dynamic_rate=dynamic_rate
        )
        reference = FastDiagnosisScheme(
            reference_bank, algorithm_factory=algorithm
        ).diagnose()
        fast = run_session(
            FastDiagnosisScheme(fast_bank, algorithm_factory=algorithm),
            backend="batched",
        )
        assert fast.failures == reference.failures
        assert fast.cycles == reference.cycles
        assert_states_equal(reference_bank, fast_bank)


class TestDefaultPlan:
    """The shipped table threshold: stacked replay and mixed sessions."""

    def test_fuzz_matrix_replays_stacked_lowerable_buckets(self):
        """The default-plan legs above run stacked buckets whose
        lowerable faults replay, which the always-table plan never does."""
        from repro.engine.batched import geometry_buckets
        from repro.engine.fault_table import partition_faults

        stacked_replay = False
        for case_index in range(CASES):
            geometries, defect_rate, dynamic, layer, _, seed = draw_dense_case(
                case_index
            )
            bank = build_bank(geometries, defect_rate, seed, layer, dynamic)[0]
            for indices in geometry_buckets(bank).values():
                memories = [bank[index] for index in indices]
                hooked = sum(len(memory.hooked_words()) for memory in memories)
                stacked_replay |= (
                    hooked < DEFAULT_TABLE_ROWS
                    and len(memories) > 1
                    and any(partition_faults(memory)[0] for memory in memories)
                )
        assert stacked_replay

    def test_session_mixing_both_plans(self, monkeypatch):
        """A dense bucket on the table and a sparse one on replay in one
        session match the reference, numpy and the always-table plan."""
        from repro.telemetry.core import activate, deactivate

        geometries = [
            MemoryGeometry(words, bits, f"mixed_{index}")
            for index, (words, bits) in enumerate([(32, 8), (6, 4)] * 2)
        ]

        banks = {
            backend: build_bank(geometries, 0.05, 90, (0.05, 0.4), 0.05)[0]
            for backend in ("reference", "numpy", "batched", "batched-default")
        }
        reference = FastDiagnosisScheme(banks["reference"]).diagnose()
        reports = {
            backend: run_session(FastDiagnosisScheme(banks[backend]), backend=backend)
            for backend in ("numpy", "batched")
        }
        tr = activate()
        try:
            reports["batched-default"] = run_default_plan(
                monkeypatch, FastDiagnosisScheme(banks["batched-default"])
            )
        finally:
            deactivate()
        assert tr.counters.get("bucket.sessions") == 2
        assert tr.counters.get("bucket.table_plans") == 1
        for backend, fast in reports.items():
            assert fast.failures == reference.failures, backend
            assert fast.cycles == reference.cycles, backend
            assert fast.time_ns == reference.time_ns, backend
            assert_states_equal(banks["reference"], banks[backend])


class TestAggregateParity:
    """Fleet and scenario aggregates agree across all three backends."""

    @staticmethod
    def comparable(report):
        return report.deterministic_dict()

    def test_fleet_report_parity(self):
        from repro.engine.fleet import FleetSpec, run_fleet

        reports = {}
        for backend in ("reference", "numpy", "batched"):
            spec = FleetSpec(
                soc="case-study",
                memories=4,
                campaigns=3,
                defect_rate=0.004,
                master_seed=11,
                backend=backend,
            )
            reports[backend] = self.comparable(run_fleet(spec, workers=1))
        assert reports["numpy"] == reports["reference"]
        assert reports["batched"] == reports["reference"]

    def test_scenario_report_parity(self):
        from repro.scenarios import run_scenario_fleet
        from repro.scenarios.spec import ScenarioSpec

        shapes = (
            (12, 6, "s0"),
            (12, 6, "s1"),
            (8, 4, "s2"),
            (12, 6, "s3"),
        )
        reports = {}
        for backend in ("reference", "numpy", "batched"):
            spec = ScenarioSpec(
                campaigns=2,
                shapes=shapes,
                master_seed=5,
                backend=backend,
                base_defect_rate=0.01,
                cluster_count=1,
                intermittent_rate=0.01,
                upset_probability=0.4,
                max_retest_rounds=2,
            )
            reports[backend] = self.comparable(
                run_scenario_fleet(spec, workers=1)
            )
        assert reports["numpy"] == reports["reference"]
        assert reports["batched"] == reports["reference"]


@pytest.mark.parametrize("case_index", range(CASES))
class TestDifferentialFuzzSecDed:
    """reference == numpy == batched behind the SEC-DED observation layer.

    ECC sessions must agree on the *post-correction* failure sets and on
    every decoder counter: the layer is a pure function of the
    pre-correction mismatch, so any divergence here means a backend saw a
    different raw mismatch or classified it differently.  Cases reuse the
    bucket-stacking generator (so wrapping geometry buckets hit the
    batched tier's block evaluation) with dense-enough populations that
    multi-bit words exercise the DED/miscorrection branches, not just the
    masked single-bit path.
    """

    @staticmethod
    def draw(case_index):
        geometries, _, algorithm, seed = draw_bucketed_case(case_index)
        rng = make_rng(0xECC2 + case_index)
        defect_rate = float(rng.uniform(0.02, 0.15))
        return geometries, defect_rate, algorithm, seed

    def test_proposed_session_three_way(self, case_index):
        from repro.ecc import EccConfig

        geometries, defect_rate, algorithm, seed = self.draw(case_index)
        banks = {
            backend: build_bank(geometries, defect_rate, seed)[0]
            for backend in ("reference", "numpy", "batched")
        }
        reference = FastDiagnosisScheme(
            banks["reference"], algorithm_factory=algorithm, ecc=EccConfig()
        ).diagnose()
        assert reference.ecc is not None
        for backend in ("numpy", "batched"):
            fast = run_session(
                FastDiagnosisScheme(
                    banks[backend], algorithm_factory=algorithm, ecc=EccConfig()
                ),
                backend=backend,
            )
            assert fast.failures == reference.failures, backend
            assert fast.ecc == reference.ecc, backend
            assert fast.cycles == reference.cycles, backend
            assert fast.time_ns == reference.time_ns, backend
            assert_states_equal(banks["reference"], banks[backend])

    def test_ecc_masks_single_bit_words(self, case_index):
        """Against the same bank, an ECC session never fails a word whose
        mismatch was a correctable single-bit error: its failure count is
        bounded by the raw session's, with the difference showing up in
        the decoder's masked-read counter."""
        from repro.ecc import EccConfig

        geometries, defect_rate, algorithm, seed = self.draw(case_index)
        raw_bank, _ = build_bank(geometries, defect_rate, seed)
        ecc_bank, _ = build_bank(geometries, defect_rate, seed)
        raw = run_session(
            FastDiagnosisScheme(raw_bank, algorithm_factory=algorithm),
            backend="numpy",
        )
        ecc = run_session(
            FastDiagnosisScheme(
                ecc_bank, algorithm_factory=algorithm, ecc=EccConfig()
            ),
            backend="numpy",
        )
        assert ecc.total_failures <= raw.total_failures
        masked = sum(s.masked_reads for s in ecc.ecc.values())
        assert raw.total_failures - ecc.total_failures == masked
