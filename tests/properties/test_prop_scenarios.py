"""Property-based invariants of the scenario cluster sampler.

The three properties the scenario engine's reproducibility story rests
on:

* **worker-count determinism** -- a scenario fleet's aggregated report is
  a pure function of the spec (master seed included): inline execution,
  pooled execution and any chunking must agree exactly;
* **radius monotonicity** -- growing a cluster field's decay radius never
  lowers the defect rate it assigns anywhere (so "wider clustering"
  always means "at least as many defects" for every memory);
* **mean convergence** -- the fault populations the field drives match
  the configured rates: each memory receives exactly the closed-form
  count for its assigned rate, and the per-access upset probability of
  the intermittent models converges empirically to the configured value.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.intermittent import IntermittentReadFault
from repro.faults.population import expected_fault_count
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM
from repro.scenarios import ClusterField, ScenarioSpec, run_scenario_fleet
from repro.scenarios.cluster import assign_rates, sample_cluster_centers
from repro.scenarios.flow import clustered_sampler

#: Small scenario population shared by the determinism checks.
SPEC = ScenarioSpec(
    shapes=((12, 6, "alpha"), (9, 5, "beta"), (16, 4, "gamma")),
    campaigns=4,
    master_seed=11,
    base_defect_rate=0.01,
    cluster_count=2,
    cluster_radius=30.0,
    cluster_peak_rate=0.05,
    intermittent_rate=0.01,
    upset_probability=0.4,
    backend="auto",
)


class TestWorkerCountDeterminism:
    def test_pooled_matches_inline(self):
        inline = run_scenario_fleet(SPEC, workers=1)
        pooled = run_scenario_fleet(SPEC, workers=2, chunk_size=1)
        assert pooled.deterministic_dict() == inline.deterministic_dict()

    def test_chunking_does_not_change_results(self):
        whole = run_scenario_fleet(SPEC, workers=1, chunk_size=4)
        minced = run_scenario_fleet(SPEC, workers=1, chunk_size=1)
        assert whole.deterministic_dict() == minced.deterministic_dict()

    def test_three_workers_match_two(self):
        two = run_scenario_fleet(SPEC, workers=2, chunk_size=1)
        three = run_scenario_fleet(SPEC, workers=3, chunk_size=1)
        assert two.deterministic_dict() == three.deterministic_dict()


centers_strategy = st.lists(
    st.tuples(
        st.floats(0.0, 100.0, allow_nan=False),
        st.floats(0.0, 100.0, allow_nan=False),
    ),
    min_size=0,
    max_size=4,
).map(tuple)


class TestRadiusMonotonicity:
    @given(
        centers=centers_strategy,
        x=st.floats(0.0, 100.0, allow_nan=False),
        y=st.floats(0.0, 100.0, allow_nan=False),
        radius=st.floats(0.5, 80.0, allow_nan=False),
        growth=st.floats(0.0, 80.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_rate_never_decreases_with_radius(
        self, centers, x, y, radius, growth
    ):
        narrow = ClusterField(
            centers=centers, base_rate=0.002, peak_rate=0.04, radius=radius
        )
        wide = ClusterField(
            centers=centers,
            base_rate=0.002,
            peak_rate=0.04,
            radius=radius + growth,
        )
        assert wide.rate_at(x, y) >= narrow.rate_at(x, y)

    @given(radius=st.floats(0.5, 40.0), growth=st.floats(0.1, 60.0))
    @settings(max_examples=25, deadline=None)
    def test_assigned_rates_monotone_for_every_memory(self, radius, growth):
        import dataclasses

        soc = SPEC.build_soc()
        floorplan = SPEC.build_floorplan(soc)
        narrow = dataclasses.replace(SPEC, cluster_radius=radius)
        wide = dataclasses.replace(SPEC, cluster_radius=radius + growth)
        narrow_rates = assign_rates(narrow.cluster_field(0), floorplan)
        wide_rates = assign_rates(wide.cluster_field(0), floorplan)
        assert set(narrow_rates) == set(wide_rates)
        for name, rate in narrow_rates.items():
            assert wide_rates[name] >= rate

    def test_rate_clamped_at_max(self):
        field = ClusterField(
            centers=((0.0, 0.0),) * 8,
            base_rate=0.01,
            peak_rate=0.2,
            radius=50.0,
            max_rate=0.15,
        )
        assert field.rate_at(0.0, 0.0) == 0.15


class TestMeanConvergence:
    def test_population_sizes_match_assigned_rates_exactly(self):
        # The field -> population pipeline realizes the closed-form count
        # for every memory's assigned rate, campaign for campaign.
        soc = SPEC.build_soc()
        floorplan = SPEC.build_floorplan(soc)
        for index in range(4):
            rates = assign_rates(SPEC.cluster_field(index), floorplan)
            sampler = clustered_sampler(SPEC, rates, SPEC.campaign_seed(index))
            for position, geometry in enumerate(soc.geometries):
                memory = SRAM(geometry)
                population = sampler(position, memory)
                assert population.size == expected_fault_count(
                    geometry, rates[geometry.name]
                )

    def test_fleet_mean_assigned_rate_matches_field_mean(self):
        import dataclasses

        spec = dataclasses.replace(
            SPEC, cluster_centers=((20.0, 20.0), (70.0, 60.0))
        )
        report = run_scenario_fleet(spec, workers=1)
        floorplan = spec.build_floorplan()
        expected = spec.cluster_field(0).mean_rate(floorplan.placements)
        # Shared explicit centers -> every campaign sees the same field,
        # so the fleet mean equals the analytic placement mean exactly.
        assert report.assigned_rate.count == spec.campaigns
        assert abs(report.assigned_rate.mean - expected) < 1e-12

    @given(
        probability=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_upset_rate_converges_to_configured_probability(
        self, probability, seed
    ):
        memory = SRAM(MemoryGeometry(4, 4, "conv"))
        fault = IntermittentReadFault(CellRef(1, 2), probability, seed=seed)
        fault.attach(memory)
        trials = 4000
        upsets = sum(memory.read(1) != 0 for _ in range(trials))
        empirical = upsets / trials
        # 4000 Bernoulli draws: a +/- 0.05 window is > 6 sigma at p=0.5.
        assert abs(empirical - probability) < 0.05

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_cluster_centers_land_on_die(self, seed):
        centers = sample_cluster_centers(5, 100.0, seed, 3)
        assert len(centers) == 5
        assert all(0.0 <= x <= 100.0 and 0.0 <= y <= 100.0 for x, y in centers)
