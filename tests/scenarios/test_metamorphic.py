"""Metamorphic diagnosis invariants of the scenario engine.

Three transformations that must be behavioural no-ops:

* **memory relabeling** -- permuting the order of the SoC's memory list
  (placements and fault streams are keyed by *name*, the controller by
  the bank's extrema, so nothing observable may move);
* **fault-injection order** -- permuting the rows of a memory's
  population, hence the order their faults attach (faults target
  distinct victims; hook dispatch must not depend on attach order);
* **floorplan symmetry** -- reflecting or translating cluster centers
  *and* placements together preserves every center-to-memory distance,
  hence every assigned rate, hence the whole flow outcome.

Each invariant is checked on the localized-fault sets and the measured
reduction factor R, per the scenario acceptance contract.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.campaign import DiagnosisCampaign
from repro.faults.population import FaultPopulation
from repro.scenarios import ClusterField, ScenarioSpec, run_scenario_campaign
from repro.scenarios.cluster import assign_rates
from repro.scenarios.flow import clustered_sampler
from repro.soc.floorplan import Floorplan, Placement

BASE_SHAPES = ((12, 6, "alpha"), (16, 8, "beta"), (9, 5, "gamma"))

SPEC = ScenarioSpec(
    shapes=BASE_SHAPES,
    campaigns=1,
    master_seed=23,
    base_defect_rate=0.015,
    cluster_count=2,
    cluster_radius=28.0,
    cluster_peak_rate=0.06,
    intermittent_rate=0.01,
    upset_probability=0.5,
    spares_per_memory=16,
    backend="auto",
)


def localized_sets(report) -> dict[str, frozenset]:
    """Per-memory localized (detected) cell sets of the whole flow."""
    proposed = report.proposed
    return {
        name: frozenset(proposed.detected_cells(name))
        for name in proposed.failures
    }


def baseline_localized(report) -> frozenset:
    """Order-free view of the baseline's localization outcome."""
    if report.baseline is None:
        return frozenset()
    return frozenset(
        (f.memory_name, f.cell, f.fault_class) for f in report.baseline.localized
    )


def flow_fingerprint(report) -> dict:
    """Everything the metamorphic relations require to be invariant."""
    return {
        "localized": localized_sets(report),
        "baseline_localized": baseline_localized(report),
        "reduction_factor": report.reduction_factor,
        "injected": report.injected_faults,
        "escaped": report.escaped_faults,
        "retest_rounds": report.retest_rounds,
        "retest_converged": report.retest_converged,
        "intermittent": (
            report.intermittent_faults,
            report.intermittent_detected,
        ),
        "assigned_rates": report.assigned_rates,
    }


PERMUTATIONS = [(1, 0, 2), (2, 1, 0), (1, 2, 0)]


class TestMemoryRelabeling:
    @pytest.mark.parametrize("order", PERMUTATIONS)
    def test_permuting_memory_order_is_a_no_op(self, order):
        baseline_run = run_scenario_campaign(SPEC, 0)
        permuted_spec = dataclasses.replace(
            SPEC, shapes=tuple(BASE_SHAPES[i] for i in order)
        )
        permuted_run = run_scenario_campaign(permuted_spec, 0)
        assert flow_fingerprint(permuted_run) == flow_fingerprint(baseline_run)


class TestInjectionOrder:
    # Dense enough that every memory draws several rows (4, 8 and 4), so
    # each permutation reorders something.
    SPEC = dataclasses.replace(SPEC, base_defect_rate=0.1, cluster_peak_rate=0.2)

    @classmethod
    def run_with_order(cls, permute) -> object:
        spec = cls.SPEC
        soc = spec.build_soc()
        floorplan = spec.build_floorplan(soc)
        rates = assign_rates(spec.cluster_field(0), floorplan)
        seed = spec.campaign_seed(0)
        inner = clustered_sampler(spec, rates, seed)

        def sampler(index, memory):
            population = inner(index, memory)
            order = permute(list(range(population.size)))
            # A test-local copy of the population with its rows permuted.
            return FaultPopulation(
                population.geometry,
                population.defect_rate,
                population.columns[:, order],
            )

        campaign = DiagnosisCampaign(
            soc,
            seed=seed,
            spares_per_memory=spec.spares_per_memory,
            backend=spec.backend,
            sampler=sampler,
        )
        return campaign.run(include_baseline=True, repair=True)

    @pytest.mark.parametrize(
        "permute",
        [
            lambda rows: list(reversed(rows)),
            lambda rows: rows[1::2] + rows[::2],
        ],
        ids=["reversed", "interleaved"],
    )
    def test_permuting_fault_attachment_order_is_a_no_op(self, permute):
        reference = self.run_with_order(lambda rows: rows)
        permuted = self.run_with_order(permute)
        assert permuted.proposed.failures == reference.proposed.failures
        assert permuted.baseline.localized == reference.baseline.localized
        assert permuted.reduction_factor == reference.reduction_factor
        assert permuted.verification_passed == reference.verification_passed


class TestFloorplanSymmetry:
    DIE = SPEC.die_size

    @staticmethod
    def transform_floorplan(floorplan, transform) -> Floorplan:
        clone = Floorplan.name_seeded(floorplan.soc, die_size=floorplan.die_size)
        clone.placements = [
            Placement(p.memory_name, *transform(p.x, p.y))
            for p in floorplan.placements
        ]
        return clone

    @pytest.mark.parametrize(
        "transform_name",
        ["reflect_x", "reflect_y", "translate", "transpose"],
    )
    def test_symmetry_preserves_rates_and_flow(self, transform_name):
        die = self.DIE
        transforms = {
            "reflect_x": lambda x, y: (die - x, y),
            "reflect_y": lambda x, y: (x, die - y),
            # A common translation preserves all relative distances even
            # though it moves points off the nominal die.
            "translate": lambda x, y: (x + 13.5, y - 7.25),
            "transpose": lambda x, y: (y, x),
        }
        transform = transforms[transform_name]
        soc = SPEC.build_soc()
        floorplan = SPEC.build_floorplan(soc)
        field = SPEC.cluster_field(0)
        moved_field = ClusterField(
            centers=tuple(transform(x, y) for x, y in field.centers),
            base_rate=field.base_rate,
            peak_rate=field.peak_rate,
            radius=field.radius,
            max_rate=field.max_rate,
        )
        moved_floorplan = self.transform_floorplan(floorplan, transform)

        rates = assign_rates(field, floorplan)
        moved_rates = assign_rates(moved_field, moved_floorplan)
        assert moved_rates == pytest.approx(rates)

        # Equal rate assignments force the whole downstream flow to be
        # identical: run both through the campaign machinery end to end.
        seed = SPEC.campaign_seed(0)
        reports = []
        for rate_map in (rates, moved_rates):
            campaign = DiagnosisCampaign(
                soc,
                seed=seed,
                spares_per_memory=SPEC.spares_per_memory,
                backend=SPEC.backend,
                sampler=clustered_sampler(SPEC, rate_map, seed),
            )
            reports.append(campaign.run(include_baseline=True, repair=True))
        original, moved = reports
        assert moved.proposed.failures == original.proposed.failures
        assert moved.baseline.localized == original.baseline.localized
        assert moved.reduction_factor == original.reduction_factor
