"""One bank per campaign: the effective baseline shares the campaign's bank.

Effective mode reads only the injector's ground truth, so a campaign (and
a scenario flow) builds one bank; only the bit-accurate baseline, which
detaches faults as it localizes, still gets a twin from
``faulty_bank()``.  Sharing must not move the baseline report: it equals
the one built on a fresh twin, localization order included.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baseline.scheme import HuangJoneScheme
from repro.core.campaign import DiagnosisCampaign
from repro.memory.geometry import MemoryGeometry
from repro.scenarios import ScenarioSpec, run_scenario_campaign
from repro.soc.chip import SoCConfig

SOC = SoCConfig(
    name="one-bank",
    geometries=[
        MemoryGeometry(16, 8, "wide"),
        MemoryGeometry(16, 8, "wide2"),
        MemoryGeometry(8, 5, "narrow"),
        MemoryGeometry(5, 3, "tiny"),
    ],
)

SPEC = ScenarioSpec(
    name="one-bank-flow",
    shapes=((16, 8, "fw"), (12, 6, "fn"), (10, 4, "ft")),
    campaigns=1,
    master_seed=3,
    base_defect_rate=0.02,
    cluster_count=1,
    cluster_peak_rate=0.06,
    intermittent_rate=0.02,
    upset_probability=0.5,
    backend="numpy",
)


@pytest.fixture
def build_calls(monkeypatch):
    """Names of the SoCs whose bank was built, one entry per build."""
    calls: list[str] = []
    original = SoCConfig.build_bank

    def counting(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SoCConfig, "build_bank", counting)
    return calls


def baseline_view(report) -> tuple:
    """A baseline report's content; missed faults by description."""
    return (
        report.iterations,
        report.localized,
        [(name, fault.describe()) for name, fault in report.missed],
        report.time_ns,
    )


class TestBankBuilds:
    @pytest.mark.parametrize("bit_accurate, builds", [(False, 1), (True, 2)])
    def test_campaign_run(self, build_calls, bit_accurate, builds):
        DiagnosisCampaign(
            SOC,
            defect_rate=0.04,
            seed=1,
            backend="numpy",
            baseline_bit_accurate=bit_accurate,
        ).run(include_baseline=True, repair=True)
        assert build_calls == [SOC.name] * builds

    @pytest.mark.parametrize("bit_accurate, builds", [(False, 1), (True, 2)])
    def test_scenario_campaign(self, build_calls, bit_accurate, builds):
        spec = dataclasses.replace(SPEC, baseline_bit_accurate=bit_accurate)
        report = run_scenario_campaign(spec, 0)
        assert report.baseline is not None
        assert len(build_calls) == builds


class TestSharedBankBaseline:
    @pytest.mark.parametrize("backend", ["reference", "numpy", "batched"])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_a_fresh_twin(self, backend, seed):
        campaign = DiagnosisCampaign(
            SOC, defect_rate=0.04, seed=seed, backend=backend
        )
        report = campaign.run(include_baseline=True, repair=True)
        assert report.baseline.localized, "vacuous: nothing localized"
        twin_bank, twin_injector = campaign.faulty_bank()
        twin = campaign.diagnose_baseline(
            HuangJoneScheme(twin_bank, period_ns=SOC.period_ns), twin_injector
        )
        assert baseline_view(report.baseline) == baseline_view(twin)
