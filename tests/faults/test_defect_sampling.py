"""DefectProfile.sample_type draws exactly what ``Generator.choice(p=...)`` draws."""

from __future__ import annotations

import pytest

from repro.faults.defects import DefectProfile, DefectType
from repro.util.rng import make_rng

PROFILES = {
    "default": DefectProfile(),
    "weighted": DefectProfile(
        weights={
            DefectType.NODE_SHORT: 3.0,
            DefectType.ACCESS_OPEN: 0.25,
            DefectType.CELL_BRIDGE: 1.7,
            DefectType.PULLUP_OPEN: 1e-6,
        }
    ),
    "zero-weight": DefectProfile(
        weights={
            DefectType.NODE_SHORT: 2.0,
            DefectType.ACCESS_OPEN: 0.0,
            DefectType.CELL_BRIDGE: 0.0,
            DefectType.PULLUP_OPEN: 5.0,
        }
    ),
}


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_sample_type_pins_generator_choice(name):
    profile = PROFILES[name]
    types, probs = zip(*profile.normalized())
    bisected, chosen = make_rng(11), make_rng(11)
    for _ in range(20_000):
        drawn = profile.sample_type(bisected)
        assert drawn is types[chosen.choice(len(types), p=list(probs))]
    # One uniform double per draw on both sides: the streams stay in step.
    assert bisected.bit_generator.state == chosen.bit_generator.state


def test_zero_weight_types_are_never_drawn():
    rng = make_rng(3)
    drawn = {PROFILES["zero-weight"].sample_type(rng) for _ in range(2_000)}
    assert drawn == {DefectType.NODE_SHORT, DefectType.PULLUP_OPEN}
