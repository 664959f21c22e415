"""Scalar vs lane-plane SEC-DED decode equivalence.

The vectorized decoder must classify every error pattern exactly like the
scalar reference -- that is the whole bit-exactness argument of the ECC
layer -- so this suite fuzzes random widths (including multi-lane words
beyond 64 bits) and random error patterns, comparing outcome flags,
corrected bits and observer accounting through the session-level decode
the fast engine tiers run.
"""

import numpy as np
import pytest

from repro.ecc import EccObserver, secded_code
from repro.ecc.vector import vector_secded
from repro.engine.kernel import ElementPlan, OpPlan, SessionHits
from repro.engine.packing import lanes_for, word_to_lanes
from repro.march.ops import Operation, OpKind
from repro.util.rng import make_rng


def pack_words(words, bits):
    """Pack integer words into ``(n, lanes)`` uint64 lane planes."""
    lanes = lanes_for(bits)
    planes = np.zeros((len(words), lanes), dtype=np.uint64)
    for row, word in enumerate(words):
        for lane in range(lanes):
            planes[row, lane] = np.uint64((word >> (64 * lane)) & (2**64 - 1))
    return planes


def draw_errors(bits, rng, count=64):
    """Nonzero error patterns biased toward low weights (the interesting
    decode regimes: single, double, triple, aliasing)."""
    errors = []
    while len(errors) < count:
        weight = int(rng.integers(1, 6))
        cells = rng.choice(bits, size=min(weight, bits), replace=False)
        error = 0
        for bit in cells:
            error |= 1 << int(bit)
        errors.append(error)
    return errors


@pytest.mark.parametrize("bits", [1, 2, 7, 8, 16, 21, 32, 33, 64, 65, 100])
def test_vector_decode_matches_scalar(bits):
    code = secded_code(bits)
    vcode = vector_secded(bits)
    rng = make_rng(0xECC0 + bits)
    errors = draw_errors(bits, rng)
    outcome = vcode.decode(pack_words(errors, bits))
    for row, error in enumerate(errors):
        scalar = code.observe(0, error)
        expected_bit = -1 if scalar.corrected_bit is None else scalar.corrected_bit
        assert int(outcome.corrected_bit[row]) == expected_bit, error
        assert bool(outcome.masked[row]) == scalar.masked, error
        assert bool(outcome.uncorrectable[row]) == scalar.uncorrectable, error
        assert bool(outcome.check_corrected[row]) == scalar.check_corrected, error


@pytest.mark.parametrize("bits", [8, 13, 64, 70])
def test_session_decode_matches_scalar_observer(bits):
    """Raw mismatches through ``SessionHits.logs`` (alternating vector and
    scalar lanes, repeated cells) account, correct and drop rows exactly
    like the scalar observer decoding them one read at a time."""
    code = secded_code(bits)
    rng = make_rng(0xECC1 + bits)
    errors = draw_errors(bits, rng, count=40)
    addresses = [int(rng.integers(0, 32)) for _ in errors]
    expected_words = [int(rng.integers(0, 2**min(bits, 63))) for _ in errors]

    scalar = EccObserver("m", code)
    post_words = [
        scalar.observe(a, w, w ^ e)
        for a, w, e in zip(addresses, expected_words, errors)
    ]

    lanes = lanes_for(bits)
    read = OpPlan(
        op=Operation(OpKind.READ, 0),
        operation="r0",
        write_word=None,
        expected_plain=0,
        expected_wrapped=0,
        tick_cost=1,
    )
    plan = ElementPlan(
        step_index=0,
        step_label="M0",
        record_background=0,
        deliver_ticks=0,
        ascending=True,
        sweep_length=len(errors),
        ops=(read,),
    )
    vector = EccObserver("m", code)
    hits = SessionHits(lanes, {"m": vector})
    for position, (a, w, e) in enumerate(zip(addresses, expected_words, errors)):
        if position % 2:
            hits.add_scalar(0, 0, [(position, 0, a, w, w ^ e)])
        else:
            hits.add(
                np.zeros(1, dtype=np.int64),
                0,
                0,
                np.array([position]),
                np.array([a]),
                word_to_lanes(w, lanes),
                pack_words([w ^ e], bits),
            )
    (log,) = hits.logs(["m"], bits, [plan])

    assert vector.summary() == scalar.summary()
    survivors = [
        (a, w, post)
        for a, w, post in zip(addresses, expected_words, post_words)
        if post != w
    ]
    assert 0 < len(survivors) < len(errors)  # some rows masked, some not
    assert [(r.address, r.expected, r.observed) for r in log] == survivors
