"""Library of March algorithms.

All generators bind an algorithm to a concrete word width ``bits`` so that
multi-background Marches carry concrete background words.

The NWRTM-merged variants are reconstructed as follows.  An NWRC
behaves exactly like a normal write on every fault class *except* that DRF
and weak cells fail to flip under it, so replacing a normal write with an
NWRC write can only gain coverage.  We therefore merge NWRTM by
*replacement*:

``March C-NW = any(w0); up(r0,Nw1); up(r1,w0); down(r0,w1); down(r1,Nw0);
any(r0)``

* a cell that fails ``Nw1`` (open pull-up on the true node, class DRF1)
  still reads 0 at the following ``up(r1, ...)`` element;
* a cell that fails ``Nw0`` (open pull-up on the complement node, class
  DRF0) still reads 1 at the final ``any(r0)``.

Every March C- element is otherwise intact, so logical coverage is exactly
March C-'s, and the merge costs *zero* extra operations.  The paper instead
charges two added NWRC elements -- "(2n + 2c)t" in Eq. (4) -- and the
closed-form model in :mod:`repro.core.timing` reproduces that accounting,
0.12 % of the case study's session (``TestMarchCNW`` pins the free merge).
"""

from __future__ import annotations

from repro.march.algorithm import MarchAlgorithm, MarchStep, PauseStep
from repro.march.backgrounds import log2_backgrounds, solid_background
from repro.march.element import AddressOrder, MarchElement
from repro.march.ops import nw0, nw1, r0, r1, w0, w1
from repro.util.units import NS_PER_MS

#: Production retention pause per data polarity for delay-based DRF
#: screening; the paper budgets 2 x 100 ms = 200 ms total [3].
RETENTION_PAUSE_NS = 100.0 * NS_PER_MS


def _step(order: AddressOrder, ops, background: int, label: str) -> MarchStep:
    return MarchStep(MarchElement(order, tuple(ops)), background, label)


def mats_plus(bits: int) -> MarchAlgorithm:
    """MATS+ (5n): the minimal March detecting all SAFs and AFs."""
    bg = solid_background(bits)
    steps = [
        _step(AddressOrder.ANY, [w0()], bg, "M0"),
        _step(AddressOrder.UP, [r0(), w1()], bg, "M1"),
        _step(AddressOrder.DOWN, [r1(), w0()], bg, "M2"),
    ]
    return MarchAlgorithm("MATS+", bits, steps)


def _march_c_minus_steps(bits: int, background: int, prefix: str = "M"):
    """The six March C- elements under one background."""
    return [
        _step(AddressOrder.ANY, [w0()], background, f"{prefix}0"),
        _step(AddressOrder.UP, [r0(), w1()], background, f"{prefix}1"),
        _step(AddressOrder.UP, [r1(), w0()], background, f"{prefix}2"),
        _step(AddressOrder.DOWN, [r0(), w1()], background, f"{prefix}3"),
        _step(AddressOrder.DOWN, [r1(), w0()], background, f"{prefix}4"),
        _step(AddressOrder.ANY, [r0()], background, f"{prefix}5"),
    ]


def march_c_minus(bits: int) -> MarchAlgorithm:
    """March C- (10n) [12]: SAFs, TFs, AFs and inter-word CFs."""
    return MarchAlgorithm(
        "March C-", bits, _march_c_minus_steps(bits, solid_background(bits))
    )


def _cw_extension_steps(bits: int):
    """The March CW per-background extension: any(w1); any(r1,w0); any(r0,w1).

    Per extra background this costs 3n writes, 2n reads and 3 background
    deliveries -- the ``(3n + 3c + 2n(c+1)) * ceil(log2 c)`` term of Eq. (2).
    """
    steps = []
    for index, background in enumerate(log2_backgrounds(bits)):
        prefix = f"B{index + 1}"
        steps.extend(
            [
                _step(AddressOrder.ANY, [w1()], background, f"{prefix}a"),
                _step(AddressOrder.ANY, [r1(), w0()], background, f"{prefix}b"),
                _step(AddressOrder.ANY, [r0(), w1()], background, f"{prefix}c"),
            ]
        )
    return steps


def march_cw(bits: int) -> MarchAlgorithm:
    """March CW [13]: March C- plus log2-c column-stripe backgrounds.

    The extension exposes intra-word coupling and column-decoder faults
    that solid backgrounds cannot see.

    Coverage note (a reproduction finding, pinned by
    ``tests/march/test_cw_reduction_gap.py``): the paper's own
    Eq. (2) budget -- 3 writes + 2 reads per address per extra background --
    leaves each set's final write unverified, so one polarity of intra-word
    idempotent coupling between a bit pair that differs in only one
    background escapes.  :func:`march_cw_full` closes that gap by running
    the full March C- per background at ~2x extension cost.
    """
    steps = _march_c_minus_steps(bits, solid_background(bits))
    steps.extend(_cw_extension_steps(bits))
    return MarchAlgorithm("March CW", bits, steps)


def march_cw_full(bits: int) -> MarchAlgorithm:
    """March CW with a *full* March C- per extension background.

    The ablation counterpart to :func:`march_cw`: every write is read back
    in every background, closing the intra-word CFid polarity gap of the
    reduced extension set, at ``10n + n(c+1) ...`` per background instead
    of Eq. (2)'s ``3n + 3c + 2n(c+1)``.
    """
    steps = _march_c_minus_steps(bits, solid_background(bits))
    for index, background in enumerate(log2_backgrounds(bits)):
        steps.extend(
            _march_c_minus_steps(bits, background, prefix=f"F{index + 1}-M")
        )
    return MarchAlgorithm("March CW (full backgrounds)", bits, steps)


def _march_c_nw_steps(bits: int, background: int):
    """March C- merged with NWRTM by replacement (see module docstring)."""
    return [
        _step(AddressOrder.ANY, [w0()], background, "M0"),
        _step(AddressOrder.UP, [r0(), nw1()], background, "M1"),
        _step(AddressOrder.UP, [r1(), w0()], background, "M2"),
        _step(AddressOrder.DOWN, [r0(), w1()], background, "M3"),
        _step(AddressOrder.DOWN, [r1(), nw0()], background, "M4"),
        _step(AddressOrder.ANY, [r0()], background, "M5"),
    ]


def march_c_nw(bits: int) -> MarchAlgorithm:
    """March C- with NWRTM merged (10n, zero pause time)."""
    return MarchAlgorithm(
        "March C-NW", bits, _march_c_nw_steps(bits, solid_background(bits))
    )


def march_cw_nw(bits: int) -> MarchAlgorithm:
    """March CW with NWRTM merged: the algorithm the proposed scheme runs.

    Solid-background March C-NW followed by the unchanged March CW
    extension backgrounds.
    """
    steps = _march_c_nw_steps(bits, solid_background(bits))
    steps.extend(_cw_extension_steps(bits))
    return MarchAlgorithm("March CW-NW", bits, steps)


def mats_plus_plus(bits: int) -> MarchAlgorithm:
    """MATS++ (6n): MATS+ with a trailing read catching TF-down."""
    bg = solid_background(bits)
    steps = [
        _step(AddressOrder.ANY, [w0()], bg, "M0"),
        _step(AddressOrder.UP, [r0(), w1()], bg, "M1"),
        _step(AddressOrder.DOWN, [r1(), w0(), r0()], bg, "M2"),
    ]
    return MarchAlgorithm("MATS++", bits, steps)


def march_x(bits: int) -> MarchAlgorithm:
    """March X (6n): SAFs, TFs, AFs and inversion coupling."""
    bg = solid_background(bits)
    steps = [
        _step(AddressOrder.ANY, [w0()], bg, "M0"),
        _step(AddressOrder.UP, [r0(), w1()], bg, "M1"),
        _step(AddressOrder.DOWN, [r1(), w0()], bg, "M2"),
        _step(AddressOrder.ANY, [r0()], bg, "M3"),
    ]
    return MarchAlgorithm("March X", bits, steps)


def march_y(bits: int) -> MarchAlgorithm:
    """March Y (8n): March X with read-backs for linked transition faults."""
    bg = solid_background(bits)
    steps = [
        _step(AddressOrder.ANY, [w0()], bg, "M0"),
        _step(AddressOrder.UP, [r0(), w1(), r1()], bg, "M1"),
        _step(AddressOrder.DOWN, [r1(), w0(), r0()], bg, "M2"),
        _step(AddressOrder.ANY, [r0()], bg, "M3"),
    ]
    return MarchAlgorithm("March Y", bits, steps)


def march_ss(bits: int) -> MarchAlgorithm:
    """March SS (22n, Hamdioui et al.): all *simple static* faults.

    The double reads ("r0, r0") catch the deceptive read-destructive fault
    (DRDF) that every single-read March -- including March C-/CW and hence
    the paper's configuration -- lets escape; the non-transition writes
    ("w0" onto 0) catch write-disturb faults in both states.  Provided as
    an extension algorithm for the dynamic-fault experiments.
    """
    bg = solid_background(bits)
    steps = [
        _step(AddressOrder.ANY, [w0()], bg, "M0"),
        _step(AddressOrder.UP, [r0(), r0(), w0(), r0(), w1()], bg, "M1"),
        _step(AddressOrder.UP, [r1(), r1(), w1(), r1(), w0()], bg, "M2"),
        _step(AddressOrder.DOWN, [r0(), r0(), w0(), r0(), w1()], bg, "M3"),
        _step(AddressOrder.DOWN, [r1(), r1(), w1(), r1(), w0()], bg, "M4"),
        _step(AddressOrder.ANY, [r0()], bg, "M5"),
    ]
    return MarchAlgorithm("March SS", bits, steps)


def march_with_retention_pauses(
    bits: int, pause_ns: float = RETENTION_PAUSE_NS
) -> MarchAlgorithm:
    """March C- plus classical delay-based DRF detection (2 x 100 ms).

    After March C- leaves the array at logical 0: pause and re-read (cells
    that cannot hold 0 have decayed), write 1, pause and re-read (cells that
    cannot hold 1 have decayed).  This is the slow path NWRTM replaces.
    """
    bg = solid_background(bits)
    steps = _march_c_minus_steps(bits, bg)
    steps.extend(
        [
            PauseStep(pause_ns, "pause-0"),
            _step(AddressOrder.ANY, [r0()], bg, "D0"),
            _step(AddressOrder.ANY, [w1()], bg, "D1"),
            PauseStep(pause_ns, "pause-1"),
            _step(AddressOrder.ANY, [r1()], bg, "D2"),
        ]
    )
    return MarchAlgorithm("March C- + retention pauses", bits, steps)
