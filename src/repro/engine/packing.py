"""Bit-lane packing for the vectorized march backends.

The behavioural :class:`repro.memory.SRAM` stores each word as one Python
integer of arbitrary width.  The vector backends re-pack that state into
``(words, lanes)`` arrays of ``uint64`` lanes (lane ``i`` holds word bits
``64 * i`` .. ``64 * i + 63``), stacked per bucket, so march writes become
whole-array assignments and march reads become whole-array compares.

numpy itself is an *optional* dependency of the engine (the ``[fast]``
extra); every entry point gates on :data:`HAVE_NUMPY` and falls back to the
pure-Python reference backend when it is missing.
"""

from __future__ import annotations

from repro.util.rng import HAVE_NUMPY, np, require_numpy

__all__ = [
    "HAVE_NUMPY",
    "LANE_BITS",
    "lanes_for",
    "np",
    "pack_bank",
    "pack_state",
    "require_numpy",
    "word_to_lanes",
]

#: Width of one packed lane.
LANE_BITS = 64
_LANE_MASK = (1 << LANE_BITS) - 1


def lanes_for(bits: int) -> int:
    """Number of 64-bit lanes needed for a word of ``bits`` bits."""
    return (bits + LANE_BITS - 1) // LANE_BITS


def word_to_lanes(word: int, lanes: int):
    """Split one Python-int word into a ``(lanes,)`` uint64 array."""
    return np.array(
        [(word >> (LANE_BITS * i)) & _LANE_MASK for i in range(lanes)],
        dtype=np.uint64,
    )


def pack_state(words: list[int], lanes: int):
    """Pack a full memory dump into a ``(len(words), lanes)`` uint64 array."""
    if lanes == 1:
        # Words already fit one lane: a single C-level conversion.
        return np.fromiter(words, dtype=np.uint64, count=len(words)).reshape(-1, 1)
    state = np.empty((len(words), lanes), dtype=np.uint64)
    for lane in range(lanes):
        shift = LANE_BITS * lane
        state[:, lane] = [(w >> shift) & _LANE_MASK for w in words]
    return state


def pack_bank(memories):
    """Pack same-geometry memories into one stacked array.

    Returns ``(states, clean_masks, dirty_masks, lanes)`` where ``states``
    is ``(n_mem, words, lanes)`` uint64 and the masks are ``(n_mem,
    words)`` bool (dirty = some fault hook can fire on that word).  Row
    ``states[i]`` is authoritative for memory ``i``'s *clean* words only
    (plus, in the batched tier, its fault-table words); the stack runner
    :func:`repro.engine.kernel.run_stack` hands each slice back through
    :func:`repro.engine.kernel.sync_clean_rows` when the run finishes.
    Every vector run packs through here: a raw numpy run or numpy
    session as a stack of one, a batched session per geometry bucket.

    All memories must share ``(words, bits)`` -- the geometry-bucketing
    planner in :mod:`repro.engine.batched` guarantees that.
    """
    from repro.util.validation import require

    require(bool(memories), "pack_bank needs at least one memory")
    words, bits = memories[0].words, memories[0].bits
    require(
        all(m.words == words and m.bits == bits for m in memories),
        "pack_bank requires a same-geometry bucket",
    )
    lanes = lanes_for(bits)
    states = np.empty((len(memories), words, lanes), dtype=np.uint64)
    dirty_masks = np.zeros((len(memories), words), dtype=bool)
    for index, memory in enumerate(memories):
        states[index] = pack_state(memory.dump(), lanes)
        for word in memory.hooked_words():
            dirty_masks[index, word] = True
    return states, ~dirty_masks, dirty_masks, lanes
