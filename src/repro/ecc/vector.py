"""Lane-plane vectorized SEC-DED decode for the numpy/batched engines.

The fast backends keep memory state as ``uint64`` lane planes, so the
decoder works the same way: each Hamming syndrome bit has a column mask
per lane (the data bits whose position has that syndrome bit set), the
syndrome is assembled from XOR-reduction parities of ``error & mask``,
and a small ``2**m`` lookup maps syndromes back to data bits.  The
classification rules mirror :meth:`repro.ecc.code.SecDedCode.observe`
exactly -- bit-exactness across backends reduces to both paths computing
the same pure function of the error pattern.

Only mismatching reads reach the decoder (``error == 0`` produces no
event).  The fast tiers decode once per session: the lanes collect raw
mismatches and :meth:`repro.engine.kernel.SessionHits.logs` hands all of
them to :func:`decode_session` in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ecc.code import SecDedCode
from repro.engine.packing import lanes_for, np


def _parity(block) -> "np.ndarray":
    """Per-row XOR-reduction parity of ``(n, lanes)`` uint64 planes."""
    folded = block[:, 0].copy()
    for lane in range(1, block.shape[1]):
        folded ^= block[:, lane]
    for shift in (32, 16, 8, 4, 2, 1):
        folded ^= folded >> np.uint64(shift)
    return folded & np.uint64(1)


@dataclass
class VectorDecode:
    """Bulk decode of ``n`` mismatching reads (parallel arrays)."""

    #: Data bit flipped per row, ``-1`` when no data correction fired.
    corrected_bit: "np.ndarray"
    #: Correction restored the expected word; drop the mismatch.
    masked: "np.ndarray"
    #: Decoder flagged the read uncorrectable.
    uncorrectable: "np.ndarray"
    #: Decode resolved into the check/parity storage.
    check_corrected: "np.ndarray"


class VectorSecDed:
    """Vectorized twin of :class:`repro.ecc.code.SecDedCode`."""

    def __init__(self, code: SecDedCode) -> None:
        self.code = code
        self.lanes = lanes_for(code.data_bits)
        bits = code.syndrome_bits
        planes = np.zeros((bits, self.lanes), dtype=np.uint64)
        for data_bit, position in enumerate(code.positions):
            lane, offset = divmod(data_bit, 64)
            for k in range(bits):
                if position >> k & 1:
                    planes[k, lane] |= np.uint64(1) << np.uint64(offset)
        #: ``planes[k]`` masks the data bits whose syndrome column has bit k.
        self.planes = planes
        lookup = np.full(1 << bits, -1, dtype=np.int64)
        for data_bit, position in enumerate(code.positions):
            lookup[position] = data_bit
        #: Syndrome -> data bit (``-1`` when the syndrome names no data bit).
        self.data_bit_for = lookup
        check = np.zeros(1 << bits, dtype=bool)
        check[0] = True  # overall-parity-bit "correction"
        for k in range(bits):
            check[1 << k] = True
        #: Syndromes that decode into check/parity storage.
        self.check_syndrome = check

    def decode(self, error) -> VectorDecode:
        """Classify ``(n, lanes)`` nonzero error patterns in bulk."""
        rows = error.shape[0]
        syndrome = np.zeros(rows, dtype=np.int64)
        for k in range(self.code.syndrome_bits):
            syndrome |= _parity(error & self.planes[k]).astype(np.int64) << k
        overall_odd = _parity(error).astype(bool)
        named = self.data_bit_for[syndrome]
        single = overall_odd & (named >= 0)
        corrected_bit = np.where(single, named, np.int64(-1))
        masked = np.zeros(rows, dtype=bool)
        hits = np.nonzero(single)[0]
        if hits.size:
            bits = named[hits]
            pattern = np.zeros((hits.size, error.shape[1]), dtype=np.uint64)
            pattern[np.arange(hits.size), bits >> 6] = np.uint64(1) << (
                bits & 63
            ).astype(np.uint64)
            masked[hits] = (error[hits] == pattern).all(axis=1)
        in_check = self.check_syndrome[syndrome]
        check_corrected = overall_odd & (named < 0) & in_check
        uncorrectable = (overall_odd & (named < 0) & ~in_check) | (
            ~overall_odd & (syndrome != 0)
        )
        return VectorDecode(corrected_bit, masked, uncorrectable, check_corrected)


def apply_corrections(observed, corrected_bit):
    """Flip each row's corrected data bit (``-1`` = none) in ``observed``.

    ``observed`` is the caller's own ``(n, lanes)`` uint64 copy of the
    mismatching reads; the result is the post-correction words the
    comparator sees.  Rows the decoder fully masked (``masked``) still
    need dropping.
    """
    rows = np.nonzero(corrected_bit >= 0)[0]
    if rows.size:
        bits = corrected_bit[rows]
        observed[rows, bits >> 6] ^= np.uint64(1) << (bits & 63).astype(np.uint64)
    return observed


def decode_session(observers, members, addresses, error) -> VectorDecode:
    """Decode one session's raw mismatches in bulk and account every outcome.

    Row ``i`` is a mismatching read of word ``addresses[i]`` of the memory
    observed by ``observers[members[i]]``, with ``error[i]`` its ``(lanes,)``
    ``expected ^ observed`` planes.  Each member's observer receives the
    same totals the scalar :meth:`~repro.ecc.observer.EccObserver.observe`
    would accumulate read by read; the corrected-cell histogram comes from
    one ``lexsort`` over ``(member, word, bit)`` and its run lengths.
    Returns the per-row outcome: the caller flips the corrected bits
    (:func:`apply_corrections`) and drops the ``masked`` rows.
    """
    outcome = vector_secded(observers[0].code.data_bits).decode(error)
    count = len(observers)
    corrected = outcome.corrected_bit >= 0
    corrected_reads = np.bincount(
        members[corrected | outcome.check_corrected], minlength=count
    ).tolist()
    masked_reads = np.bincount(members[outcome.masked], minlength=count).tolist()
    uncorrectable_reads = np.bincount(
        members[outcome.uncorrectable], minlength=count
    ).tolist()
    cells: list[list[tuple[int, int, int]]] = [[] for _ in observers]
    if corrected.any():
        keys = np.stack(
            (
                members[corrected],
                addresses[corrected],
                outcome.corrected_bit[corrected],
            )
        )
        keys = keys[:, np.lexsort(keys[::-1])]
        starts = np.flatnonzero(
            np.concatenate(([True], (keys[:, 1:] != keys[:, :-1]).any(axis=0)))
        )
        runs = np.diff(np.append(starts, keys.shape[1])).tolist()
        for member, word, bit, run in zip(*keys[:, starts].tolist(), runs):
            cells[member].append((word, bit, run))
    for index, observer in enumerate(observers):
        observer.record_totals(
            corrected_reads[index],
            masked_reads[index],
            uncorrectable_reads[index],
            cells[index],
        )
    return outcome


_VECTOR_CODES: dict[int, VectorSecDed] = {}


def vector_secded(data_bits: int) -> VectorSecDed:
    """Shared :class:`VectorSecDed` instance for one data width."""
    vcode = _VECTOR_CODES.get(data_bits)
    if vcode is None:
        from repro.ecc.code import secded_code

        vcode = _VECTOR_CODES[data_bits] = VectorSecDed(secded_code(data_bits))
    return vcode
