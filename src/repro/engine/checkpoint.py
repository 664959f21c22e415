"""Campaign checkpointing: resumable fleet runs with content-addressed chunks.

A long fleet (or scenario) run is a deterministic function of its spec:
chunk ``i`` always contains the same campaign indices and always reduces
to the same :class:`~repro.engine.aggregate.CampaignSummary` list.  The
:class:`CheckpointStore` exploits that to make runs resumable: every
completed chunk is persisted the moment it finishes, and a ``--resume``
run loads finished chunks instead of recomputing them, reproducing the
uninterrupted run's deterministic report content byte for byte (wall-clock
fields -- ``elapsed_s``, ``campaigns_per_sec`` -- are measurements of the
run, not results of it, and are excluded from that contract; see
:meth:`~repro.engine.aggregate.FleetReport.deterministic_dict`).

**Digest scheme.**  One checkpoint directory holds exactly one campaign
identity.  The identity digest is::

    sha256(canonical_json({
        "format": FORMAT_VERSION,        # layout revision of this module
        "spec_type": type(spec).__name__,  # FleetSpec vs ScenarioSpec etc.
        "spec": spec.to_dict(),          # includes master seed and backend
        "chunk_size": chunk_size,        # chunk -> campaign-index mapping
        "total_chunks": total_chunks,
    }))

where ``canonical_json`` is ``json.dumps(..., sort_keys=True)`` with
compact separators.  Because the spec dict covers the population shape,
the master seed *and* the backend, and the chunking fields pin the
index partition, two runs share a digest exactly when their chunk results
are interchangeable.  ``manifest.json`` records the digest (plus the spec,
for humans); every ``chunk_*.json`` records the digest again and a
``sha256`` checksum of its canonical summary payload.  A manifest or
chunk whose digest does not match the active spec is *stale*, a chunk
whose checksum does not match its content is *corrupt* -- both are
rejected with :class:`CheckpointError` rather than silently aggregated.

Chunk files are written atomically and durably (a uniquely named,
fsynced temp file + ``os.replace`` + a directory fsync; see
:func:`repro.util.fileio.atomic_write_text`) and contain no timestamps,
so an interrupted-then-resumed run leaves the store byte-identical to an
uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path

from repro.engine.aggregate import CampaignSummary
from repro.telemetry.core import tracer as _tracer
from repro.util.fileio import atomic_write_text
from repro.util.validation import require

#: Bump when the on-disk layout changes; old stores then read as stale.
FORMAT_VERSION = 1

_MANIFEST = "manifest.json"


class CheckpointError(ValueError):
    """A checkpoint store rejected stale or corrupt contents."""


def canonical_json(payload) -> str:
    """Deterministic JSON rendering used for digests and checksums."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def spec_digest(spec, chunk_size: int, total_chunks: int) -> str:
    """Content digest identifying one resumable campaign population."""
    payload = {
        "format": FORMAT_VERSION,
        "spec_type": type(spec).__name__,
        "spec": spec.to_dict(),
        "chunk_size": chunk_size,
        "total_chunks": total_chunks,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


#: Summary fields describing the *run* rather than its results (cache
#: traffic depends on how warm the executing process was); persisting
#: them would break the store's byte-for-byte reproducibility contract.
_VOLATILE_SUMMARY_FIELDS = ("plan_cache_hits", "plan_cache_misses")


def _summary_payload(summaries: list[CampaignSummary]) -> list[dict]:
    payload = []
    for summary in summaries:
        record = summary.to_dict()
        for field in _VOLATILE_SUMMARY_FIELDS:
            record[field] = None
        payload.append(record)
    return payload


def _summaries_checksum(payload: list[dict]) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class CheckpointStore:
    """One directory holding the completed chunks of one campaign spec.

    Parameters
    ----------
    root:
        Directory of the store (created if missing).  One directory maps
        to one ``(spec, seed, backend, chunking)`` identity; pointing a
        different spec at an existing store raises :class:`CheckpointError`.
    spec:
        The fleet/scenario spec being executed (anything with
        ``to_dict()``; the scheduler passes its *planned* spec so an
        ``auto`` backend resolves identically on resume).
    chunk_size / total_chunks:
        The chunk partition of the run, pinned into the digest.
    """

    def __init__(self, root: str | os.PathLike, spec, chunk_size: int, total_chunks: int) -> None:
        require(dataclasses.is_dataclass(spec), "checkpoint spec must be a dataclass record")
        self.root = Path(root)
        self.digest = spec_digest(spec, chunk_size, total_chunks)
        self.chunk_size = chunk_size
        self.total_chunks = total_chunks
        self.root.mkdir(parents=True, exist_ok=True)
        self._adopt_manifest(spec, chunk_size)

    def _adopt_manifest(self, spec, chunk_size: int) -> None:
        path = self.root / _MANIFEST
        if path.exists():
            try:
                manifest = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as error:
                raise CheckpointError(
                    f"corrupt checkpoint manifest {path}: {error}"
                ) from error
            recorded = manifest.get("digest")
            if recorded != self.digest:
                raise CheckpointError(
                    f"stale checkpoint at {self.root}: it was written for a "
                    f"different (spec, seed, backend, chunking) -- digest "
                    f"{recorded!r} != expected {self.digest!r}.  Use a fresh "
                    f"--checkpoint directory or rerun with the original spec."
                )
            return
        self._write_json(
            path,
            {
                "format": FORMAT_VERSION,
                "digest": self.digest,
                "spec_type": type(spec).__name__,
                "spec": spec.to_dict(),
                "chunk_size": chunk_size,
                "total_chunks": self.total_chunks,
            },
        )

    @staticmethod
    def peek_manifest(root: str | os.PathLike) -> dict | None:
        """The manifest of an existing store, or ``None`` when absent.

        Used by the fleet scheduler to adopt a store's recorded
        ``chunk_size`` before re-deriving its own default: the default
        depends on the worker count (and so on the machine), and a resume
        must reproduce the original chunk partition to find its chunks.
        Corruption is not raised here -- constructing the store reports it
        with full context.
        """
        path = Path(root) / _MANIFEST
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            return None

    # ------------------------------------------------------------------ #
    # Chunk persistence                                                  #
    # ------------------------------------------------------------------ #
    def _chunk_path(self, chunk_index: int) -> Path:
        return self.root / f"chunk_{chunk_index:05d}.json"

    def has(self, chunk_index: int) -> bool:
        """Whether chunk ``chunk_index`` has a persisted result."""
        return self._chunk_path(chunk_index).exists()

    def completed_chunks(self) -> list[int]:
        """Sorted indices of every persisted chunk."""
        return sorted(
            index for index in range(self.total_chunks) if self.has(index)
        )

    def save(
        self,
        chunk_index: int,
        indices: tuple[int, ...],
        summaries: list[CampaignSummary],
    ) -> None:
        """Persist one finished chunk atomically."""
        tr = _tracer()
        if tr.enabled:
            started = time.perf_counter_ns()
        payload = _summary_payload(summaries)
        self._write_json(
            self._chunk_path(chunk_index),
            {
                "digest": self.digest,
                "chunk_index": chunk_index,
                "indices": list(indices),
                "checksum": _summaries_checksum(payload),
                "summaries": payload,
            },
        )
        if tr.enabled:
            tr.counters.add("checkpoint.save.ns", time.perf_counter_ns() - started)
            tr.counters.add("checkpoint.saves")

    def load(
        self,
        chunk_index: int,
        expected_indices: tuple[int, ...] | None = None,
    ) -> list[CampaignSummary]:
        """Load one persisted chunk, verifying digest and checksum.

        ``expected_indices`` (the campaign indices the caller assigns to
        this chunk) is validated against the recorded ones when given,
        so a chunk file can never be aggregated under the wrong campaign
        positions.
        """
        tr = _tracer()
        if tr.enabled:
            started = time.perf_counter_ns()
        path = self._chunk_path(chunk_index)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise CheckpointError(f"no checkpoint for chunk {chunk_index} at {path}")
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CheckpointError(f"corrupt checkpoint chunk {path}: {error}") from error
        if payload.get("digest") != self.digest:
            raise CheckpointError(
                f"stale checkpoint chunk {path}: digest "
                f"{payload.get('digest')!r} != expected {self.digest!r}"
            )
        if payload.get("chunk_index") != chunk_index:
            raise CheckpointError(
                f"corrupt checkpoint chunk {path}: records chunk "
                f"{payload.get('chunk_index')!r}, expected {chunk_index}"
            )
        if (
            expected_indices is not None
            and payload.get("indices") != list(expected_indices)
        ):
            raise CheckpointError(
                f"corrupt checkpoint chunk {path}: records campaign indices "
                f"{payload.get('indices')!r}, expected {list(expected_indices)}"
            )
        summaries = payload.get("summaries")
        if (
            not isinstance(summaries, list)
            or payload.get("checksum") != _summaries_checksum(summaries)
        ):
            raise CheckpointError(
                f"corrupt checkpoint chunk {path}: summary checksum mismatch"
            )
        try:
            loaded = [CampaignSummary(**entry) for entry in summaries]
        except TypeError as error:
            raise CheckpointError(
                f"corrupt checkpoint chunk {path}: {error}"
            ) from error
        if tr.enabled:
            tr.counters.add("checkpoint.load.ns", time.perf_counter_ns() - started)
            tr.counters.add("checkpoint.loads")
        return loaded

    def quarantine_chunk(self, chunk_index: int) -> Path:
        """Set a corrupt/stale chunk file aside so the chunk re-runs.

        The file is renamed to ``<name>.quarantined`` (atomically,
        replacing any earlier quarantined copy) rather than deleted, so
        the evidence survives for post-mortems while
        :meth:`completed_chunks` stops reporting the chunk as done.
        """
        path = self._chunk_path(chunk_index)
        target = path.with_suffix(path.suffix + ".quarantined")
        os.replace(path, target)
        return target

    @staticmethod
    def _write_json(path: Path, payload: dict) -> None:
        # Atomic, durable publish: a reader (or a resumed run) never
        # observes a half-written chunk, even if this process dies
        # mid-write or the machine loses power, and two resumers sharing
        # the store never publish each other's partial files.
        atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def ring_digest(spec, retain: int) -> str:
    """Content digest identifying one resumable *stream* identity.

    Deliberately excludes worker count, chunk size and epoch layout:
    the streaming monitor's windowed results are partition-independent,
    so a stream may be resumed under any scheduling layout.
    """
    payload = {
        "format": FORMAT_VERSION,
        "kind": "ring",
        "spec_type": type(spec).__name__,
        "spec": spec.to_dict(),
        "retain": retain,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class RingCheckpointStore:
    """Bounded checkpoint ring for infinite streaming monitors.

    A streaming run has no ``total_chunks`` -- it may never end -- so the
    full-history :class:`CheckpointStore` layout cannot bound its disk
    footprint.  The ring keeps the last ``retain`` windows: window ``w``
    is published atomically to slot file ``w % retain``, overwriting the
    record ``retain`` windows older.  Each record carries the window
    index, the window's deterministic payload (kept for inspection and
    digest history) and the monitor's *cumulative resumable state*
    (exact aggregator/burst-detector internals), plus the stream digest
    and a content checksum.  Resume loads :meth:`latest`, restores the
    state byte-for-byte and continues at the next window -- the
    remaining windows then reproduce an uninterrupted run's
    ``deterministic_dict()`` exactly (pinned by the streaming test
    suite).

    Stale records (digest from another spec/ring shape) and corrupt
    records (checksum mismatch) raise :class:`CheckpointError`, exactly
    like the chunk store.
    """

    def __init__(self, root: str | os.PathLike, spec, retain: int = 8) -> None:
        require(dataclasses.is_dataclass(spec), "checkpoint spec must be a dataclass record")
        require(retain >= 1, "retain must be >= 1")
        self.root = Path(root)
        self.retain = retain
        self.digest = ring_digest(spec, retain)
        self.root.mkdir(parents=True, exist_ok=True)
        self._adopt_manifest(spec)

    def _adopt_manifest(self, spec) -> None:
        path = self.root / _MANIFEST
        if path.exists():
            try:
                manifest = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as error:
                raise CheckpointError(
                    f"corrupt ring-checkpoint manifest {path}: {error}"
                ) from error
            recorded = manifest.get("digest")
            if recorded != self.digest:
                raise CheckpointError(
                    f"stale ring checkpoint at {self.root}: it was written "
                    f"for a different (spec, retain) -- digest {recorded!r} "
                    f"!= expected {self.digest!r}.  Use a fresh --checkpoint "
                    f"directory or rerun with the original spec."
                )
            return
        CheckpointStore._write_json(
            path,
            {
                "format": FORMAT_VERSION,
                "kind": "ring",
                "digest": self.digest,
                "spec_type": type(spec).__name__,
                "spec": spec.to_dict(),
                "retain": self.retain,
            },
        )

    @staticmethod
    def peek_manifest(root: str | os.PathLike) -> dict | None:
        """The manifest of an existing ring store, or ``None`` when absent."""
        return CheckpointStore.peek_manifest(root)

    def _slot_path(self, slot: int) -> Path:
        return self.root / f"slot_{slot:05d}.json"

    @staticmethod
    def _record_checksum(window_index: int, payload: dict, state: dict) -> str:
        content = canonical_json(
            {"window": window_index, "payload": payload, "state": state}
        )
        return hashlib.sha256(content.encode("utf-8")).hexdigest()

    def save(self, window_index: int, payload: dict, state: dict) -> None:
        """Publish one finished window (and the cumulative state) atomically."""
        require(window_index >= 0, "window_index must be >= 0")
        tr = _tracer()
        if tr.enabled:
            started = time.perf_counter_ns()
        CheckpointStore._write_json(
            self._slot_path(window_index % self.retain),
            {
                "digest": self.digest,
                "window": window_index,
                "payload": payload,
                "state": state,
                "checksum": self._record_checksum(window_index, payload, state),
            },
        )
        if tr.enabled:
            tr.counters.add("checkpoint.ring.save.ns", time.perf_counter_ns() - started)
            tr.counters.add("checkpoint.ring.saves")

    def _load_slot(self, path: Path) -> dict:
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CheckpointError(f"corrupt ring-checkpoint slot {path}: {error}") from error
        if record.get("digest") != self.digest:
            raise CheckpointError(
                f"stale ring-checkpoint slot {path}: digest "
                f"{record.get('digest')!r} != expected {self.digest!r}"
            )
        window = record.get("window")
        if (
            not isinstance(window, int)
            or not isinstance(record.get("payload"), dict)
            or not isinstance(record.get("state"), dict)
            or record.get("checksum")
            != self._record_checksum(window, record["payload"], record["state"])
        ):
            raise CheckpointError(
                f"corrupt ring-checkpoint slot {path}: record checksum mismatch"
            )
        return record

    def records(self, recover: bool = False) -> list[dict]:
        """Every retained window record, oldest first.

        ``recover=True`` switches from fail-fast to salvage semantics:
        a corrupt or stale slot is renamed to ``<name>.quarantined``
        and skipped instead of raising, so a damaged ring still yields
        every intact window (the monitor's quarantine mode resumes from
        the newest survivor and recomputes the rest).
        """
        found = []
        for slot in range(self.retain):
            path = self._slot_path(slot)
            if not path.exists():
                continue
            try:
                found.append(self._load_slot(path))
            except CheckpointError:
                if not recover:
                    raise
                os.replace(path, path.with_suffix(path.suffix + ".quarantined"))
        return sorted(found, key=lambda record: record["window"])

    def latest(self, recover: bool = False) -> dict | None:
        """The newest retained window record, or ``None`` when empty.

        The returned mapping has ``window`` (index), ``payload`` (the
        window's deterministic content) and ``state`` (the cumulative
        monitor state to restore before computing window ``window + 1``).
        ``recover=True`` quarantines damaged slots instead of raising
        (see :meth:`records`).
        """
        records = self.records(recover=recover)
        return records[-1] if records else None
