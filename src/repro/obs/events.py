"""Structured request events and the bounded ring-buffer event log.

The serving layer (:class:`repro.serve.CubeServer`) picks a rung of the
sound-source ladder for every query; this module gives that decision a
durable, queryable shape.  Three record types, all frozen dataclasses:

- :class:`RungDecision` — one rung of the ladder (cache / view / rollup
  / recompute) with whether it was taken and *why not*
  when it was rejected, including the Sec. 2 disjoint/covered proof
  verdicts the rollup rung is gated by;
- :class:`EvictionRecord` — one cache-state change (budget eviction,
  admission rejection, write-path invalidation, admission), carrying
  the victim's GreedyDual priority at eviction and the cells freed;
- :class:`RequestEvent` / :class:`WriteEvent` — one served query or one
  applied delta batch, with the full rung trail and cache audit trail.

Events land in an :class:`EventLog`: a thread-safe bounded ring buffer
that stamps every event with a process-unique, strictly increasing
sequence number under its lock (events are never lost to a race and
never duplicated; only overwritten when the ring wraps, which the
``dropped`` counter reports).  The log exports JSON Lines, one event
per line, so a serving session's decisions can be replayed, diffed
against ``explain_query()`` output, and attached to CI runs as artifacts.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Any, Deque, Dict, Tuple, TypeVar, Union

#: Cache audit trail entry kinds.
EVICTION_KINDS = ("admitted", "evicted", "rejected", "invalidated")


@dataclass(frozen=True)
class RungDecision:
    """One rung of the sound-source ladder, examined for one query."""

    rung: str  #: ladder rung name (one of ``repro.serve.TIERS``)
    taken: bool  #: did the query resolve here?
    reason: str  #: why taken, why rejected, or "not reached"

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class EvictionRecord:
    """One cache-state change, in GreedyDual terms.

    ``priority`` is the entry's GreedyDual-Size priority at the moment
    of the change (0.0 for invalidations, which bypass the policy) and
    ``cells`` the resident cells freed (or admitted, for ``admitted``).
    """

    kind: str  #: one of :data:`EVICTION_KINDS`
    point: str  #: described lattice point of the entry
    priority: float
    cells: int
    trace_id: str = ""  #: trace of the request that caused the change

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class RequestEvent:
    """One served query: what was asked, which rung answered, and the
    decision + cache audit trails explaining the choice."""

    TYPE = "request"

    seq: int  #: assigned by the :class:`EventLog`, strictly increasing
    kind: str  #: query kind: ``cuboid`` / ``cell`` / ``slice`` / ``dice``
    point: str  #: described lattice point
    tier: str  #: the ladder rung that answered
    version: int  #: table version the answer is exact for
    modeled_seconds: float  #: modeled cost actually paid
    cold_seconds: float  #: modeled cost of answering cold from base
    wall_seconds: float  #: host wall time spent resolving
    cells: int  #: size of the answer, in cells
    rungs: Tuple[RungDecision, ...] = ()
    cache_audit: Tuple[EvictionRecord, ...] = ()
    trace_id: str = ""  #: hex trace id when the request was sampled

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["type"] = self.TYPE
        return out


@dataclass(frozen=True)
class WriteEvent:
    """One applied delta batch and its effect on resident cuboids."""

    TYPE = "write"

    seq: int
    op: str  #: ``insert`` or ``delete``
    rows: int  #: delta batch size
    version: int  #: table version after the write
    patched_points: int  #: cuboids patched in place (exact fold)
    evicted_points: int  #: cuboids dropped (aggregate not patchable)
    wall_seconds: float
    cache_audit: Tuple[EvictionRecord, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["type"] = self.TYPE
        return out


@dataclass(frozen=True)
class ClusterEvent:
    """One cluster-coordination decision: a failover, a hedged read, a
    stale-replica retry, an injected fault, or a completed fan-out.

    The scatter-gather coordinator (:mod:`repro.cluster`) appends these
    to its own :class:`EventLog`, so every degraded-mode decision — why
    a replica was skipped, which backup answered, which answer was
    rejected as version-inconsistent — is replayable and shippable as a
    CI artifact exactly like the serving layer's request log.
    """

    TYPE = "cluster"

    seq: int  #: assigned by the :class:`EventLog`, strictly increasing
    kind: str  #: ``failover`` / ``hedge`` / ``stale_retry`` / ``crash``
    #: / ``heal`` / ``read`` / ``write``
    op: int  #: coordinator operation index the decision belongs to
    shard: int  #: shard the decision concerns (-1: cluster-wide)
    replica: int  #: replica the decision concerns (-1: shard-wide)
    detail: str  #: human-readable why
    versions: Tuple[int, ...] = ()  #: version vector, when relevant
    modeled_seconds: float = 0.0  #: modeled latency, when relevant
    trace_id: str = ""  #: hex trace id when the request was sampled

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["type"] = self.TYPE
        return out


Event = Union[RequestEvent, WriteEvent, ClusterEvent]
EventT = TypeVar("EventT", RequestEvent, WriteEvent, ClusterEvent)


class EventLog:
    """A thread-safe bounded ring buffer of serving events.

    Appends stamp the event with the next sequence number under the
    log's lock, so concurrent writers can never skip or duplicate a
    sequence.  When the ring is full the oldest event is overwritten
    and counted in :attr:`dropped` — the log is a flight recorder, not
    an unbounded archive.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(
                f"event log capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        self._buffer: Deque[Event] = deque()
        self._next_seq = 0
        self._dropped = 0

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def append(self, event: EventT) -> EventT:
        """Stamp ``event`` with the next sequence number and store it.

        Returns the stamped copy (events are frozen; the caller's
        instance is not mutated).
        """
        with self._lock:
            stamped = replace(event, seq=self._next_seq)
            self._next_seq += 1
            if len(self._buffer) == self.capacity:
                self._buffer.popleft()
                self._dropped += 1
            self._buffer.append(stamped)
            return stamped

    def clear(self) -> int:
        """Drop buffered events (sequence numbering continues)."""
        with self._lock:
            cleared = len(self._buffer)
            self._buffer.clear()
            return cleared

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[Event, ...]:
        """Every buffered event, oldest first, atomically."""
        with self._lock:
            return tuple(self._buffer)

    def tail(self, n: int) -> Tuple[Event, ...]:
        """The most recent ``n`` buffered events, oldest first."""
        if n <= 0:
            return ()
        with self._lock:
            return tuple(list(self._buffer)[-n:])

    def requests(self) -> Tuple[RequestEvent, ...]:
        """Only the buffered :class:`RequestEvent`\\ s, oldest first."""
        return tuple(
            event
            for event in self.snapshot()
            if isinstance(event, RequestEvent)
        )

    def writes(self) -> Tuple[WriteEvent, ...]:
        """Only the buffered :class:`WriteEvent`\\ s, oldest first."""
        return tuple(
            event
            for event in self.snapshot()
            if isinstance(event, WriteEvent)
        )

    def cluster_events(self) -> Tuple[ClusterEvent, ...]:
        """Only the buffered :class:`ClusterEvent`\\ s, oldest first."""
        return tuple(
            event
            for event in self.snapshot()
            if isinstance(event, ClusterEvent)
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    @property
    def total(self) -> int:
        """Events ever appended (buffered + overwritten)."""
        with self._lock:
            return self._next_seq

    @property
    def dropped(self) -> int:
        """Events overwritten because the ring wrapped."""
        with self._lock:
            return self._dropped

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The buffered events as JSON Lines (one object per line)."""
        lines = [
            json.dumps(event.to_dict(), separators=(",", ":"))
            for event in self.snapshot()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path: str) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns events written."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return text.count("\n")
