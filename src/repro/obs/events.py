"""The two decision records a served request carries.

- :class:`RungDecision` — one rung of the sound-source ladder (cache /
  rollup / recompute) with whether it was taken and *why not*
  when it was rejected, including the Sec. 2 disjoint/covered proof
  verdicts the rollup rung is gated by.  A
  :class:`~repro.core.query.QueryResult` carries the full trail.
- :class:`EvictionRecord` — one cache-state change (budget eviction,
  admission rejection, write-path invalidation, admission), carrying
  the victim's GreedyDual priority at eviction and the cells freed.

Both land, as JSON values, in the attrs of the request's record in the
backend's request log (:class:`repro.obs.request_log.RequestLog`):
the trail as :func:`rung_reasons`, the audit records as they are — an
:class:`EvictionRecord` is a named tuple, so it is already a JSON array
and costs no copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, NamedTuple, Sequence

#: Cache audit trail entry kinds.
EVICTION_KINDS = ("admitted", "evicted", "rejected", "invalidated")


@dataclass(frozen=True)
class RungDecision:
    """One rung of the sound-source ladder, examined for one query."""

    rung: str  #: ladder rung name (one of ``repro.serve.TIERS``)
    taken: bool  #: did the query resolve here?
    reason: str  #: why taken, why rejected, or "not reached"

    def to_dict(self) -> Dict[str, Any]:
        # A literal, not ``dataclasses.asdict``: that deep-copies every
        # field, once per rung of every served envelope.
        return {"rung": self.rung, "taken": self.taken, "reason": self.reason}


def rung_reasons(rungs: Sequence[RungDecision]) -> Dict[str, str]:
    """A rung trail as a request-log record keeps it: each rung's
    reason by rung name, in ladder order.  The record's ``tier`` names
    the one rung taken, so nothing is lost."""
    return {decision.rung: decision.reason for decision in rungs}


class EvictionRecord(NamedTuple):
    """One cache-state change, in GreedyDual terms.

    ``priority`` is the entry's GreedyDual-Size priority at the moment
    of the change (0.0 for invalidations, which bypass the policy) and
    ``cells`` the resident cells freed (or admitted, for ``admitted``).
    In JSON it is the array ``[kind, point, priority, cells,
    trace_id]``.
    """

    kind: str  #: one of :data:`EVICTION_KINDS`
    point: str  #: described lattice point of the entry
    priority: float
    cells: int
    trace_id: str = ""  #: trace of the request that caused the change
