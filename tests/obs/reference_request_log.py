"""The request log as it was before it was coded: a ring of finished
root spans, each kept as the :class:`~repro.obs.span.TraceSpan` that
went in.  Kept as the reference :class:`repro.obs.request_log.RequestLog`
is tested against: both must dump byte-identical JSON Lines for the
same adds.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Deque, Tuple

from repro.obs.span import TraceSpan
from repro.obs.trace_store import TraceRecord


class ReferenceRequestLog:
    """A deque of spans; a record's ``seq`` is ``dropped`` plus its
    index in the ring."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.finished = 0
        self.dropped = 0
        self._log: Deque[TraceSpan] = deque()

    def add(
        self,
        name: str,
        category: str,
        sim_seconds: float,
        wall_seconds: float,
        trace_id: str = "",
        status: str = "ok",
        **attrs: Any,
    ) -> None:
        span = TraceSpan(
            trace_id, "", "", name, category, status, sim_seconds,
            0.0, wall_seconds, attrs,
        )
        if len(self._log) == self.capacity:
            self._log.popleft()
            self.dropped += 1
        self._log.append(span)
        self.finished += 1

    def traces(self) -> Tuple[TraceRecord, ...]:
        return tuple(
            TraceRecord(
                seq=self.dropped + index,
                trace_id=span.trace_id,
                name=span.name,
                status=span.status,
                sim_seconds=span.sim_seconds,
                wall_seconds=span.wall_seconds,
                spans=(span,),
            )
            for index, span in enumerate(self._log)
        )

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                record.to_dict(), sort_keys=True, separators=(",", ":")
            )
            for record in self.traces()
        ]
        return "\n".join(lines) + ("\n" if lines else "")
