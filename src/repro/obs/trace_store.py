"""Bounded request-trace recording with head + tail sampling.

Where :mod:`repro.obs.propagate` defines trace *identity* and
:mod:`repro.obs.span` the span model, this module is the request-scoped
sink: a thread-safe :class:`TraceStore` whose :meth:`TraceStore.root`
opens the root span of one request and which keeps the finished traces.
Layers below open children with ``obs.span(...)`` exactly as they do
inside an ``obs.trace()`` session.

Sampling is two-stage:

- **Head**: :class:`~repro.obs.propagate.HeadSampler` decides at the
  root, as a pure function of the trace id, whether a request records
  spans at all.  Unsampled requests still mint and propagate a context
  (the ``traceparent`` response header stays truthful) and bind their
  root (so no inner layer mints a competing one) but every child is
  the shared no-op span, so their per-span cost is zero.
- **Tail**: when a sampled trace finishes it is classified — traces
  with an error status, a ``deadline`` status, or a root modeled
  duration at or above the rolling p99 are *retained* in a separate
  bounded pool that ordinary ring eviction never touches.  The normal
  ring keeps the most recent traffic; the retained pool keeps the
  traffic worth debugging.

A backend's request log is not a trace store: it is the coded ring
:class:`~repro.obs.request_log.RequestLog`, one root span per served
read, write or cluster operation.  Its records read back as the
:class:`TraceRecord` s this store keeps, in the same JSONL format, so
``x3 trace`` reads both.

Everything exported is deterministic under the seeded replay: span ids
are derived (:func:`~repro.obs.propagate.derive_span_id`) rather than
allocated, JSONL output is canonically sorted, and every wall-clock
field is named with the ``wall_seconds`` suffix the determinism differ
(:mod:`repro.bench.determinism`) strips.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.obs.propagate import (
    HeadSampler,
    IdSource,
    TraceContext,
    derive_span_id,
    parse_traceparent,
)
from repro.obs.span import OpenSpan, TraceSpan

#: Span / trace statuses, worst last.
STATUSES = ("ok", "deadline", "error")

#: Tail-retention reasons (`""` means the trace is in the normal ring).
RETAIN_REASONS = ("error", "deadline", "slow")

#: Recent root modeled durations the rolling "slow" p99 is computed over.
SLOW_WINDOW = 256

#: Children a trace keeps; the root is always kept on top of them.
MAX_SPANS_PER_TRACE = 512


@dataclass(frozen=True)
class TraceRecord:
    """One finished trace: its spans plus the retention verdict."""

    seq: int  #: finish order, assigned by the store
    trace_id: str
    name: str  #: root span name
    status: str  #: worst status across the trace's spans
    sim_seconds: float  #: root modeled duration
    wall_seconds: float  #: root wall duration (stripped by the differ)
    retained: str = ""  #: one of :data:`RETAIN_REASONS`, or ""
    spans: Tuple[TraceSpan, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "trace_id": self.trace_id,
            "name": self.name,
            "status": self.status,
            "sim_seconds": self.sim_seconds,
            "wall_seconds": self.wall_seconds,
            "retained": self.retained,
            "spans": [span.to_dict() for span in self.spans],
        }


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class TraceStore:
    """Bounded, thread-safe storage for finished traces.

    ``capacity`` bounds the normal ring; ``retained_capacity`` bounds
    the tail-retained pool (error / deadline / p99-slow traces), which
    ring eviction never touches.  The rolling p99 is computed over the
    last :data:`SLOW_WINDOW` root modeled durations, and a trace keeps
    at most :data:`MAX_SPANS_PER_TRACE` children besides its root.
    """

    def __init__(
        self,
        capacity: int = 512,
        sample_rate: float = 1.0,
        seed: int = 0,
        retained_capacity: int = 128,
    ) -> None:
        if capacity <= 0:
            raise ValueError(
                f"trace store capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.retained_capacity = max(0, retained_capacity)
        self.sampler = HeadSampler(sample_rate)
        self._ids = IdSource(seed)
        self._lock = threading.Lock()
        self._open: Dict[str, List[TraceSpan]] = {}
        self._ring: "OrderedDict[str, TraceRecord]" = OrderedDict()
        self._retained: "OrderedDict[str, TraceRecord]" = OrderedDict()
        self._durations: Deque[float] = deque(maxlen=SLOW_WINDOW)
        self._next_seq = 0
        self.started = 0
        self.sampled = 0
        self.finished = 0
        self.retained = 0
        #: Records evicted from the ring (or the retained pool).
        self.dropped = 0
        self.dropped_spans = 0

    # ------------------------------------------------------------------
    # opening traces
    # ------------------------------------------------------------------
    def mint(self, traceparent: Optional[str] = None) -> TraceContext:
        """Parse an upstream header or mint a fresh root context.

        An upstream sampled flag is respected (the caller already made
        the head call); minted contexts ask the head sampler.
        """
        upstream = parse_traceparent(traceparent)
        if upstream is not None:
            return upstream
        trace_id = self._ids.trace_id()
        return TraceContext(
            trace_id, self._ids.span_id(), self.sampler.decide(trace_id)
        )

    def root(
        self,
        name: str,
        category: str = "request",
        traceparent: Optional[str] = None,
        **attrs: Any,
    ) -> OpenSpan:
        """Open the root span of a request; use as a context manager.

        The span always carries ``.context`` and ``.traceparent`` and
        always binds; when the head sampler says no it records nothing.
        """
        joined = parse_traceparent(traceparent) is not None
        context = self.mint(traceparent)
        with self._lock:
            self.started += 1
        if not context.sampled:
            return OpenSpan(
                None, context, 0, name, category, {}, 0.0, is_root=True
            )
        root = OpenSpan(
            self,
            TraceContext(
                context.trace_id,
                derive_span_id(context.span_id, f"root/{name}"),
                True,
            ),
            context.span_id if joined else 0,
            name,
            category,
            attrs,
            time.perf_counter(),
            is_root=True,
        )
        with self._lock:
            self.sampled += 1
            self._open.setdefault(root.trace_id_hex, [])
        return root

    # ------------------------------------------------------------------
    # recording (the SpanSink side)
    # ------------------------------------------------------------------
    def record(self, span: TraceSpan, root: bool = False) -> None:
        with self._lock:
            spans = self._open.get(span.trace_id)
            if spans is None:
                return  # trace already finalized or never opened
            # The root finishes last, so ``spans`` holds children only
            # until it arrives; it is always kept.
            if not root and len(spans) >= MAX_SPANS_PER_TRACE:
                self.dropped_spans += 1
            else:
                spans.append(span)
        if root:
            self._finalize(span)

    def _slow_threshold(self) -> float:
        """Nearest-rank p99 over the rolling duration window (0 when
        the window is too small to be meaningful)."""
        if len(self._durations) < 20:
            return float("inf")
        ordered = sorted(self._durations)
        rank = min(
            len(ordered) - 1, max(0, int(round(0.99 * (len(ordered) - 1))))
        )
        return ordered[rank]

    def _finalize(self, root_span: TraceSpan) -> None:
        trace_id = root_span.trace_id
        with self._lock:
            spans = self._open.pop(trace_id, [])
            status = root_span.status
            if status == "ok":
                for span in spans:
                    if span.status == "error":
                        status = "error"
                        break
                    if span.status == "deadline":
                        status = "deadline"
            reason = ""
            if status == "error":
                reason = "error"
            elif status == "deadline":
                reason = "deadline"
            elif (
                root_span.sim_seconds > 0.0
                and root_span.sim_seconds >= self._slow_threshold()
            ):
                reason = "slow"
            self._durations.append(root_span.sim_seconds)
            ordered = tuple(
                sorted(spans, key=lambda s: (s.parent_id != "", s.span_id))
            )
            record = TraceRecord(
                seq=self._next_seq,
                trace_id=trace_id,
                name=root_span.name,
                status=status,
                sim_seconds=root_span.sim_seconds,
                wall_seconds=root_span.wall_seconds,
                retained=reason,
                spans=ordered,
            )
            self._next_seq += 1
            self.finished += 1
            if reason and self.retained_capacity > 0:
                self.retained += 1
                self._retained[trace_id] = record
                while len(self._retained) > self.retained_capacity:
                    self._retained.popitem(last=False)
                    self.dropped += 1
            else:
                self._ring[trace_id] = record
                while len(self._ring) > self.capacity:
                    self._ring.popitem(last=False)
                    self.dropped += 1

    # ------------------------------------------------------------------
    # reads / export
    # ------------------------------------------------------------------
    def traces(self) -> Tuple[TraceRecord, ...]:
        """Every stored trace (ring + retained), in finish order."""
        with self._lock:
            merged = list(self._ring.values()) + list(
                self._retained.values()
            )
        return tuple(sorted(merged, key=lambda record: record.seq))

    def named(self, name: str) -> Tuple[TraceRecord, ...]:
        """The stored records whose root span is ``name``, oldest first
        (``serve.request`` / ``serve.write`` / ``cluster.read`` / ...)."""
        return tuple(
            record for record in self.traces() if record.name == name
        )

    def get(self, trace_id: str) -> Optional[TraceRecord]:
        with self._lock:
            record = self._ring.get(trace_id)
            if record is None:
                record = self._retained.get(trace_id)
            return record

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "started": self.started,
                "sampled": self.sampled,
                "finished": self.finished,
                "retained": self.retained,
                "stored": len(self._ring) + len(self._retained),
                "dropped_traces": self.dropped,
                "dropped_spans": self.dropped_spans,
            }

    def to_jsonl(self) -> str:
        """Stored traces as JSON Lines (:func:`records_jsonl`)."""
        return records_jsonl(self.traces())

    def write_jsonl(self, path: str) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns traces written."""
        return write_text(path, self.to_jsonl())


def records_jsonl(records: Iterable[TraceRecord]) -> str:
    """Records as JSON Lines, canonically key-sorted so two
    deterministic runs produce byte-identical dumps once the differ
    strips the ``*wall_seconds`` fields."""
    lines = [
        json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))
        for record in records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_text(path: str, text: str) -> int:
    """Write JSON Lines ``text`` to ``path``; returns the lines written."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text.count("\n")
