"""The span model: one record, one open span, one context-local binding.

Every layer — parser, cost-model sorts, cube algorithms, the parallel
engine, the serving ladder, the cluster scatter, the HTTP front door —
reports where its time went through the same three things:

- :class:`TraceSpan`: one *finished* span.  Plain picklable data
  carrying the trace id, a derived 64-bit span id, the parent id, a
  status, and **both** time bases — wall start/duration on the trace's
  clock and deterministic modeled ``sim_seconds``.
- :class:`OpenSpan`: one *open* span, a context manager.  Entering it
  binds it as the current span; children opened meanwhile parent under
  it.  :data:`NULL_SPAN` is the one shared instance that does nothing,
  handed out whenever nothing is recording.
- one :class:`contextvars.ContextVar` holding the current span.  The
  span knows its *sink* — where finished records go: the
  :class:`TraceSession` of an ``obs.trace()`` block or a request-scoped
  :class:`~repro.obs.trace_store.TraceStore`.

Being context-local, the binding follows work wherever it is handed:
thread pools submit ``contextvars.copy_context().run``, and process
pools pass the :class:`~repro.obs.propagate.TraceContext` triple in the
task payload, bind a worker-side session to it with
``obs.trace(remote=...)`` and ship the finished records back for
:meth:`OpenSpan.adopt`.  Child ids are *derived* from the parent id and
a stable key (:func:`~repro.obs.propagate.derive_span_id`), so a worker
in another process computes the same ids a thread would have, and two
seeded replays dump byte-identical traces.

Zero cost when nothing is bound is a hard requirement: :func:`span`
then returns :data:`NULL_SPAN` after one context-variable read.  Hot
loops (per-row, per-page) are never instrumented at all.  Spans carry
time, never counts: a count lives on the object that produced it — a
cube run's ``CubeResult.cost`` and ``.phases``, a backend's ``stats()``,
a cache's ``stats`` — whether or not anything is tracing.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.obs.propagate import TraceContext, derive_span_id


def _thread_label() -> str:
    thread = threading.current_thread()
    if thread is threading.main_thread():
        return f"pid-{os.getpid()}"
    return f"pid-{os.getpid()}/{thread.name}"


def _hex64(value: int) -> str:
    """A span id as 16 hex digits; ``0`` (no span) as ``""``."""
    return f"{value:016x}" if value else ""


#: Slotted where the interpreter can (3.10+): a backend's request log
#: keeps thousands of finished spans, and a slot costs less than a
#: per-instance attribute table.
_SLOTTED: Dict[str, bool] = (
    {"slots": True} if sys.version_info >= (3, 10) else {}
)


@dataclass(frozen=True, **_SLOTTED)
class TraceSpan:
    """One finished span — plain, picklable data.

    Ids are fixed-width lower-case hex strings (32 for the trace, 16
    for spans; ``parent_id`` is ``""`` on a root, ``trace_id`` is ``""``
    inside an ``obs.trace()`` session).  ``sim_seconds`` is the
    deterministic modeled duration; the two ``*wall_seconds`` fields
    are host timings on the trace's own clock (seconds since the trace
    began), named so the determinism differ strips them.  ``thread``
    labels the host pid/thread for the Chrome exporter's lanes and is
    never serialized.
    """

    trace_id: str
    span_id: str
    parent_id: str
    name: str
    category: str
    status: str = "ok"
    sim_seconds: float = 0.0
    start_wall_seconds: float = 0.0
    wall_seconds: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    thread: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "status": self.status,
            "sim_seconds": self.sim_seconds,
            "start_wall_seconds": self.start_wall_seconds,
            "wall_seconds": self.wall_seconds,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], thread: str = ""
    ) -> "TraceSpan":
        """The inverse of :meth:`to_dict` (``x3-trace`` loads dumps)."""
        return cls(
            trace_id=str(data.get("trace_id", "")),
            span_id=str(data.get("span_id", "")),
            parent_id=str(data.get("parent_id", "")),
            name=str(data.get("name", "")),
            category=str(data.get("category", "")),
            status=str(data.get("status", "ok")),
            sim_seconds=float(data.get("sim_seconds", 0.0)),
            start_wall_seconds=float(data.get("start_wall_seconds", 0.0)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            attrs=dict(data.get("attrs", {})),
            thread=thread,
        )


class SpanSink(Protocol):
    """Where a trace's finished spans go."""

    def record(self, span: TraceSpan, root: bool = False) -> None:
        """Take one finished span; ``root`` marks the trace's last."""


class OpenSpan:
    """An open span; use as a context manager.

    Recording spans bind themselves as the current span for the
    ``with`` body and emit a :class:`TraceSpan` on exit.  A span whose
    trace is not recorded (no sink, or a head-unsampled context) keeps
    its :attr:`context` — so a request root can still echo a truthful
    ``traceparent`` and, being bound, keep inner layers from minting a
    competing root — but every mutator is a no-op and every child is
    :data:`NULL_SPAN`.
    """

    __slots__ = (
        "_sink",
        "context",
        "parent_id",
        "name",
        "category",
        "attrs",
        "status",
        "sim_seconds",
        "is_root",
        "enabled",
        "_cost",
        "_sim_start",
        "_epoch",
        "_start",
        "_siblings",
        "_token",
    )

    def __init__(
        self,
        sink: Optional[SpanSink],
        context: TraceContext,
        parent_id: int,
        name: str,
        category: str,
        attrs: Dict[str, Any],
        epoch: float,
        cost: Any = None,
        is_root: bool = False,
    ) -> None:
        self._sink = sink
        self.context = context
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.attrs = attrs
        self.status = "ok"
        self.sim_seconds = 0.0
        self.is_root = is_root
        self.enabled = sink is not None and context.sampled
        self._cost = cost
        self._sim_start = 0.0
        self._epoch = epoch
        self._start = 0.0
        self._siblings: Dict[str, Iterator[int]] = {}
        self._token: Optional[contextvars.Token[Optional[OpenSpan]]] = None

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def trace_id_hex(self) -> str:
        """The trace id records and envelopes are stamped with (``""``
        when nothing is recorded under it)."""
        if not self.enabled or not self.context.trace_id:
            return ""
        return self.context.trace_id_hex

    @property
    def span_id_hex(self) -> str:
        return _hex64(self.context.span_id) if self.enabled else ""

    @property
    def parent_hex(self) -> str:
        return _hex64(self.parent_id)

    @property
    def traceparent(self) -> str:
        return self.context.to_traceparent()

    # ------------------------------------------------------------------
    # mutators (no-ops unless recording)
    # ------------------------------------------------------------------
    def annotate(self, **attrs: Any) -> "OpenSpan":
        if self.enabled:
            self.attrs.update(attrs)
        return self

    def set_status(self, status: str) -> "OpenSpan":
        if self.enabled:
            self.status = status
        return self

    def set_sim(self, seconds: float) -> "OpenSpan":
        """Set the modeled duration explicitly (a live ``cost=`` model,
        when given, measures it instead)."""
        if self.enabled:
            self.sim_seconds = seconds
        return self

    def now(self) -> float:
        """Wall seconds since this span's trace began."""
        return time.perf_counter() - self._epoch if self.enabled else 0.0

    # ------------------------------------------------------------------
    # children
    # ------------------------------------------------------------------
    def child(
        self,
        name: str,
        category: str = "",
        cost: Any = None,
        key: Optional[str] = None,
        **attrs: Any,
    ) -> "OpenSpan":
        """Open a child span (:data:`NULL_SPAN` unless recording).

        Args:
            name: span name (dotted, e.g. ``"engine.merge"``).
            category: layer tag (``parse`` / ``cost`` / ``algorithm``
                / ``engine`` / ``serve`` / ...), used by the exporters.
            cost: a live cost model; when given, the span measures its
                modeled seconds from it.
            key: a stable sibling key.  Pass it from fan-out call sites
                (``key=f"s{shard}"``) so sibling ids never depend on
                which worker got there first; without one the id comes
                from a per-name ordinal.
        """
        if not self.enabled:
            return NULL_SPAN
        if key is None:
            ordinal = self._siblings.get(name)
            if ordinal is None:
                # setdefault + next are atomic under the GIL: siblings
                # opened from several threads never share an ordinal.
                ordinal = self._siblings.setdefault(name, itertools.count())
            key = f"{name}#{next(ordinal)}"
        else:
            key = f"{name}/{key}"
        span_id = derive_span_id(self.context.span_id, key)
        return OpenSpan(
            self._sink,
            self.context.child(span_id),
            self.context.span_id,
            name,
            category,
            attrs,
            self._epoch,
            cost,
        )

    def adopt(self, spans: Sequence[TraceSpan], shift: float = 0.0) -> None:
        """Append spans a process worker shipped back.

        The worker bound its session to this span's context
        (``obs.trace(remote=span.context)``), so the records already
        carry this trace's id, derived span ids and the right parents;
        only their start times move, by ``shift`` seconds, from the
        worker's clock onto this trace's.
        """
        sink = self._sink
        if not self.enabled or sink is None:
            return
        for span in spans:
            sink.record(
                replace(
                    span,
                    start_wall_seconds=span.start_wall_seconds + shift,
                )
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "OpenSpan":
        if self.enabled or self.is_root:
            self._token = _CURRENT.set(self)
        if self.enabled:
            if self._cost is not None:
                self._sim_start = self._cost.simulated_seconds()
            self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        token = self._token
        if token is None:
            return
        wall = time.perf_counter() - self._start
        self._token = None
        _CURRENT.reset(token)
        sink = self._sink
        if not self.enabled or sink is None:
            return
        if self._cost is not None:
            self.sim_seconds = (
                self._cost.simulated_seconds() - self._sim_start
            )
        if exc_type is not None and self.status == "ok":
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        sink.record(
            TraceSpan(
                trace_id=self.trace_id_hex,
                span_id=self.span_id_hex,
                parent_id=self.parent_hex,
                name=self.name,
                category=self.category,
                status=self.status,
                sim_seconds=self.sim_seconds,
                start_wall_seconds=self._start - self._epoch,
                wall_seconds=wall,
                attrs=self.attrs,
                thread=_thread_label(),
            ),
            self.is_root,
        )


#: The span handed out whenever nothing is recording.  One instance;
#: it never binds, so it is safe to share across threads.
NULL_SPAN = OpenSpan(None, TraceContext(0, 0, False), 0, "", "", {}, 0.0)

_CURRENT: contextvars.ContextVar[Optional[OpenSpan]] = contextvars.ContextVar(
    "x3_current_span", default=None
)


# ----------------------------------------------------------------------
# the binding
# ----------------------------------------------------------------------
def current() -> OpenSpan:
    """The innermost bound span (:data:`NULL_SPAN` when nothing is).

    Entry points test ``current() is NULL_SPAN`` before opening their
    own root: a request that arrived head-unsampled is bound but not
    enabled, and must not be re-minted by an inner layer.
    """
    return _CURRENT.get() or NULL_SPAN


def enabled() -> bool:
    """Is a recording span currently bound?"""
    return current().enabled


def span(
    name: str,
    category: str = "",
    cost: Any = None,
    key: Optional[str] = None,
    **attrs: Any,
) -> OpenSpan:
    """Open a child of the current span (shared no-op when none).

    The untraced cost is one context-variable read.
    """
    bound = _CURRENT.get()
    if bound is None:
        return NULL_SPAN
    return bound.child(name, category, cost, key, **attrs)


# ----------------------------------------------------------------------
# sessions: the obs.trace() sink
# ----------------------------------------------------------------------
class TraceSession:
    """Collects a whole run's spans (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[TraceSpan] = []

    def record(self, span: TraceSpan, root: bool = False) -> None:
        with self._lock:
            self._records.append(span)

    def records(self) -> List[TraceSpan]:
        """Finished spans, ordered by start time."""
        with self._lock:
            return sorted(
                self._records,
                key=lambda r: (r.start_wall_seconds, r.span_id),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def trace(self) -> "Trace":
        """Freeze the current spans into an exportable report."""
        return Trace(records=tuple(self.records()))


def session() -> Optional[TraceSession]:
    """The ``obs.trace()`` session the current span reports to, if any."""
    sink = current()._sink
    return sink if isinstance(sink, TraceSession) else None


@contextmanager
def trace(remote: Optional[TraceContext] = None) -> Iterator[TraceSession]:
    """Record everything in the ``with`` body into a fresh session.

    Yields the :class:`TraceSession`; call ``.trace()`` on it afterwards
    for the exportable :class:`Trace` report.  Nested sessions restore
    the outer one on exit.

    ``remote`` is for process-pool workers: the context of the span the
    work was submitted under.  Spans then carry that trace's id and
    parent under that span, ready to be shipped back and
    :meth:`~OpenSpan.adopt`\\ ed.
    """
    collector = TraceSession()
    anchor = OpenSpan(
        collector,
        remote if remote is not None else TraceContext(0, 0, True),
        0,
        "",
        "",
        {},
        time.perf_counter(),
    )
    token = _CURRENT.set(anchor)
    try:
        yield collector
    finally:
        _CURRENT.reset(token)


@dataclass(frozen=True)
class Trace:
    """A finished session: the span forest."""

    records: Tuple[TraceSpan, ...]

    # Exporters live in repro.obs.export; these are the ergonomic fronts.
    def to_chrome_json(self) -> str:
        from repro.obs.export import chrome_trace_json

        return chrome_trace_json(self.records)

    def to_collapsed(self) -> str:
        from repro.obs.export import collapsed_stacks

        return collapsed_stacks(self.records)

    def write_chrome(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_chrome_json())

    # ------------------------------------------------------------------
    def span_names(self) -> List[str]:
        return [record.name for record in self.records]

    def categories(self) -> List[str]:
        return sorted(
            {record.category for record in self.records if record.category}
        )

    def spans_named(self, name: str) -> List[TraceSpan]:
        return [record for record in self.records if record.name == name]

    def children_of(self, span_id: str) -> List[TraceSpan]:
        return [
            record
            for record in self.records
            if record.parent_id == span_id
        ]

    def summary(self, top: int = 10) -> str:
        """Aggregate per-name totals, busiest first (CLI ``--profile``)."""
        totals: Dict[str, List[float]] = {}
        for record in self.records:
            slot = totals.setdefault(record.name, [0, 0.0, 0.0])
            slot[0] += 1
            slot[1] += record.wall_seconds
            slot[2] += record.sim_seconds
        lines = [
            f"{'span':<28} {'count':>6} {'wall_s':>10} {'sim_s':>10}"
        ]
        ranked = sorted(
            totals.items(), key=lambda item: -item[1][1]
        )[:top]
        for name, (count, wall, sim) in ranked:
            lines.append(
                f"{name:<28} {count:>6} {wall:>10.4f} {sim:>10.4f}"
            )
        return "\n".join(lines)
