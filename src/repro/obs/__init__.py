"""``repro.obs`` — the unified observability layer.

One subsystem for everything the stack measures:

- **Spans** (:mod:`repro.obs.span`): one span model — a finished
  :class:`TraceSpan` record carrying wall seconds *and* the
  deterministic simulated seconds of the cost model, an
  :class:`OpenSpan` context manager, and a context-local binding —
  spanning the parser, the cost model's sorts, every cube algorithm,
  the parallel engine, the serving ladder, the cluster and the HTTP
  front door.  Spans land in the :class:`TraceSession` of an
  ``obs.trace()`` block or in a request-scoped :class:`TraceStore`;
  every backend's request log is a :class:`RequestLog`, one coded
  root span per served read or write.
- **Counts live on what produced them**, traced or not: a cube run's
  ``CubeResult.cost`` (page I/O, CPU ops) and ``CubeResult.phases``
  (base scans, placements, sorts by kind, ...), a backend's
  ``stats()``, a cache's ``stats``.  Spans carry no counters; the
  ``algo.<NAME>`` span is annotated with its run's phases.
- **Live metrics** (:class:`MetricsRegistry`): counters / gauges /
  histograms owned by one object each — a backend's
  :class:`LiveTelemetry` and the HTTP front door — and scraped as
  Prometheus text at ``/metrics``.  There is no process-global
  registry.
- **Exporters**: Chrome ``trace_event`` JSON (``chrome://tracing`` /
  Perfetto), folded flamegraph stacks, Prometheus exposition text.

Typical use::

    from repro import obs

    with obs.trace() as session:
        doc = parse(xml_text)
        table = extract_fact_table(doc, query)
        result = compute_cube(table, ExecutionOptions(workers=4))
    session.trace().write_chrome("run.trace.json")

or, when only the cube run matters, read the report off its result::

    with obs.trace():
        result = compute_cube(table, ExecutionOptions())
    result.trace.to_chrome_json()

Instrumentation points call the module-level :func:`span`, which
returns a shared null singleton unless a span is bound — tracing off
costs one context-variable read.
"""

from __future__ import annotations

from repro.obs.events import EvictionRecord, RungDecision
from repro.obs.export import (
    chrome_trace_events,
    chrome_trace_json,
    collapsed_stacks,
    prometheus_text,
)
from repro.obs.live import Exemplar, LiveTelemetry, WindowSnapshot
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.propagate import (
    TRACEPARENT_HEADER,
    HeadSampler,
    IdSource,
    TraceContext,
    derive_span_id,
    parse_traceparent,
)
from repro.obs.span import (
    NULL_SPAN,
    OpenSpan,
    Trace,
    TraceSession,
    TraceSpan,
    current,
    enabled,
    session,
    span,
    trace,
)
from repro.obs.request_log import RequestLog
from repro.obs.trace_store import TraceRecord, TraceStore

__all__ = [
    "Counter",
    "EvictionRecord",
    "Exemplar",
    "Gauge",
    "HeadSampler",
    "Histogram",
    "IdSource",
    "LiveTelemetry",
    "MetricsRegistry",
    "NULL_SPAN",
    "OpenSpan",
    "RequestLog",
    "RungDecision",
    "TRACEPARENT_HEADER",
    "Trace",
    "TraceContext",
    "TraceRecord",
    "TraceSession",
    "TraceSpan",
    "TraceStore",
    "WindowSnapshot",
    "chrome_trace_events",
    "chrome_trace_json",
    "collapsed_stacks",
    "current",
    "derive_span_id",
    "enabled",
    "parse_traceparent",
    "prometheus_text",
    "session",
    "span",
    "trace",
]
