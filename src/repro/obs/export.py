"""Trace and metrics exporters.

Three formats, all text, all dependency-free:

- :func:`chrome_trace_json` — the Chrome ``trace_event`` format
  (``chrome://tracing`` / Perfetto): one ``"X"`` complete event per
  span, with wall microseconds on the timeline and the simulated-time
  base tucked into ``args``.
- :func:`collapsed_stacks` — Brendan Gregg's folded-stack format
  (``root;child;leaf <weight>``), weight = wall microseconds, directly
  consumable by ``flamegraph.pl`` or speedscope.
- :func:`prometheus_text` — the Prometheus exposition format for one
  or more live metrics registries (``# HELP`` / ``# TYPE`` once per
  family, label sets, histogram buckets).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.obs.metrics import (
    Histogram,
    LabelItems,
    Metric,
    MetricsRegistry,
    format_labels,
)
from repro.obs.span import TraceSpan

#: ``# HELP`` text for the well-known series; anything else gets a
#: generated line so every exported family is self-describing.
HELP_TEXTS: Dict[str, str] = {
    "x3_serve_requests_total": "Requests served, by ladder rung.",
    "x3_serve_request_modeled_seconds": (
        "Modeled (simulated) latency of served requests."
    ),
    "x3_serve_request_wall_seconds": (
        "Host wall latency of served requests."
    ),
    "x3_serve_slo_violations_total": (
        "Requests over the modeled-latency SLO threshold."
    ),
    "x3_serve_cache_audit_total": (
        "Cache-state changes, by audit kind."
    ),
    "x3_serve_window_modeled_latency_seconds": (
        "Sliding-window modeled latency quantiles."
    ),
    "x3_serve_window_wall_latency_seconds": (
        "Sliding-window wall latency quantiles."
    ),
    "x3_serve_window_requests": "Requests inside the sliding window.",
    "x3_serve_window_hit_ratio": (
        "Fraction of window requests answered above the recompute rung."
    ),
    "x3_serve_window_eviction_churn": (
        "Cache-state changes inside the sliding window."
    ),
    "x3_serve_window_slo_burn_rate": (
        "Error-budget burn rate over the sliding window (1.0 spends the"
        " budget exactly)."
    ),
    "x3_trace_started_total": "Requests that minted or joined a trace.",
    "x3_trace_sampled_total": "Requests head-sampled into the store.",
    "x3_trace_retained_total": (
        "Traces tail-retained (error / deadline / p99-slow)."
    ),
}


def _split_thread(label: str) -> Tuple[int, str]:
    """``pid-123/worker-0`` -> (123, "worker-0"); best-effort parse."""
    pid = os.getpid()
    name = label or "main"
    if label.startswith("pid-"):
        head, _, tail = label[4:].partition("/")
        try:
            pid = int(head)
        except ValueError:
            pass
        name = tail or "main"
    return pid, name


def chrome_trace_events(
    records: Sequence[TraceSpan],
) -> List[Dict[str, object]]:
    """Spans as ``trace_event`` dicts (complete events + thread names)."""
    tids: Dict[str, int] = {}
    events: List[Dict[str, object]] = []
    for record in records:
        pid, thread_name = _split_thread(record.thread)
        if record.thread not in tids:
            tids[record.thread] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tids[record.thread],
                    "args": {"name": thread_name},
                }
            )
        args: Dict[str, object] = dict(record.attrs)
        if record.sim_seconds:
            args["sim_seconds"] = round(record.sim_seconds, 9)
        if record.status != "ok":
            args.setdefault("status", record.status)
        events.append(
            {
                "name": record.name,
                "cat": record.category or "default",
                "ph": "X",
                "ts": round(record.start_wall_seconds * 1e6, 3),
                "dur": round(record.wall_seconds * 1e6, 3),
                "pid": pid,
                "tid": tids[record.thread],
                "args": args,
            }
        )
    return events


def chrome_trace_json(records: Sequence[TraceSpan]) -> str:
    """The full Chrome/Perfetto trace document."""
    document: Dict[str, object] = {
        "traceEvents": chrome_trace_events(records),
        "displayTimeUnit": "ms",
    }
    return json.dumps(document, indent=None, separators=(",", ":"))


def collapsed_stacks(records: Sequence[TraceSpan]) -> str:
    """Folded flamegraph lines: ``a;b;c <wall microseconds>``."""
    by_id = {record.span_id: record for record in records}
    lines: List[str] = []
    for record in records:
        stack: List[str] = []
        cursor: Optional[TraceSpan] = record
        seen: Set[str] = set()
        while cursor is not None and cursor.span_id not in seen:
            seen.add(cursor.span_id)
            stack.append(cursor.name.replace(";", "_"))
            cursor = by_id.get(cursor.parent_id)
        stack.reverse()
        # Self time: the span's duration minus its children's — folded
        # stacks weight each frame by exclusive time.
        child_time = sum(
            child.wall_seconds
            for child in records
            if child.parent_id == record.span_id
        )
        weight = max(0.0, record.wall_seconds - child_time)
        micros = int(weight * 1e6)
        if micros > 0:
            lines.append(";".join(stack) + f" {micros}")
    return "\n".join(lines) + ("\n" if lines else "")


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(
    registry: MetricsRegistry,
    labelled: Sequence[Tuple[Mapping[str, str], MetricsRegistry]] = (),
) -> str:
    """Prometheus exposition format (text/plain version 0.0.4).

    ``labelled`` registries are exported beside ``registry``, each of
    their series qualified by its labels (``{"cube": name}`` per
    backend): a family several registries share gets one ``# HELP`` /
    ``# TYPE`` header, and its series stay distinct.
    """
    series: List[Tuple[LabelItems, Metric]] = [
        ((), metric) for metric in registry.collect()
    ]
    for labels, more in labelled:
        extra = tuple((key, str(value)) for key, value in labels.items())
        series.extend((extra, metric) for metric in more.collect())
    # Stable: one family's series stay together, in registry order.
    series.sort(key=lambda item: (item[1].kind, item[1].name))
    lines: List[str] = []
    seen: Set[str] = set()
    for extra, metric in series:
        name = metric.name
        if name not in seen:
            seen.add(name)
            help_text = HELP_TEXTS.get(name, f"{name} ({metric.kind}).")
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {metric.kind}")
        labels = extra + metric.labels
        if not isinstance(metric, Histogram):
            lines.append(
                f"{name}{format_labels(labels)} {_prom_value(metric.reading)}"
            )
            continue
        # bucket_counts are already cumulative (observe() increments
        # every bucket whose bound covers the value).
        for bound, count in zip(metric.bounds, metric.bucket_counts):
            bucket = format_labels(labels + (("le", _prom_value(bound)),))
            lines.append(f"{name}_bucket{bucket} {count}")
        lines.append(
            f"{name}_sum{format_labels(labels)} {_prom_value(metric.sum)}"
        )
        lines.append(f"{name}_count{format_labels(labels)} {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")
