"""The central metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` absorbs every measurement source in the
stack — the deterministic :class:`~repro.cost.CostModel`
counters (CPU ops, page I/O), the engine's
per-stage :class:`~repro.core.engine.metrics.EngineMetrics`, and the
per-algorithm phase counters — under one naming scheme, so a single
scrape answers "where did the work go".

Naming follows the Prometheus convention: ``x3_<subsystem>_<what>``
with ``_total`` suffix on monotonically increasing counters; labels
qualify the series (``algorithm="BUC"``, ``kind="external"``).
Updates are guarded by one registry lock — instrumentation points are
deliberately coarse (per run / per phase, never per row), so the lock
is uncontended.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

LabelItems = Tuple[Tuple[str, str], ...]

DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    float("inf"),
)


def _label_items(labels: Mapping[str, Any]) -> LabelItems:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition format:
    backslash, double quote, and newline must be backslash-escaped."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class Metric:
    """Common identity: kind, name, sorted label pairs."""

    kind = "?"

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels

    @property
    def label_string(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(
            f'{key}="{escape_label_value(value)}"'
            for key, value in self.labels
        )
        return "{" + inner + "}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind} {self.name}{self.label_string}>"


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge(Metric):
    """A value that can go anywhere (pool occupancy, speedup, ...)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, labels)
        bounds = tuple(sorted(buckets))
        if not bounds or bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create store of metrics, keyed by (kind, name, labels)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, str, LabelItems], Metric] = {}

    # ------------------------------------------------------------------
    # get-or-create
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, _label_items(labels))

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, _label_items(labels))

    def histogram(
        self,
        name: str,
        buckets: Optional[Tuple[float, ...]] = None,
        **labels: Any,
    ) -> Histogram:
        key = ("histogram", name, _label_items(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = Histogram(
                    name, key[2], buckets=buckets or DEFAULT_BUCKETS
                )
                self._metrics[key] = metric
        return metric  # type: ignore[return-value]

    def _get_or_create(self, cls, name: str, labels: LabelItems):
        key = (cls.kind, name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels)
                self._metrics[key] = metric
        return metric

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def collect(self) -> List[Metric]:
        """Every metric, in a stable (kind, name, labels) order."""
        with self._lock:
            return [
                self._metrics[key] for key in sorted(self._metrics.keys())
            ]

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """The value of one exact (name, labels) series, if present."""
        items = _label_items(labels)
        with self._lock:
            for (kind, metric_name, metric_labels), metric in (
                self._metrics.items()
            ):
                if metric_name == name and metric_labels == items:
                    if kind == "histogram":
                        return metric.sum  # type: ignore[union-attr]
                    return metric.value  # type: ignore[union-attr]
        return None

    def total(self, name: str) -> float:
        """Sum of a metric across every label set (0.0 when absent)."""
        out = 0.0
        with self._lock:
            for (kind, metric_name, _), metric in self._metrics.items():
                if metric_name != name:
                    continue
                if kind == "histogram":
                    out += metric.sum  # type: ignore[union-attr]
                else:
                    out += metric.value  # type: ignore[union-attr]
        return out

    def as_dict(self) -> Dict[str, float]:
        """Flat ``name{labels} -> value`` map (histograms report sums)."""
        out: Dict[str, float] = {}
        for metric in self.collect():
            key = metric.name + metric.label_string
            if isinstance(metric, Histogram):
                out[key] = metric.sum
            else:
                out[key] = metric.value
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    # ------------------------------------------------------------------
    # absorption of the existing measurement sources
    # ------------------------------------------------------------------
    COST_COUNTERS = (
        ("cpu_ops", "x3_cost_cpu_ops_total"),
        ("page_reads", "x3_cost_page_reads_total"),
        ("page_writes", "x3_cost_page_writes_total"),
    )

    def absorb_cost(self, cost: Any, **labels: Any) -> None:
        """Fold a cost snapshot into the unified counters.

        Accepts a :class:`~repro.core.cube.CostSnapshot`, a
        :class:`~repro.cost.CostModel`, or the plain mapping
        either produces.
        """
        if hasattr(cost, "snapshot"):  # a live CostModel
            data: Mapping[str, float] = cost.snapshot()
        elif hasattr(cost, "as_dict"):  # a CostSnapshot
            data = cost.as_dict()
        else:
            data = cost
        for field_name, metric_name in self.COST_COUNTERS:
            value = float(data.get(field_name, 0.0))
            if value:
                self.counter(metric_name, **labels).inc(value)
        simulated = float(data.get("simulated_seconds", 0.0))
        if simulated:
            self.counter(
                "x3_cost_simulated_seconds_total", **labels
            ).inc(simulated)

    def absorb_engine(self, metrics: Any, **labels: Any) -> None:
        """Fold one :class:`EngineMetrics` into engine-level series."""
        self.counter("x3_engine_runs_total", engine=metrics.engine, **labels).inc()
        self.counter(
            "x3_engine_partitions_total", engine=metrics.engine, **labels
        ).inc(len(metrics.partitions))
        self.gauge(
            "x3_engine_workers_used", engine=metrics.engine, **labels
        ).set(metrics.workers_used)
        self.gauge(
            "x3_engine_cut_edges", engine=metrics.engine, **labels
        ).set(metrics.cut_edges)
        for stage, seconds in (
            ("partition", metrics.partition_seconds),
            ("merge", metrics.merge_seconds),
            ("queue_wait", metrics.queue_wait_seconds),
            ("total", metrics.total_wall_seconds),
        ):
            self.histogram(
                "x3_engine_stage_seconds",
                stage=stage,
                engine=metrics.engine,
                **labels,
            ).observe(seconds)

    def absorb_phases(
        self, phases: Mapping[str, float], **labels: Any
    ) -> None:
        """Fold per-algorithm phase counters (``base.run`` flushes them)."""
        for phase, value in phases.items():
            if value:
                self.counter(
                    f"x3_algo_{phase}_total", **labels
                ).inc(float(value))

    def merge(self, other: "MetricsRegistry") -> None:
        """Add another registry's series into this one (trace merge)."""
        for metric in other.collect():
            labels = dict(metric.labels)
            if isinstance(metric, Counter):
                self.counter(metric.name, **labels).inc(metric.value)
            elif isinstance(metric, Gauge):
                self.gauge(metric.name, **labels).set(metric.value)
            elif isinstance(metric, Histogram):
                mine = self.histogram(
                    metric.name, buckets=metric.bounds, **labels
                )
                mine.count += metric.count
                mine.sum += metric.sum
                for index, count in enumerate(metric.bucket_counts):
                    if index < len(mine.bucket_counts):
                        mine.bucket_counts[index] += count
