"""Live metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` is a local object, owned by what it
measures: each backend's :class:`~repro.obs.live.LiveTelemetry` keeps
one for its serving windows, and the HTTP front door
(:class:`repro.server.X3Api`) one for its trace-store gauges.
``GET /metrics`` scrapes them through
:func:`~repro.obs.export.prometheus_text`.  There is no process-global
registry: a cube run's counts are ``CubeResult.cost`` and
``CubeResult.phases``, a backend's are its ``stats()``.

Naming follows the Prometheus convention: ``x3_<subsystem>_<what>``
with ``_total`` suffix on monotonically increasing counters; labels
qualify the series (``algorithm="BUC"``, ``kind="external"``).
Updates are guarded by one registry lock — instrumentation points are
deliberately coarse (per run / per phase, never per row), so the lock
is uncontended.
"""

from __future__ import annotations

import threading
from typing import (
    Any,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

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


def format_labels(labels: LabelItems) -> str:
    """``{key="value",...}`` with escaped values; ``""`` for none."""
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(value)}"' for key, value in labels
    )
    return "{" + inner + "}"


class Metric:
    """Common identity: kind, name, sorted label pairs."""

    kind: ClassVar[str] = "?"

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels

    @property
    def label_string(self) -> str:
        return format_labels(self.labels)

    @property
    def reading(self) -> float:
        """The one number a flat read reports (a histogram's sum)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind} {self.name}{self.label_string}>"


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self.value: float = 0.0

    @property
    def reading(self) -> float:
        return self.value

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

    @property
    def reading(self) -> float:
        return self.value

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

    @property
    def reading(self) -> float:
        return self.sum

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


_M = TypeVar("_M", Counter, Gauge, Histogram)


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
        return self._get_or_create(
            Histogram, name, _label_items(labels), buckets or DEFAULT_BUCKETS
        )

    def _get_or_create(
        self, cls: Type[_M], name: str, labels: LabelItems, *args: Any
    ) -> _M:
        key = (cls.kind, name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = cls(name, labels, *args)
        assert isinstance(metric, cls)
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
        """The reading of one exact (name, labels) series, if present
        (a histogram reads as its sum)."""
        items = _label_items(labels)
        for metric in self.collect():
            if metric.name == name and metric.labels == items:
                return metric.reading
        return None

    def total(self, name: str) -> float:
        """Sum of a metric across every label set (0.0 when absent)."""
        return sum(
            (metric.reading for metric in self.collect() if metric.name == name),
            0.0,
        )

    def as_dict(self) -> Dict[str, float]:
        """Flat ``name{labels} -> reading`` map (histograms report sums)."""
        return {
            metric.name + metric.label_string: metric.reading
            for metric in self.collect()
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)
