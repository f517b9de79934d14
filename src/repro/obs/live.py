"""Live serving telemetry: sliding windows, SLO burn, hottest points.

The batch side of ``repro.obs`` aggregates counters after a run; this
module watches a *serving* session while it runs.  One
:class:`LiveTelemetry` instance absorbs every served request (its tier,
point, modeled and wall seconds, trace id) and cache audit record the
server emits and maintains, per configured sliding window:

- streaming latency quantiles (p50/p95/p99) on both time bases —
  modeled simulated seconds (host-independent, the same scale the
  bench figures use) and wall seconds;
- the hit ratio (requests answered above the recompute rung);
- eviction churn (cache-state changes inside the window);
- SLO burn: the fraction of requests over the latency threshold,
  scaled by the error budget ``1 - SLO_TARGET`` (a burn rate of 1.0
  spends the budget exactly; above 1.0 the SLO is burning down).

The windows read one set of ring columns: the clock time, modeled and
wall seconds of every request (``array('d')``), and its tier and point
as codes into a small dictionary of labels (``array('i')``).  The time
column only grows, so a window's first request is found by bisection.

Everything is mirrored into a :class:`~repro.obs.metrics.MetricsRegistry`
— cumulative histograms per ladder rung plus per-window gauges — so the
existing Prometheus exporter (:func:`repro.obs.export.prometheus_text`)
serves the numbers without new plumbing.  The clock is injectable, so
tests drive the windows deterministically.
"""

from __future__ import annotations

import math
import threading
import time
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import EvictionRecord
from repro.obs.metrics import MetricsRegistry

#: Histogram bounds tuned to modeled serve latencies (cache touches sit
#: around 1e-5 simulated seconds; cold recomputes around 1e-2..1e0).
SERVE_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6,
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    float("inf"),
)

#: The quantiles every window reports.
WINDOW_QUANTILES: Tuple[float, ...] = (0.50, 0.95, 0.99)

#: Fraction of requests the SLO promises under its threshold (0.99
#: leaves a 1% error budget).
SLO_TARGET = 0.99

#: Hard cap on retained samples (and churn records), bounding memory
#: even under traffic far faster than the longest window.  Once it
#: drops an entry still inside a window, that window's snapshot covers
#: less than its length, and says so (``covered_seconds``).
MAX_SAMPLES = 65536


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    return _nearest_rank(sorted(values), q)


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of values already in ascending order."""
    if not ordered:
        return 0.0
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered), max(1, rank)) - 1]


@dataclass(frozen=True)
class Exemplar:
    """One trace exemplifying a latency-histogram bucket.

    The newest sampled request landing in each
    ``(tier, bucket bound)`` cell of the modeled-latency histogram is
    remembered by trace id, so a dashboard can jump from "the p99
    bucket is filling" straight to a concrete trace that landed there.
    """

    tier: str
    bucket_le: float  #: upper bound of the histogram bucket
    trace_id: str  #: 32-hex trace id
    modeled_seconds: float  #: the observed value


@dataclass(frozen=True)
class WindowSnapshot:
    """Everything one sliding window knows, frozen at a point in time."""

    window_seconds: float
    requests: int
    hit_ratio: float
    modeled_quantiles: Dict[float, float]  #: q -> modeled seconds
    wall_quantiles: Dict[float, float]  #: q -> wall seconds
    tiers: Dict[str, int]
    evictions: int  #: cache-state churn events inside the window
    slo_violations: int
    slo_burn_rate: float
    top_points: Tuple[Tuple[str, int], ...]  #: hottest points, desc.
    #: the span the numbers cover: ``window_seconds``, unless
    #: :data:`MAX_SAMPLES` dropped entries inside the window, and then
    #: the time since the newest one dropped
    covered_seconds: float

    @property
    def cut(self) -> bool:
        """Did the sample cap cut this window short?"""
        return self.covered_seconds < self.window_seconds

    def quantile_label(self, q: float) -> str:
        return f"p{int(round(q * 100)):02d}"


class LiveTelemetry:
    """Streaming serving telemetry over configurable sliding windows.

    Args:
        windows: window lengths in clock seconds, shortest first.
        slo_modeled_seconds: per-request modeled-latency threshold the
            SLO promises to stay under.
        clock: monotonic time source (injectable for tests).
        top_k: hottest lattice points reported per window.

    :attr:`registry` is the instance's own metrics registry.
    """

    def __init__(
        self,
        windows: Sequence[float] = (60.0, 300.0),
        *,
        slo_modeled_seconds: float = 0.01,
        clock: Callable[[], float] = time.monotonic,
        top_k: int = 5,
    ) -> None:
        if not windows:
            raise ValueError("at least one window is required")
        if any(w <= 0 for w in windows):
            raise ValueError(f"window lengths must be positive: {windows}")
        self.windows = tuple(sorted(windows))
        self.slo_modeled_seconds = slo_modeled_seconds
        self.registry = MetricsRegistry()
        self._clock = clock
        self.top_k = top_k
        self._lock = threading.Lock()
        # One row per request, oldest first from ``_first``: the clock
        # time, modeled and wall seconds, and tier and point label codes.
        self._at = array("d")
        self._modeled = array("d")
        self._wall = array("d")
        self._tiers = array("i")
        self._points = array("i")
        self._first = 0
        # The clock time of every cache-state change, from ``_churn_first``.
        self._churn = array("d")
        self._churn_first = 0
        # Label <-> code for tiers and points; re-coded on compaction.
        self._codes: Dict[str, int] = {}
        self._labels: List[str] = []
        self._exemplars: Dict[Tuple[str, float], Exemplar] = {}
        # When the newest entry the cap dropped was recorded: every
        # entry after it is still held.
        self._dropped_at = -math.inf

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def record(
        self,
        tier: str,
        point: str,
        modeled: float,
        wall: float,
        trace_id: str = "",
    ) -> None:
        """Absorb one served request into windows and registry:
        the rung that answered, the described point, modeled and wall
        seconds, and the trace id when the request was sampled."""
        with self._lock:
            # Read under the lock, so the time column stays sorted.
            now = self._clock()
            self._prune(now)
            if len(self._at) - self._first == MAX_SAMPLES:
                self._dropped_at = max(
                    self._dropped_at, self._at[self._first]
                )
                self._first += 1
            self._at.append(now)
            self._modeled.append(modeled)
            self._wall.append(wall)
            self._tiers.append(self._code(tier))
            self._points.append(self._code(point))
            if self._first > len(self._at) >> 1:
                self._compact()
            if trace_id:
                for bound in SERVE_LATENCY_BUCKETS:
                    if modeled <= bound:
                        self._exemplars[(tier, bound)] = Exemplar(
                            tier=tier,
                            bucket_le=bound,
                            trace_id=trace_id,
                            modeled_seconds=modeled,
                        )
                        break
        registry = self.registry
        registry.counter("x3_serve_requests_total", tier=tier).inc()
        registry.histogram(
            "x3_serve_request_modeled_seconds",
            buckets=SERVE_LATENCY_BUCKETS,
            tier=tier,
        ).observe(modeled)
        registry.histogram(
            "x3_serve_request_wall_seconds",
            buckets=SERVE_LATENCY_BUCKETS,
            tier=tier,
        ).observe(wall)
        if modeled > self.slo_modeled_seconds:
            registry.counter("x3_serve_slo_violations_total").inc()

    def record_eviction(self, record: EvictionRecord) -> None:
        """Absorb one cache audit record (churn gauge + counter)."""
        with self._lock:
            now = self._clock()
            self._prune(now)
            churn = self._churn
            if len(churn) - self._churn_first == MAX_SAMPLES:
                self._dropped_at = max(
                    self._dropped_at, churn[self._churn_first]
                )
                self._churn_first += 1
            churn.append(now)
            if self._churn_first > len(churn) >> 1:
                del churn[: self._churn_first]
                self._churn_first = 0
        self.registry.counter(
            "x3_serve_cache_audit_total", kind=record.kind
        ).inc()

    def _code(self, label: str) -> int:
        """``label``'s code, entering it if new (lock held)."""
        code = self._codes.get(label)
        if code is None:
            code = self._codes[label] = len(self._labels)
            self._labels.append(label)
        return code

    def _prune(self, now: float) -> None:
        """Drop samples older than the longest window (lock held), so a
        full ring's oldest entry is inside it."""
        horizon = now - self.windows[-1]
        self._first = bisect_left(self._at, horizon, self._first)
        self._churn_first = bisect_left(
            self._churn, horizon, self._churn_first
        )

    def _compact(self) -> None:
        """Cut the dropped rows off every column and keep only the
        labels the live rows use (lock held)."""
        first = self._first
        columns = (
            self._at, self._modeled, self._wall, self._tiers, self._points
        )
        for column in columns:
            del column[:first]
        self._first = 0
        live = sorted(set(self._tiers).union(self._points))
        if len(live) < len(self._labels):
            renumber = dict(zip(live, range(len(live))))
            self._labels = [self._labels[code] for code in live]
            self._codes = {
                label: code for code, label in enumerate(self._labels)
            }
            for column in (self._tiers, self._points):
                column[:] = array("i", map(renumber.__getitem__, column))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def snapshot(self, window_seconds: Optional[float] = None) -> WindowSnapshot:
        """Frozen stats for one window (default: the shortest).

        When the sample cap has dropped entries inside the window, the
        stats cover only the time since the newest one dropped, and
        ``covered_seconds`` says how long that is."""
        window = (
            self.windows[0] if window_seconds is None else window_seconds
        )
        now = self._clock()
        with self._lock:
            dropped_at = self._dropped_at
            horizon = now - window

            def first(column: "array[float]", start: int) -> int:
                # The first entry at or after the horizon and after the
                # newest one the cap dropped: the column is sorted.
                return max(
                    bisect_left(column, horizon, start),
                    bisect_right(column, dropped_at, start),
                )

            # Copies of the window's rows; everything else runs outside
            # the lock.  A compaction re-binds ``_labels``, so the list
            # taken here keeps decoding the codes copied with it.
            start = first(self._at, self._first)
            modeled_column = self._modeled[start:]
            wall_column = self._wall[start:]
            tier_codes = self._tiers[start:]
            point_codes = self._points[start:]
            labels = self._labels
            churn = len(self._churn) - first(self._churn, self._churn_first)
        modeled = sorted(modeled_column)
        walls = sorted(wall_column)
        tiers: Dict[str, int] = {
            labels[code]: n for code, n in Counter(tier_codes).items()
        }
        hottest = [
            (labels[code], n)
            for code, n in Counter(point_codes).most_common(self.top_k)
        ]
        requests = len(modeled)
        hits = requests - tiers.get("recompute", 0)
        violations = requests - bisect_right(
            modeled, self.slo_modeled_seconds
        )
        budget = 1.0 - SLO_TARGET
        burn = (violations / requests) / budget if requests else 0.0
        return WindowSnapshot(
            window_seconds=window,
            requests=requests,
            hit_ratio=(hits / requests) if requests else 0.0,
            modeled_quantiles={
                q: _nearest_rank(modeled, q) for q in WINDOW_QUANTILES
            },
            wall_quantiles={
                q: _nearest_rank(walls, q) for q in WINDOW_QUANTILES
            },
            tiers=tiers,
            evictions=churn,
            slo_violations=violations,
            slo_burn_rate=burn,
            top_points=tuple(hottest),
            covered_seconds=min(window, now - dropped_at),
        )

    def snapshots(self) -> List[WindowSnapshot]:
        """One snapshot per configured window, shortest first."""
        return [self.snapshot(window) for window in self.windows]

    def exemplars(self) -> List[Exemplar]:
        """The newest trace exemplar per (tier, latency bucket), in a
        stable (tier, bound) order.  Only sampled requests (those
        recorded with a trace id) contribute."""
        with self._lock:
            return [
                self._exemplars[key]
                for key in sorted(self._exemplars.keys())
            ]

    # ------------------------------------------------------------------
    # registry export
    # ------------------------------------------------------------------
    def refresh_gauges(self) -> List[WindowSnapshot]:
        """Recompute every window and mirror it into gauge series.

        Called before scraping (``GET /metrics``) so the exported
        gauges describe the windows *now*, not at the last request.
        Returns the snapshots so callers can reuse them for rendering.
        """
        snapshots = self.snapshots()
        registry = self.registry
        for snap in snapshots:
            label = f"{snap.window_seconds:g}s"
            for q in WINDOW_QUANTILES:
                registry.gauge(
                    "x3_serve_window_modeled_latency_seconds",
                    window=label,
                    quantile=snap.quantile_label(q),
                ).set(snap.modeled_quantiles[q])
                registry.gauge(
                    "x3_serve_window_wall_latency_seconds",
                    window=label,
                    quantile=snap.quantile_label(q),
                ).set(snap.wall_quantiles[q])
            registry.gauge(
                "x3_serve_window_requests", window=label
            ).set(float(snap.requests))
            registry.gauge(
                "x3_serve_window_hit_ratio", window=label
            ).set(snap.hit_ratio)
            registry.gauge(
                "x3_serve_window_eviction_churn", window=label
            ).set(float(snap.evictions))
            registry.gauge(
                "x3_serve_window_slo_burn_rate", window=label
            ).set(snap.slo_burn_rate)
        return snapshots
