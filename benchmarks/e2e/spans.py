"""The benchmark's own spans and the statistics every module shares.

Spans are recorded by the benchmark around calls into the program's
public functions — name, start, end, parent, and a request id shared by
the spans of one request — kept in memory and written out once at exit.
Spans *inside* ``src/`` are a later issue; nothing here imports the
program's tracers.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence


class SpanRecorder:
    """An append-only in-memory span list.

    A span row is ``(id, parent, request, name, start, end, attrs)``
    with times in ``perf_counter`` seconds; ``parent`` is the id of the
    span that caused it (``None`` for a request root).
    """

    def __init__(self) -> None:
        self.rows: List[tuple] = []

    def add(
        self,
        name: str,
        request: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        span_id = len(self.rows)
        self.rows.append((span_id, parent, request, name, start, end, attrs))
        return span_id

    @contextmanager
    def span(
        self,
        name: str,
        request: str,
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> Iterator[Dict[str, Any]]:
        """Time a block; the yielded dict collects late attributes."""
        late: Dict[str, Any] = dict(attrs)
        start = time.perf_counter()
        try:
            yield late
        finally:
            self.add(
                name, request, start, time.perf_counter(), parent, **late
            )

    # ------------------------------------------------------------------
    def durations(self, name: str, **match: Any) -> List[float]:
        """Durations (seconds) of spans called ``name`` whose attributes
        include ``match``."""
        return [
            end - start
            for _, _, _, span_name, start, end, attrs in self.rows
            if span_name == name
            and all(attrs.get(key) == value for key, value in match.items())
        ]

    def self_times(self, name: str) -> List[float]:
        """Per span called ``name`` that has children: its duration
        minus the part of it they cover."""
        covered: Dict[int, float] = {}
        for _, parent, _, _, start, end, _ in self.rows:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return [
            (end - start) - covered[span_id]
            for span_id, _, _, span_name, start, end, _ in self.rows
            if span_name == name and span_id in covered
        ]

    def to_json(self) -> List[Dict[str, Any]]:
        return [
            {
                "id": span_id,
                "parent": parent,
                "request": request,
                "name": name,
                "start_s": start,
                "end_s": end,
                **({"attrs": attrs} if attrs else {}),
            }
            for span_id, parent, request, name, start, end, attrs
            in self.rows
        ]

    def write(self, path: str, header: Dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": self.to_json()}, handle)
            handle.write("\n")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (the sample value at rank ``ceil(q*n)``),
    so ``n - ceil(q*n)`` samples lie strictly beyond it; 0.0 when
    empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """``statistics.median``; 0.0 when empty (a layer not exercised)."""
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0.0 when the base is 0."""
    return numerator / denominator if denominator else 0.0
