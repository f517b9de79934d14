"""Cuboid materialization under a space budget (paper Sec. 3.6).

"In many cases, we may be better off to materialize some intermediate
cube results.  The incompleteness of coverage directly affects the
computation from these intermediate results."  This module turns that
discussion into an advisor: :func:`select_views` is greedy
benefit-per-space view selection in the spirit of
Harinarayan/Rajaraman/Ullman, *adapted to the XML lattice*: a cuboid can
only serve queries it can soundly derive (drop-only moves, and only when
the property oracle proves it disjoint and covering — otherwise serving
from it would need the fact items kept around, which Sec. 3.6 notes
defeats the purpose).

:class:`repro.serve.CubeServer` serves the choice from its cache:
``server.warm(selection.chosen)`` on a cache of at least
``selection.space_used`` cells makes every chosen cuboid a cache hit,
every point it soundly derives a roll-up, and the rest recomputes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.core.algorithms.columnar_sweep import census
from repro.core.bindings import FactTable
from repro.core.lattice import CubeLattice, LatticePoint
from repro.core.properties import PropertyOracle
from repro.core.rollup import derivable
from repro import obs


@dataclass(frozen=True)
class ViewSelection:
    """Outcome of the advisor."""

    chosen: Tuple[LatticePoint, ...]
    space_used: int
    space_budget: int
    # point -> cheapest sound source among the chosen views (or None
    # when the point must be recomputed from base).
    serving: Dict[LatticePoint, Optional[LatticePoint]] = field(
        default_factory=dict
    )

    def coverage_ratio(self) -> float:
        """Fraction of lattice points servable without touching base."""
        served = sum(
            1 for source in self.serving.values() if source is not None
        )
        return served / len(self.serving) if self.serving else 0.0


def cuboid_sizes(
    table: FactTable,
    lattice: CubeLattice,
    points: Optional[Iterable[LatticePoint]] = None,
) -> Dict[LatticePoint, int]:
    """Exact cell counts per cuboid (the advisor's space estimates and
    the unit of the serving cache's budget).

    One count-only pass of the columnar sweep's prefix trie over
    ``table.columnar()`` (DESIGN.md Sec. 5f): a cuboid's cell count is
    the number of distinct group ids at its leaf.  ``points`` restricts
    the census to a subset of the lattice.
    """
    wanted = list(points if points is not None else lattice.points())
    counts = census(table, wanted)
    return {point: counts[point] for point in wanted}


def _service_cost(
    sizes: Dict[LatticePoint, int],
    base_cost: int,
    chosen: Set[LatticePoint],
    lattice: CubeLattice,
    oracle: PropertyOracle,
    point: LatticePoint,
) -> int:
    """Cost of answering ``point``: cheapest sound chosen source, else
    a base recomputation."""
    best = base_cost
    for source in chosen:
        ok, _ = derivable(lattice, source, point, oracle)
        if ok:
            best = min(best, sizes[source])
    return best


def select_views(
    table: FactTable,
    oracle: PropertyOracle,
    space_budget: int,
    always_include_top: bool = True,
) -> ViewSelection:
    """Greedy view selection: repeatedly materialize the cuboid with the
    best total-service-cost reduction per cell of space, within budget.
    """
    lattice = table.lattice
    points = list(lattice.points())
    with obs.span(
        "materialize.select_views",
        category="materialize",
        budget=space_budget,
        points=len(points),
    ) as span:
        sizes = cuboid_sizes(table, lattice)
        base_cost = max(1, len(table.rows))
        chosen: Set[LatticePoint] = set()
        space_used = 0

        # An empty top cuboid still takes a cell, as in the serving
        # cache, so a cache of ``space_used`` cells holds the choice.
        top_space = max(1, sizes[lattice.top])
        if always_include_top and top_space <= space_budget:
            chosen.add(lattice.top)
            space_used += top_space

        def total_cost() -> int:
            return sum(
                _service_cost(sizes, base_cost, chosen, lattice, oracle, point)
                for point in points
            )

        current = total_cost()
        while True:
            best_gain = 0.0
            best_point: Optional[LatticePoint] = None
            best_cost = current
            for candidate in points:
                if candidate in chosen:
                    continue
                size = sizes[candidate]
                if size == 0 or space_used + size > space_budget:
                    continue
                chosen.add(candidate)
                candidate_cost = total_cost()
                chosen.discard(candidate)
                gain = (current - candidate_cost) / size
                if gain > best_gain:
                    best_gain = gain
                    best_point = candidate
                    best_cost = candidate_cost
            if best_point is None:
                break
            chosen.add(best_point)
            space_used += sizes[best_point]
            current = best_cost

        serving: Dict[LatticePoint, Optional[LatticePoint]] = {}
        for point in points:
            best_source: Optional[LatticePoint] = None
            best_size = base_cost
            for source in chosen:
                ok, _ = derivable(lattice, source, point, oracle)
                if ok and sizes[source] <= best_size:
                    best_source = source
                    best_size = sizes[source]
            serving[point] = best_source
        span.annotate(chosen=len(chosen), space_used=space_used)
    return ViewSelection(
        chosen=tuple(sorted(chosen)),
        space_used=space_used,
        space_budget=space_budget,
        serving=serving,
    )
