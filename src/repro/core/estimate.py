"""Analytic cost estimation: predict algorithm costs without running.

Sec. 4.6 concludes that "summarizability together with cube
characteristics determine the choice of the algorithm".  This module
makes that determination *quantitative*: from cheap statistics of the
fact table (fact count, per-axis cardinalities, multiplicities and
coverage, lattice shape) it predicts each algorithm's simulated cost, so
a planner can rank the line-up before paying for the cube.  The
statistics are read off the state views of the columnar encoding the
kernels run on, not from a scan of the rows.

The estimates model the same structure the algorithms charge:

- COUNTER: one row-form scan doing ``sum over points of combos(row)``
  increments (its price list; the increments run on the columnar sweep),
  times the number of memory passes the estimated cell count forces;
- BUC: total partition traffic ~ sum over lattice prefixes of expected
  partition sizes, collapsing with cube sparsity — priced at the
  columnar kernel's rates (vectorized gathers over encoded columns, no
  partition sorts, scalar replication bookkeeping only on the safe path);
- TD: per point, a scan of the encoded columns + the linear counting
  bucketing of the group-id column;
- TDOPT/TDOPTALL: encoded builds for the all-kept (resp. top) points
  plus group-row roll-ups for the rest.

The BUC/TD models track the *columnar* execution paths because that is
what ``encoding="auto"`` runs; the dict path exists for duels and is not
what a planner would schedule.

The test suite checks *ranking* fidelity (who is predicted to win vs.
who actually wins), not absolute error — the same standard the paper's
figures are reproduced under.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.core.algorithms.base import DEFAULT_MEMORY_ENTRIES, ENTRIES_PER_PAGE
from repro.core.bindings import FactTable
from repro.core.columnar import COLUMNAR_ENTRIES_PER_PAGE, VECTOR_LANES
from repro.core.lattice import LatticePoint
from repro.cost import CostModel

CPU_COST = CostModel().cpu_op_cost
IO_COST = CostModel().page_io_cost


@dataclass(frozen=True)
class TableStatistics:
    """Per-(axis, state) statistics of a fact table."""

    n_facts: int
    base_pages: int
    # per axis position, per structural state index:
    cardinality: Dict[int, Dict[int, int]]       # distinct values
    avg_multiplicity: Dict[int, Dict[int, float]]  # values per fact
    coverage_rate: Dict[int, Dict[int, float]]     # P(fact binds axis)

    @staticmethod
    def collect(table: FactTable) -> "TableStatistics":
        """Read off the table's columnar encoding, one state view per
        (axis, state)."""
        encoded = table.columnar()
        cardinality: Dict[int, Dict[int, int]] = {}
        multiplicity: Dict[int, Dict[int, float]] = {}
        coverage: Dict[int, Dict[int, float]] = {}
        n = max(1, encoded.n_rows)
        for position, states in enumerate(table.lattice.axis_states):
            cardinality[position] = {}
            multiplicity[position] = {}
            coverage[position] = {}
            for state in range(len(states.states)):
                stats = encoded.statistics(position, state)
                cardinality[position][state] = stats.cardinality
                multiplicity[position][state] = (
                    stats.values / stats.bound_rows if stats.bound_rows else 0.0
                )
                coverage[position][state] = stats.bound_rows / n
        # ``table_entries``: one entry per row and per annotated value.
        row_entries = encoded.n_rows + sum(
            len(column.codes) for column in encoded.columns
        )
        return TableStatistics(
            n_facts=encoded.n_rows,
            base_pages=max(1, -(-row_entries // ENTRIES_PER_PAGE)),
            cardinality=cardinality,
            avg_multiplicity=multiplicity,
            coverage_rate=coverage,
        )


class CostEstimator:
    """Predict per-algorithm simulated seconds from statistics."""

    def __init__(
        self,
        table: FactTable,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        self.table = table
        self.lattice = table.lattice
        self.stats = TableStatistics.collect(table)
        self.memory_entries = memory_entries

    # ------------------------------------------------------------------
    # per-point expectations
    # ------------------------------------------------------------------
    def expected_rows(self, point: LatticePoint) -> float:
        """Expected placements (fact, key) at a point."""
        total = float(self.stats.n_facts)
        for position, states in enumerate(self.lattice.axis_states):
            state = point[position]
            if states.is_dropped(state):
                continue
            total *= self.stats.coverage_rate[position][state]
            total *= max(
                1.0, self.stats.avg_multiplicity[position][state]
            )
        return total

    def expected_cells(self, point: LatticePoint) -> float:
        """Expected distinct groups at a point (capped by placements)."""
        domain = 1.0
        for position, states in enumerate(self.lattice.axis_states):
            state = point[position]
            if states.is_dropped(state):
                continue
            domain *= max(1, self.stats.cardinality[position][state])
        return min(domain, max(1.0, self.expected_rows(point)))

    def total_cells(self) -> float:
        return sum(
            self.expected_cells(point) for point in self.lattice.points()
        )

    # ------------------------------------------------------------------
    # algorithm models
    # ------------------------------------------------------------------
    def estimate(self, algorithm: str) -> float:
        name = algorithm.upper()
        if name == "COUNTER":
            return self._counter()
        if name in ("BUC", "BUCOPT", "BUCCUST"):
            return self._buc(optimized=name != "BUC")
        if name == "TD":
            return self._td()
        if name in ("TDOPT", "TDCUST"):
            return self._tdopt()
        if name == "TDOPTALL":
            return self._tdoptall()
        raise ValueError(f"no cost model for {algorithm!r}")

    def rank(self, algorithms: List[str]) -> List[str]:
        """Algorithms sorted by predicted cost, cheapest first."""
        return sorted(algorithms, key=self.estimate)

    # -- counter -------------------------------------------------------
    def _counter(self) -> float:
        increments = sum(
            self.expected_rows(point) for point in self.lattice.points()
        )
        cells = self.total_cells()
        passes = max(1.0, math.ceil(cells / self.memory_entries))
        io = self.stats.base_pages * passes
        spill = (
            2 * (self.memory_entries / ENTRIES_PER_PAGE) * (passes - 1)
        )
        return increments * CPU_COST + (io + spill) * IO_COST

    # -- columnar encoding, shared by the BUC/TD models ----------------
    def _encoded_entries(self) -> float:
        """Entry footprint of the dictionary-encoded columns: one per row
        plus one code per annotated value."""
        values_per_row = 1.0 + sum(
            max(1.0, self.stats.avg_multiplicity[position].get(0, 1.0))
            for position in range(self.lattice.axis_count)
        )
        return self.stats.n_facts * values_per_row

    def _encoded_pages(self) -> float:
        return max(
            1.0, self._encoded_entries() / COLUMNAR_ENTRIES_PER_PAGE
        )

    def _encode_cost(self) -> float:
        """Building (or re-charging) the encoding: one CPU op per entry."""
        return self._encoded_entries() * CPU_COST

    # -- bottom-up -----------------------------------------------------
    def _buc(self, optimized: bool) -> float:
        # Partition traffic: every group of every cuboid is aggregated
        # from its placements once.  The columnar kernel buckets by
        # dictionary code (a counting sort — no comparison sorts) with
        # one vectorized gather op per VECTOR_LANES placements; the safe
        # path adds two scalar replication-bookkeeping ops per placement.
        traffic = sum(
            self.expected_rows(point) for point in self.lattice.points()
        )
        per_row = 1.0 / VECTOR_LANES + (0.0 if optimized else 2.0)
        return (
            self._encode_cost()
            + traffic * per_row * CPU_COST
            + self._encoded_pages() * IO_COST
        )

    # -- top-down ------------------------------------------------------
    def _sort_cost(self, rows: float) -> float:
        if rows <= 1:
            return 0.0
        cpu = rows * math.log2(max(2, rows))
        if rows <= self.memory_entries:
            return cpu * CPU_COST
        pages = rows / ENTRIES_PER_PAGE
        return cpu * CPU_COST + 3 * pages * IO_COST

    def _build_cost(self, rows: float, identity_ops: float) -> float:
        """One from-base columnar build: an encoded scan, a group-id
        extension per axis, the linear counting-sort bucketing of the
        gid column (spilled past the memory budget), and the safe
        path's scalar identity tracking."""
        extends = self.lattice.axis_count * (
            self.stats.n_facts / VECTOR_LANES
        )
        spill = (
            2 * (rows / ENTRIES_PER_PAGE) * IO_COST
            if rows > self.memory_entries
            else 0.0
        )
        return (
            self._encoded_pages() * IO_COST
            + (extends + (1.0 + identity_ops) * rows) * CPU_COST
            + spill
        )

    def _td(self) -> float:
        total = self._encode_cost()
        for point in self.lattice.points():
            rows = self.expected_rows(point)
            total += self._build_cost(rows, identity_ops=1.0)
        return total

    def _all_kept_points(self) -> List[LatticePoint]:
        return [
            point
            for point in self.lattice.points()
            if len(self.lattice.kept_axes(point)) == self.lattice.axis_count
        ]

    def _tdopt(self) -> float:
        total = self._encode_cost()
        for point in self._all_kept_points():
            rows = self.expected_rows(point)
            total += self._build_cost(rows, identity_ops=0.0)
        for point in self.lattice.points():
            if len(self.lattice.kept_axes(point)) == self.lattice.axis_count:
                continue
            cells = self.expected_cells(point)
            total += self._sort_cost(cells) + cells * CPU_COST
        return total

    def _tdoptall(self) -> float:
        top_rows = self.expected_rows(self.lattice.top)
        total = self._encode_cost()
        total += self._build_cost(top_rows, identity_ops=0.0)
        for point in self.lattice.points():
            if point == self.lattice.top:
                continue
            cells = self.expected_cells(point)
            total += self._sort_cost(cells) + cells * CPU_COST
        return total
