"""Shared algorithm machinery: execution context and the base class.

Every algorithm runs against an :class:`ExecutionContext` holding its own
cost model and memory budget, and reads the materialized fact table (the
paper's protocol: the witness file is read in, cubing performed, results
written out).  Reading the base data charges page I/O proportional to the
table's entry footprint; operator memory beyond the budget spills through
:func:`repro.cost.sorted_with_cost`.
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.core.bindings import FactRow, FactTable
from repro.core.columnar import ColumnarFactTable
from repro.core.cube import CostSnapshot, CubeResult
from repro.core.lattice import CubeLattice, LatticePoint
from repro.core.packed import PackedCuboid, at_least
from repro.core.properties import PropertyOracle
from repro.cost import (
    CostModel,
    MemoryBudget,
    charge_sort,
    sort_kind,
    sorted_with_cost,
)
from repro.errors import CubeError

DEFAULT_MEMORY_ENTRIES = 50_000
ENTRIES_PER_PAGE = 128


def row_entries(row: FactRow) -> int:
    """Abstract storage footprint of one fact row (in budget entries)."""
    return 1 + sum(len(axis_values) for axis_values in row.axes)


def table_entries(table: FactTable) -> int:
    return sum(row_entries(row) for row in table.rows)


def table_pages(table: FactTable) -> int:
    return max(1, -(-table_entries(table) // ENTRIES_PER_PAGE))


def encode(table: FactTable) -> ColumnarFactTable:
    """The table's dictionary-encoded columns (memoized on the table),
    under one ``columnar.encode`` span."""
    with obs.span(
        "columnar.encode", category="columnar", facts=len(table.rows)
    ):
        return table.columnar()


class ExecutionContext:
    """Per-run cost model, memory budget and property oracle."""

    def __init__(
        self,
        table: FactTable,
        oracle: Optional[PropertyOracle],
        memory_entries: Optional[int],
        min_support: float = 0.0,
        encoding: str = "auto",
    ) -> None:
        self.table = table
        self.min_support = min_support
        self.encoding = encoding
        self.lattice: CubeLattice = table.lattice
        self.cost = CostModel()
        self.budget = MemoryBudget(
            memory_entries or DEFAULT_MEMORY_ENTRIES,
            entries_per_page=ENTRIES_PER_PAGE,
        )
        self.oracle = oracle or PropertyOracle.from_flags(
            table.lattice, False, False
        )
        # Per-run phase counters (base scans, partitions, roll-ups,
        # sorts by kind, ...): plain dict bumps at coarse points, always
        # on, returned as ``CubeResult.phases``.
        self.phases: Dict[str, float] = {}

    def bump(self, phase: str, amount: float = 1) -> None:
        """Count one algorithm phase event (cheap; never per-row)."""
        self.phases[phase] = self.phases.get(phase, 0) + amount

    def count_sort(self, kind: str, items: int) -> None:
        """One ordering pass over ``items`` items, by kind
        (``quicksort`` / ``external`` / ``counting``)."""
        self.bump(f"sorts_{kind}")
        self.bump(f"sorted_items_{kind}", items)

    def sort(
        self,
        items: Sequence[Any],
        key: Optional[Callable[[Any], Any]] = None,
    ) -> List[Any]:
        """:func:`~repro.cost.sorted_with_cost` under this run's budget,
        counted."""
        self.count_sort(sort_kind(len(items), self.budget), len(items))
        return sorted_with_cost(items, self.cost, self.budget, key)

    def charge_sort(self, n: int) -> None:
        """:func:`~repro.cost.charge_sort` under this run's budget,
        counted."""
        self.count_sort(sort_kind(n, self.budget), n)
        charge_sort(n, self.cost, self.budget)

    @property
    def use_columnar(self) -> bool:
        """Should an encoding-capable algorithm take its columnar path?

        ``"auto"`` and ``"columnar"`` both say yes; only an explicit
        ``"dict"`` pins the legacy row path (the duels and differential
        cross-checks rely on this to time both kernels).
        """
        return self.encoding != "dict"

    def encode(self) -> ColumnarFactTable:
        """The table's encoded columns, the encode charged at full CPU
        rate every run: modeled cost never depends on whether the
        memoized encoding was warm."""
        encoded = encode(self.table)
        self.cost.charge_cpu(encoded.encoded_entries)
        return encoded

    def charge_encoded_scan(self, encoded_pages: int) -> None:
        """One sequential pass over the dictionary-encoded columns."""
        self.bump("base_scans")
        self.bump("columnar_scans")
        self.cost.charge_read(encoded_pages)

    def charge_base_scan(self) -> None:
        """One sequential pass over the materialized fact table."""
        self.bump("base_scans")
        self.cost.charge_read(self.base_pages)
        self.cost.charge_cpu(len(self.table.rows))

    def charge_spill(self, entries: int) -> None:
        """Write + eventual re-read of spilled working data."""
        pages = self.budget.pages(entries)
        self.cost.charge_write(pages)
        self.cost.charge_read(pages)

    @cached_property
    def base_pages(self) -> int:
        """Row-form pages of the table, counted on first use: a pass over
        every row that a kernel reading only the encoding never pays."""
        return table_pages(self.table)


class CubeAlgorithm:
    """Base class: subclasses implement :meth:`_compute`."""

    name = "?"
    #: The summarizability properties (Sec. 2) the data must have for the
    #: answer to be right: (), ("disjointness",) or ("disjointness",
    #: "coverage").  The registry's name tuples and DESIGN.md Sec. 5's
    #: "Requires" column are read off this.
    requires: Tuple[str, ...] = ()
    #: The kernels the algorithm has.  ``ExecutionOptions(encoding=)``
    #: chooses only where there are two; otherwise it is ignored.
    encodings: Tuple[str, ...] = ("dict",)

    def run(
        self,
        table: FactTable,
        oracle: Optional[PropertyOracle] = None,
        memory_entries: Optional[int] = None,
        points: Optional[Sequence[LatticePoint]] = None,
        min_support: float = 0.0,
        encoding: str = "auto",
    ) -> CubeResult:
        if min_support > 0 and table.aggregate.function.upper() != "COUNT":
            raise CubeError(
                "iceberg (min_support) pruning is only sound for the "
                "monotone COUNT aggregate"
            )
        context = ExecutionContext(
            table,
            oracle,
            memory_entries,
            min_support=min_support,
            encoding=encoding,
        )
        if points is None:
            wanted: List[LatticePoint] = list(table.lattice.points())
        else:
            wanted = list(points)
            sizes = [s.state_count for s in table.lattice.axis_states]
            for point in wanted:
                if len(point) != len(sizes) or not all(
                    0 <= index < size for index, size in zip(point, sizes)
                ):
                    raise CubeError(
                        f"points entry {tuple(point)!r} is not a point of the "
                        f"lattice (one state index per axis, below {sizes})"
                    )
        begin = time.perf_counter()
        with obs.span(
            f"algo.{self.name}",
            category="algorithm",
            cost=context.cost,
            algorithm=self.name,
            points=len(wanted),
            facts=len(table.rows),
        ) as span:
            cuboids, passes = self._compute(context, wanted)
            span.annotate(passes=passes, **context.phases)
        wall_seconds = time.perf_counter() - begin
        if min_support > 0:
            cuboids = {
                point: at_least(cuboid, min_support)
                for point, cuboid in cuboids.items()
            }
        return CubeResult(
            lattice=table.lattice,
            cuboids=dict(cuboids),
            algorithm=self.name,
            cost=CostSnapshot.from_mapping(
                context.cost.snapshot(), wall_seconds=wall_seconds
            ),
            passes=passes,
            aggregate=table.aggregate.function.upper(),
            phases=context.phases,
        )

    def _compute(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Mapping[LatticePoint, PackedCuboid], int]:
        """Each requested point's cuboid, packed
        (:mod:`repro.core.packed`), and the passes over the base data."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CubeAlgorithm {self.name}>"
