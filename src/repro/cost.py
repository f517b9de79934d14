"""The deterministic cost model every figure charges, and sorting with it.

The paper reports cold-cache wall-clock seconds on a 2007 laptop; absolute
numbers are not reproducible, but the *shape* of every figure is driven by
two quantities that are: the number of page I/Os and the number of CPU
operations (comparisons, hash probes, counter updates).  The
:class:`CostModel` charges both and converts them into *simulated seconds*
with constants calibrated so that one random 8 KB page I/O costs about four
orders of magnitude more than one in-memory operation — the same regime as
the paper's disk-resident TIMBER installation.  A :class:`MemoryBudget`
bounds each algorithm's working set; what does not fit spills.

Sorting: "All data partitioning and sorting used the quicksort for an
in-memory sort, and the mergesort for an external sort."  The top-down
cube algorithms are dominated by sorting, and their meltdown when coverage
fails comes from the *number* of (external) sorts, so getting the cost of
a sort right matters more than its wall-clock speed.
:func:`sorted_with_cost` picks the strategy from the memory budget:

- the run fits in memory: quicksort, charged ``n log2 n`` comparisons;
- otherwise: external merge sort — runs of budget size are sorted and
  spilled (page writes), then merged in passes limited by the fan-in the
  budget allows (page reads + writes per pass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import obs

SPAN_MIN_ITEMS = 32
"""Sorts below this size are not individually spanned — BUC's recursion
produces thousands of tiny sorts that would drown the trace without
telling a story.  A cube run counts every sort in its phases
(``ExecutionContext.sort``), whatever its size."""


@dataclass
class IOStats:
    """Page I/O counters fed by the external sort and the base scans."""

    page_reads: int = 0
    page_writes: int = 0

    def reset(self) -> None:
        self.page_reads = 0
        self.page_writes = 0

    def snapshot(self) -> Dict[str, int]:
        return {"page_reads": self.page_reads, "page_writes": self.page_writes}

    @property
    def total_io(self) -> int:
        return self.page_reads + self.page_writes


@dataclass
class CostModel:
    """Deterministic cost accounting: CPU operations + page I/O.

    Attributes:
        cpu_op_cost: simulated seconds per elementary CPU operation.
        page_io_cost: simulated seconds per page read or write.
        cpu_ops: operations charged so far.
        io: the page I/O charged so far.
    """

    cpu_op_cost: float = 2e-7
    page_io_cost: float = 2e-3
    cpu_ops: int = 0
    io: IOStats = field(default_factory=IOStats)

    def charge_cpu(self, ops: int = 1) -> None:
        """Charge elementary CPU operations (comparisons, probes...)."""
        self.cpu_ops += ops

    def charge_read(self, pages: int = 1) -> None:
        self.io.page_reads += pages

    def charge_write(self, pages: int = 1) -> None:
        self.io.page_writes += pages

    def simulated_seconds(self) -> float:
        """Convert charged work into simulated wall-clock seconds."""
        return self.cpu_ops * self.cpu_op_cost + self.io.total_io * self.page_io_cost

    def reset(self) -> None:
        self.cpu_ops = 0
        self.io.reset()

    def snapshot(self) -> Dict[str, float]:
        out: Dict[str, float] = {"cpu_ops": float(self.cpu_ops)}
        out.update({k: float(v) for k, v in self.io.snapshot().items()})
        out["simulated_seconds"] = self.simulated_seconds()
        return out


class MemoryBudget:
    """Tracks in-memory working-set size against a budget.

    The unit is an abstract *entry* (a counter cell, a fact row held in
    memory, a sort buffer slot); page-sized structures convert via
    ``entries_per_page``.  A sort larger than ``capacity_entries`` spills
    (:func:`sorted_with_cost`); the counter algorithms split their
    counters into passes of at most ``capacity_entries`` cells.
    """

    def __init__(
        self, capacity_entries: int, entries_per_page: int = 128
    ) -> None:
        if capacity_entries <= 0:
            raise ValueError("memory budget must be positive")
        self.capacity_entries = capacity_entries
        self.entries_per_page = entries_per_page
        self.used_entries = 0

    def acquire(self, entries: int) -> None:
        self.used_entries += entries

    def release_all(self) -> None:
        self.used_entries = 0

    def pages(self, entries: Optional[int] = None) -> int:
        """How many pages the given entry count occupies (ceil)."""
        count = self.used_entries if entries is None else entries
        return -(-count // self.entries_per_page)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemoryBudget {self.used_entries}/{self.capacity_entries}>"


def quicksort_cost(n: int) -> int:
    """Comparison count charged for an in-memory sort of n items."""
    if n <= 1:
        return 0
    return int(n * math.log2(n)) + n


def sort_kind(n: int, budget: Optional[MemoryBudget]) -> str:
    """How ``n`` items are sorted under ``budget``: ``"external"`` when
    they outgrow it, else ``"quicksort"``."""
    if budget is not None and n > budget.capacity_entries:
        return "external"
    return "quicksort"


def sorted_with_cost(
    items: Sequence[Any],
    cost: CostModel,
    budget: Optional[MemoryBudget] = None,
    key: Optional[Callable[[Any], Any]] = None,
) -> List[Any]:
    """Sort ``items``, charging the cost model appropriately.

    The actual ordering is produced by Python's sort (guaranteeing
    correctness); the *charges* reflect quicksort or external merge sort
    depending on whether ``items`` fits the memory budget.

    Returns a new sorted list.
    """
    n = len(items)
    kind = sort_kind(n, budget)
    spill = budget if kind == "external" else None
    if obs.enabled() and (spill is not None or n >= SPAN_MIN_ITEMS):
        with obs.span("cost.sort", category="cost", cost=cost, n=n, kind=kind):
            return _sorted(items, cost, spill, key)
    return _sorted(items, cost, spill, key)


def _sorted(
    items: Sequence[Any],
    cost: CostModel,
    spill: Optional[MemoryBudget],
    key: Optional[Callable[[Any], Any]],
) -> List[Any]:
    """Sort, charging quicksort, or the external merge sort over ``spill``."""
    if spill is None:
        cost.charge_cpu(quicksort_cost(len(items)))
    else:
        _charge_external_sort(len(items), cost, spill)
    return sorted(items, key=key)


def charge_sort(
    n: int,
    cost: CostModel,
    budget: Optional[MemoryBudget] = None,
) -> None:
    """Charge the modeled cost of sorting ``n`` items without sorting.

    The columnar top-down kernels group by integer group id through a
    hash fold for the *physical* work, but the paper's algorithm (and the
    cost this repo models) sorts — so grouping a gid column charges
    exactly what :func:`sorted_with_cost` would: an in-memory quicksort
    when the column fits the budget, the external merge-sort spill
    cascade (page writes + reads per pass) when it does not.
    """
    if budget is None or n <= budget.capacity_entries:
        cost.charge_cpu(quicksort_cost(n))
        return
    _charge_external_sort(n, cost, budget)


def _charge_external_sort(
    n: int, cost: CostModel, budget: MemoryBudget
) -> None:
    """The external merge sort's charging schedule (runs, then passes)."""
    run_size = max(1, budget.capacity_entries)
    num_runs = -(-n // run_size)

    # Run formation: read input once, sort each run in memory, spill it.
    for _ in range(num_runs):
        cost.charge_cpu(quicksort_cost(min(run_size, n)))
    total_pages = budget.pages(n)
    cost.charge_read(total_pages)
    cost.charge_write(total_pages)

    # Merge passes: fan-in limited by budget (one page per input run plus
    # one output page).
    fan_in = max(2, budget.capacity_entries // budget.entries_per_page - 1)
    runs = num_runs
    while runs > 1:
        cost.charge_read(total_pages)
        cost.charge_write(total_pages)
        cost.charge_cpu(n * max(1, int(math.log2(min(fan_in, runs)))))
        runs = -(-runs // fan_in)

    # Final pass is read back by the consumer; charge the read here so a
    # sort is never free.
    cost.charge_read(total_pages)
