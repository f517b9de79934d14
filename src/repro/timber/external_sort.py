"""Sorting with cost accounting: in-memory quicksort or external merge sort.

The paper: "All data partitioning and sorting used the quicksort for an
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
from typing import Any, Callable, List, Optional, Sequence

from repro import obs
from repro.timber.stats import CostModel, MemoryBudget

SPAN_MIN_ITEMS = 32
"""Sorts below this size are counted but not individually spanned —
BUC's recursion produces thousands of tiny sorts that would drown the
trace without telling a story."""


def quicksort_cost(n: int) -> int:
    """Comparison count charged for an in-memory sort of n items."""
    if n <= 1:
        return 0
    return int(n * math.log2(n)) + n


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
    external = budget is not None and n > budget.capacity_entries
    if obs.enabled():
        kind = "external" if external else "quicksort"
        obs.count("x3_sorts_total", kind=kind)
        obs.count("x3_sorted_items_total", n, kind=kind)
        if external or n >= SPAN_MIN_ITEMS:
            with obs.span(
                "timber.sort",
                category="timber",
                cost=cost,
                n=n,
                kind=kind,
            ):
                if external:
                    return _external_sort(items, cost, budget, key)
                cost.charge_cpu(quicksort_cost(n))
                return sorted(items, key=key)
    if not external:
        cost.charge_cpu(quicksort_cost(n))
        return sorted(items, key=key)
    return _external_sort(items, cost, budget, key)


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
    external = budget is not None and n > budget.capacity_entries
    if obs.enabled():
        kind = "external" if external else "quicksort"
        obs.count("x3_sorts_total", kind=kind)
        obs.count("x3_sorted_items_total", n, kind=kind)
    if not external:
        cost.charge_cpu(quicksort_cost(n))
        return
    assert budget is not None
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


def _external_sort(
    items: Sequence[Any],
    cost: CostModel,
    budget: MemoryBudget,
    key: Optional[Callable[[Any], Any]],
) -> List[Any]:
    _charge_external_sort(len(items), cost, budget)
    return sorted(items, key=key)


def merge_sorted(
    left: List[Any],
    right: List[Any],
    cost: CostModel,
    key: Optional[Callable[[Any], Any]] = None,
) -> List[Any]:
    """Merge two sorted lists, charging one comparison per step."""
    key_fn = key if key is not None else lambda item: item
    out: List[Any] = []
    i = j = 0
    while i < len(left) and j < len(right):
        cost.charge_cpu()
        if key_fn(left[i]) <= key_fn(right[j]):
            out.append(left[i])
            i += 1
        else:
            out.append(right[j])
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    cost.charge_cpu(len(left) - i + len(right) - j)
    return out
