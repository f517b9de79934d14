"""Row-level write helpers for a growing warehouse.

A warehouse keeps growing; recomputing the whole relaxed-cube lattice
on every batch of new facts is wasteful.  :class:`repro.serve.CubeServer`
is the one object that keeps answers current under writes: it folds a
delta into the cached cuboids the aggregate allows exactly and evicts
exactly the lattice points the delta touches.  This module holds the
row-level half it (and the cluster's replicas) write through:

- :func:`ingest_rows` / :func:`retract_rows` — append or remove a
  batch of facts, all-or-nothing;
- :func:`affected_points` — which cuboids a batch touches.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, List, Sequence, Set, Tuple

from repro.core.bindings import FactRow, FactTable
from repro.core.lattice import LatticePoint
from repro.errors import CubeError


def ingest_rows(table: FactTable, rows: Sequence[FactRow]) -> None:
    """Append delta facts to the table (the insert half of maintenance).

    A fact id repeated within the batch or already in the table is a
    :class:`CubeError`, raised before the table changes: such a fact
    could never be deleted again.  The table's dictionaries, once
    computed, are widened with the batch's values.
    """
    incoming = {row.fact_id for row in rows}
    if len(incoming) != len(rows) or not incoming.isdisjoint(
        map(attrgetter("fact_id"), table.rows)
    ):
        raise CubeError("attempted to insert a fact id already present")
    table.rows.extend(rows)
    table.invalidate_columnar()
    table.widen_dictionaries(rows)


def retract_rows(table: FactTable, rows: Sequence[FactRow]) -> None:
    """Remove delta facts from the table, validating they all exist.

    Replaces ``table.rows`` with a fresh list (never mutates the old one
    in place), so concurrent readers holding a snapshot reference keep a
    consistent view — the serving layer relies on this.  The table's
    dictionaries stay as they are: a superset codes the same cells.
    """
    removed_ids = {row.fact_id for row in rows}
    before = len(table.rows)
    remaining = [
        row for row in table.rows if row.fact_id not in removed_ids
    ]
    if before - len(remaining) != len(rows):
        raise CubeError("attempted to delete facts not in the table")
    table.rows = remaining
    table.invalidate_columnar()


def affected_points(
    table: FactTable,
    rows: Sequence[FactRow],
    points: Iterable[LatticePoint],
) -> Set[LatticePoint]:
    """The subset of ``points`` whose cuboids a delta batch touches.

    A fact changes a cuboid iff it participates in it, so points where
    no delta row participates need neither patching nor invalidation —
    this is what lets the serving layer evict *exactly* the affected
    lattice points instead of flushing its whole cache.
    """
    return {
        point
        for point in points
        if any(table.participates(row, point) for row in rows)
    }


def split_rows(
    table: FactTable, initial_fraction: float
) -> Tuple[List[FactRow], List[FactRow]]:
    """Test/benchmark helper: split a table's rows into (initial, delta)."""
    cut = int(len(table.rows) * initial_fraction)
    return table.rows[:cut], table.rows[cut:]
