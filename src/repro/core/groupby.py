"""Grouping primitives shared by the cube algorithms.

The canonical semantics (used by the NAIVE oracle, and what all correct
algorithms must reproduce): at a lattice point, a fact contributes to the
group of every *distinct* key combination of its axis values under the
point's states; within a group a fact counts once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.aggregates import AggregateFunction
from repro.core.bindings import FactRow, FactTable, GroupKey
from repro.core.lattice import LatticePoint

Cuboid = Dict[GroupKey, float]


def group_facts(
    table: FactTable, rows: List[FactRow], point: LatticePoint
) -> Dict[GroupKey, List[FactRow]]:
    """Group facts at a lattice point; a fact appears once per key."""
    groups: Dict[GroupKey, List[FactRow]] = {}
    for row in rows:
        for key in table.key_combinations(row, point):
            groups.setdefault(key, []).append(row)
    return groups


def aggregate_groups(
    groups: Dict[GroupKey, List[FactRow]], fn: AggregateFunction
) -> Cuboid:
    """Finalize grouped facts into a cuboid."""
    out: Cuboid = {}
    for key, members in groups.items():
        state = fn.new()
        for row in members:
            state = fn.add(state, row.measure)
        out[key] = fn.finalize(state)
    return out


def cuboid_from_rows(
    table: FactTable,
    rows: List[FactRow],
    point: LatticePoint,
    fn: AggregateFunction,
) -> Cuboid:
    """Canonical cuboid computation (grouping + aggregation)."""
    return aggregate_groups(group_facts(table, rows, point), fn)


def augmented_keys(
    table: FactTable, row: FactRow, point: LatticePoint
) -> List[Tuple[Optional[str], ...]]:
    """Key combinations *with null padding*: an axis with no value under
    its state contributes ``None`` instead of excluding the fact.  This is
    the "null value group" device of Sec. 3.5, used by top-down roll-ups
    to keep coverage-violating facts representable."""
    per_axis: List[List[Optional[str]]] = []
    for position, states in enumerate(table.lattice.axis_states):
        state = point[position]
        if states.is_dropped(state):
            continue
        values: List[Optional[str]] = list(
            row.values_under(position, state, table.value_sets)
        )
        if not values:
            values = [None]
        per_axis.append(values)
    keys: List[Tuple[Optional[str], ...]] = [()]
    for values in per_axis:
        keys = [key + (value,) for key in keys for value in values]
    return keys


def strip_null_groups(cuboid: Cuboid) -> Cuboid:
    """Drop groups whose key contains a null component (reporting form)."""
    return {
        key: value
        for key, value in cuboid.items()
        if all(component is not None for component in key)
    }
