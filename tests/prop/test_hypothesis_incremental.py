"""Property-based tests for IncrementalCube deletion support.

Deletion is defined for the invertible aggregates (COUNT/SUM/AVG): an
insert-then-delete round trip must land exactly on the recomputed cube
of the surviving facts, fully-retracted groups must vanish from every
cuboid, and the non-invertible aggregates (MIN/MAX) must refuse.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregateSpec
from repro.core.axes import AxisSpec
from repro.core.bindings import AnnotatedValue, FactRow, FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.incremental import IncrementalCube
from repro.core.lattice import CubeLattice
from repro.errors import CubeError
from repro.patterns.relaxation import Relaxation

VALUES = ["u", "v", "w"]


def _axes():
    return [
        AxisSpec.from_path("$a", "a", frozenset({Relaxation.LND})),
        AxisSpec.from_path("$b", "b", frozenset({Relaxation.LND})),
    ]


def _spec(function):
    if function == "COUNT":
        return AggregateSpec()
    return AggregateSpec(function=function, measure_path="@m")


@st.composite
def rows_strategy(draw, min_size=0, max_size=10, id_offset=0):
    """Fact rows with unique ids and integer-valued measures (so float
    subtraction in deletion is exact)."""
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    rows = []
    for number in range(count):
        axes_values = tuple(
            tuple(
                AnnotatedValue(value, 0b1)
                for value in draw(
                    st.lists(st.sampled_from(VALUES), unique=True, max_size=2)
                )
            )
            for _ in range(2)
        )
        measure = float(draw(st.integers(min_value=0, max_value=9)))
        rows.append(FactRow((0, id_offset + number), measure, axes_values))
    return rows


@given(
    initial=rows_strategy(max_size=8),
    delta=rows_strategy(min_size=1, max_size=6, id_offset=1000),
    function=st.sampled_from(["COUNT", "SUM", "AVG"]),
)
@settings(max_examples=40, deadline=None)
def test_insert_then_delete_round_trips(initial, delta, function):
    lattice = CubeLattice(_axes())
    table = FactTable(lattice, list(initial), aggregate=_spec(function))
    live = IncrementalCube(table)
    live.insert(list(delta))
    live.delete(list(delta))

    reference_table = FactTable(
        CubeLattice(_axes()), list(initial), aggregate=_spec(function)
    )
    reference = compute_cube(reference_table, ExecutionOptions(algorithm="NAIVE"))
    maintained = live.as_result()
    for point in lattice.points():
        assert maintained.cuboids[point] == reference.cuboids[point]
    assert live.applied_rows == len(initial)


@given(rows=rows_strategy(min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_full_retraction_empties_every_cuboid(rows):
    lattice = CubeLattice(_axes())
    table = FactTable(lattice, list(rows), aggregate=_spec("SUM"))
    live = IncrementalCube(table)
    live.delete(list(rows))
    for point in lattice.points():
        assert live.cuboid(point) == {}
    assert live.applied_rows == 0
    assert live.table.rows == []


@given(
    rows=rows_strategy(min_size=1, max_size=6),
    function=st.sampled_from(["MIN", "MAX"]),
)
@settings(max_examples=20, deadline=None)
def test_non_invertible_deletion_refused(rows, function):
    lattice = CubeLattice(_axes())
    table = FactTable(lattice, list(rows), aggregate=_spec(function))
    live = IncrementalCube(table)
    with pytest.raises(CubeError):
        live.delete([rows[0]])
    # the refusal must not have mutated the table
    assert len(live.table.rows) == len(rows)


@given(
    rows=rows_strategy(min_size=2, max_size=8),
    function=st.sampled_from(["COUNT", "SUM", "AVG"]),
)
@settings(max_examples=30, deadline=None)
def test_partial_deletion_matches_recompute(rows, function):
    """Deleting an arbitrary prefix leaves exactly the suffix's cube."""
    cut = len(rows) // 2
    doomed, kept = rows[:cut], rows[cut:]
    if not doomed:
        return
    lattice = CubeLattice(_axes())
    table = FactTable(lattice, list(rows), aggregate=_spec(function))
    live = IncrementalCube(table)
    live.delete(list(doomed))

    reference = compute_cube(
        FactTable(CubeLattice(_axes()), list(kept), aggregate=_spec(function)),
        ExecutionOptions(algorithm="NAIVE"),
    )
    for point in lattice.points():
        assert live.cuboid(point) == reference.cuboids[point]
