"""Property-based soundness: whenever the roll-up checker says a
derivation is safe, performing it must equal direct computation — and
a warmed server kept current by writes must always equal a recompute."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.axes import AxisSpec
from repro.core.bindings import AnnotatedValue, FactRow, FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.lattice import CubeLattice
from repro.core.properties import PropertyOracle
from repro.core.query import Query
from repro.core.rollup import derivable, rollup
from repro.patterns.relaxation import Relaxation
from repro.serve import CubeServer

VALUES = ["u", "v", "w"]


@st.composite
def random_table(draw):
    axes = [
        AxisSpec.from_path(
            "$a", "a", frozenset({Relaxation.LND, Relaxation.PC_AD})
        ),
        AxisSpec.from_path("$b", "b", frozenset({Relaxation.LND})),
    ]
    lattice = CubeLattice(axes)
    rows = []
    for number in range(draw(st.integers(min_value=0, max_value=10))):
        a_values = []
        for value in draw(
            st.lists(st.sampled_from(VALUES), unique=True, max_size=2)
        ):
            a_values.append(
                AnnotatedValue(value, 0b11 if draw(st.booleans()) else 0b10)
            )
        b_values = [
            AnnotatedValue(value, 0b1)
            for value in draw(
                st.lists(st.sampled_from(VALUES), unique=True, max_size=2)
            )
        ]
        rows.append(
            FactRow((0, number), 1.0, (tuple(a_values), tuple(b_values)))
        )
    return FactTable(lattice, rows)


@given(random_table())
@settings(max_examples=50, deadline=None)
def test_derivable_implies_rollup_correct(table):
    cube = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    oracle = PropertyOracle.from_data(table)
    lattice = table.lattice
    for source in lattice.points():
        for target in lattice.points():
            ok, _ = derivable(lattice, source, target, oracle)
            if not ok or source == target:
                continue
            rolled = rollup(cube, source, target, oracle)
            assert rolled == cube.cuboids[target], (
                lattice.describe(source),
                lattice.describe(target),
            )


def warmed_empty(table):
    """A server over an empty copy of ``table`` with every (empty)
    cuboid resident, so the inserts that follow patch them."""
    server = CubeServer(
        FactTable(table.lattice, [], aggregate=table.aggregate),
        PropertyOracle.from_data(table),
        cache_cells=100000,
    )
    server.warm()
    return server


def served(server):
    return {
        point: server.query(Query(point=point)).as_cuboid()
        for point in server.lattice.points()
    }


@given(random_table())
@settings(max_examples=40, deadline=None)
def test_incremental_equals_recompute(table):
    rows = list(table.rows)
    live = warmed_empty(table)
    live.insert(rows)
    reference = compute_cube(
        FactTable(table.lattice, rows, aggregate=table.aggregate),
        ExecutionOptions(algorithm="NAIVE"),
    )
    assert served(live) == reference.cuboids


@given(random_table())
@settings(max_examples=40, deadline=None)
def test_insert_then_delete_all_is_empty(table):
    rows = list(table.rows)
    live = warmed_empty(table)
    live.insert(rows)
    live.delete(rows)
    assert all(not cuboid for cuboid in served(live).values())
