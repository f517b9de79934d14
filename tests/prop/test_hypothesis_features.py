"""Property-based tests for the extension features: iceberg filtering,
answering from the advisor's warmed choice, and XML export round-trips
on random tables."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.axes import AxisSpec
from repro.core.bindings import AnnotatedValue, FactRow, FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.export import cube_from_xml, cube_to_xml
from repro.core.lattice import CubeLattice
from repro.core.properties import PropertyOracle
from repro.core.query import Query
from repro.patterns.relaxation import Relaxation
from tests.conftest import advised_server

VALUES = ["u", "v", "w", "x"]


@st.composite
def random_table(draw):
    axes = [
        AxisSpec.from_path("$a", "a", frozenset({Relaxation.LND})),
        AxisSpec.from_path("$b", "b", frozenset({Relaxation.LND})),
    ]
    lattice = CubeLattice(axes)
    rows = []
    for number in range(draw(st.integers(min_value=0, max_value=14))):
        axes_values = tuple(
            tuple(
                AnnotatedValue(value, 0b1)
                for value in draw(
                    st.lists(
                        st.sampled_from(VALUES), unique=True, max_size=2
                    )
                )
            )
            for _ in range(2)
        )
        rows.append(FactRow((0, number), 1.0, axes_values))
    return FactTable(lattice, rows)


@given(random_table(), st.integers(min_value=1, max_value=6))
@settings(max_examples=50, deadline=None)
def test_iceberg_equals_postfiltered_full(table, support):
    full = compute_cube(table, ExecutionOptions(algorithm="BUC"))
    iceberg = compute_cube(
        table, ExecutionOptions(algorithm="BUC", min_support=support)
    )
    for point, cuboid in full.cuboids.items():
        expected = {
            key: value for key, value in cuboid.items() if value >= support
        }
        assert iceberg.cuboids[point] == expected


@given(random_table())
@settings(max_examples=40, deadline=None)
def test_materialized_cube_answers_everything(table):
    oracle = PropertyOracle.from_data(table)
    server, _ = advised_server(table, oracle, 500)
    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    for point in table.lattice.points():
        answer = server.query(Query(point=point)).as_cuboid()
        assert answer == reference.cuboids[point]


@given(random_table())
@settings(max_examples=40, deadline=None)
def test_cube_xml_round_trip(table):
    cube = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    again = cube_from_xml(cube_to_xml(cube), table.lattice)
    assert again.same_contents(cube)
