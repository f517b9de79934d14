"""Property-based tests on the cube core: random annotated fact tables
-> all correct algorithms agree; optimized algorithms agree exactly when
their property holds; extraction invariants hold on random documents."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.axes import AxisSpec
from repro.core.bindings import AnnotatedValue, FactRow, FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.extract import extract_fact_table
from repro.core.lattice import CubeLattice
from repro.core.properties import PropertyOracle
from repro.core.query import X3Query
from repro.patterns.relaxation import Relaxation
from repro.xmlmodel.nodes import Document, Element

VALUES = ["v0", "v1", "v2"]


@st.composite
def random_fact_table(draw):
    """A random annotated fact table over 2 axes, one of which permits
    PC-AD (so masks matter)."""
    axes = [
        AxisSpec.from_path(
            "$a", "a", frozenset({Relaxation.LND, Relaxation.PC_AD})
        ),
        AxisSpec.from_path("$b", "b", frozenset({Relaxation.LND})),
    ]
    lattice = CubeLattice(axes)
    n_rows = draw(st.integers(min_value=0, max_value=12))
    rows = []
    for number in range(n_rows):
        # Axis $a has structural states [rigid, PC-AD]; a value's mask
        # must be upward-closed: rigid implies PC-AD.
        a_values = []
        for value in draw(
            st.lists(st.sampled_from(VALUES), unique=True, max_size=2)
        ):
            rigid = draw(st.booleans())
            mask = 0b11 if rigid else 0b10
            a_values.append(AnnotatedValue(value, mask))
        b_values = [
            AnnotatedValue(value, 0b1)
            for value in draw(
                st.lists(st.sampled_from(VALUES), unique=True, max_size=2)
            )
        ]
        rows.append(
            FactRow(
                fact_id=(0, number),
                measure=float(draw(st.integers(0, 5))),
                axes=(tuple(a_values), tuple(b_values)),
            )
        )
    return FactTable(lattice, rows)


@given(random_fact_table())
@settings(max_examples=50, deadline=None)
def test_always_correct_algorithms_agree(table):
    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    oracle = PropertyOracle.from_data(table)
    for name in ("COUNTER", "BUC", "TD", "BUCCUST", "TDCUST"):
        result = compute_cube(table, ExecutionOptions(algorithm=name, oracle=oracle))
        assert result.same_contents(reference), (
            name, result.diff(reference)[:3],
        )


@given(random_fact_table())
@settings(max_examples=50, deadline=None)
def test_optimized_agree_exactly_when_property_holds(table):
    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    oracle = PropertyOracle.from_data(table)
    if oracle.globally_disjoint():
        for name in ("BUCOPT", "TDOPT"):
            assert compute_cube(
                table, ExecutionOptions(algorithm=name)
            ).same_contents(reference), name
    if oracle.globally_disjoint() and oracle.globally_covered():
        # All-rigid masks only: structural twin assumption also safe when
        # every value binds rigidly.
        all_rigid = all(
            value.matches(0)
            for row in table.rows
            for value in row.axes[0]
        )
        if all_rigid:
            assert compute_cube(
                table, ExecutionOptions(algorithm="TDOPTALL")
            ).same_contents(reference)


@given(random_fact_table())
@settings(max_examples=50, deadline=None)
def test_bottom_cuboid_counts_all_facts(table):
    cube = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    bottom = cube.cuboids[table.lattice.bottom]
    if table.rows:
        fn = table.aggregate.fn
        state = fn.new()
        for row in table.rows:
            state = fn.add(state, row.measure)
        assert bottom == {(): fn.finalize(state)}
    else:
        assert bottom == {}


@given(random_fact_table())
@settings(max_examples=50, deadline=None)
def test_cuboid_totals_monotone_under_relaxation(table):
    """Relaxing (coarsening) never loses facts: the set of facts that
    participate grows along lattice edges."""
    for point in table.lattice.points():
        for succ in table.lattice.successors(point):
            for row in table.rows:
                if table.participates(row, point):
                    assert table.participates(row, succ)


# ----------------------------------------------------------------------
# extraction invariants on random documents
# ----------------------------------------------------------------------

@st.composite
def random_warehouse(draw):
    root = Element("w")
    for number in range(draw(st.integers(min_value=1, max_value=8))):
        fact = root.make_child("f", attrs={"id": str(number)})
        for tag in ("a", "b"):
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                holder = fact
                if draw(st.booleans()):
                    holder = fact.make_child("wrap")
                holder.make_child(tag, text=draw(st.sampled_from(VALUES)))
    return Document(root)


WAREHOUSE_QUERY = X3Query(
    fact_tag="f",
    axes=(
        AxisSpec.from_path(
            "$a", "a", frozenset({Relaxation.LND, Relaxation.PC_AD})
        ),
        AxisSpec.from_path("$b", "b", frozenset({Relaxation.LND})),
    ),
    fact_id_path="@id",
)


@given(random_warehouse())
@settings(max_examples=50, deadline=None)
def test_extraction_masks_upward_closed(doc):
    table = extract_fact_table(doc, WAREHOUSE_QUERY)
    for row in table.rows:
        for position, states in enumerate(table.lattice.axis_states):
            for value in row.axes[position]:
                for i, si in enumerate(states.states):
                    for j, sj in enumerate(states.states):
                        if si <= sj and value.matches(i):
                            assert value.matches(j)


@given(random_warehouse())
@settings(max_examples=50, deadline=None)
def test_extraction_rigid_values_subset_of_relaxed(doc):
    table = extract_fact_table(doc, WAREHOUSE_QUERY)
    for row in table.rows:
        rigid = set(row.values_under(0, 0))
        relaxed = set(row.values_under(0, 1))
        assert rigid <= relaxed
