"""Property tests for the columnar encoding and sweep kernel.

Three invariants over arbitrary generated fact tables (multi-valued
axes, missing values, duplicate annotations, unicode labels):

- encode -> decode is the identity, row for row, annotation for
  annotation (the encoding is lossless);
- ``key_combinations`` / ``participates`` / ``values_under`` parity
  holds row-by-row against the dict-path :class:`FactTable`;
- the COLUMNAR sweep is bit-identical to serial NAIVE on every lattice
  point, for COUNT and for float-folding aggregates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregateSpec
from repro.core.axes import AxisSpec
from repro.core.bindings import AnnotatedValue, FactRow, FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.lattice import CubeLattice
from repro.patterns.relaxation import Relaxation

#: Unicode-heavy label pool: combining marks, CJK, case-folding traps.
VALUES = ["v0", "café", "naïve", "日本語", "ẞharp", "v0 "]


@st.composite
def random_fact_table(draw, aggregate=None):
    """A random annotated fact table over 2 axes, one of which permits
    PC-AD (so masks matter), with duplicate annotations allowed."""
    axes = [
        AxisSpec.from_path(
            "$a", "a", frozenset({Relaxation.LND, Relaxation.PC_AD})
        ),
        AxisSpec.from_path("$b", "b", frozenset({Relaxation.LND})),
    ]
    lattice = CubeLattice(axes)
    n_rows = draw(st.integers(min_value=0, max_value=10))
    rows = []
    for number in range(n_rows):
        # Duplicates permitted (unique=False): the same value can be
        # annotated twice with different masks, as real extraction
        # produces for a value reachable along two paths.
        a_values = []
        for value in draw(
            st.lists(st.sampled_from(VALUES), max_size=3)
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
                fact_id=(1, number),
                measure=draw(st.integers(0, 40)) * 0.125,
                axes=(tuple(a_values), tuple(b_values)),
            )
        )
    return FactTable(lattice, rows, aggregate)


@given(random_fact_table())
@settings(max_examples=60, deadline=None)
def test_roundtrip_is_lossless(table):
    encoded = table.columnar()
    assert encoded.n_rows == len(table.rows)
    for index, row in enumerate(table.rows):
        assert encoded.decode_row(index) == row
    assert encoded.to_fact_table().rows == table.rows


@given(random_fact_table())
@settings(max_examples=60, deadline=None)
def test_key_combinations_parity_row_by_row(table):
    encoded = table.columnar()
    for point in table.lattice.points():
        for index, row in enumerate(table.rows):
            assert encoded.key_combinations(index, point) == (
                table.key_combinations(row, point)
            ), (index, point)
            assert encoded.participates(index, point) == (
                table.participates(row, point)
            ), (index, point)


@given(random_fact_table())
@settings(max_examples=60, deadline=None)
def test_values_under_parity(table):
    encoded = table.columnar()
    for index, row in enumerate(table.rows):
        for position, states in enumerate(table.lattice.axis_states):
            for state in range(len(states.states)):
                assert encoded.values_under(
                    index, position, state
                ) == row.values_under(position, state)


@given(random_fact_table())
@settings(max_examples=60, deadline=None)
def test_sweep_bit_identical_to_naive_count(table):
    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    result = compute_cube(table, ExecutionOptions(algorithm="COLUMNAR"))
    assert result.cuboids == reference.cuboids


@given(
    random_fact_table(aggregate=AggregateSpec("AVG", "@m")),
    st.sampled_from(["SUM", "MIN", "MAX", "AVG"]),
)
@settings(max_examples=40, deadline=None)
def test_sweep_bit_identical_to_naive_float_aggregates(table, function):
    table = FactTable(
        table.lattice, table.rows, AggregateSpec(function, "@m")
    )
    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    result = compute_cube(table, ExecutionOptions(algorithm="COLUMNAR"))
    assert result.cuboids == reference.cuboids


@given(random_fact_table(), st.integers(min_value=1, max_value=12))
@settings(max_examples=30, deadline=None)
def test_sweep_correct_under_any_memory_budget(table, budget):
    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    result = compute_cube(
        table,
        ExecutionOptions(algorithm="COLUMNAR", memory_entries=budget),
    )
    assert result.cuboids == reference.cuboids
