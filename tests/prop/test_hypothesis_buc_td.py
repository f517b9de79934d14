"""Property tests for the columnar BUC and TD kernels.

Parity invariants over arbitrary generated fact tables (multi-valued
axes, missing values, duplicate annotations, unicode labels):

- the columnar kernel of every BUC/TD family member is bit-identical to
  its own legacy dict path (same algorithm, same oracle, only the
  encoding flips);
- columnar BUC and TD are bit-identical to serial NAIVE for COUNT and
  the float-folding aggregates;
- the answers survive any memory budget (spill path) and a truthful or
  denying property oracle on the CUST variants;
- the BUC family returns packed cuboids in wire order, equal to NAIVE's,
  on both kernels, whichever container holds the codes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregateSpec
from repro.core.bindings import FactRow, FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.packed import PackedCuboid, as_codes
from repro.core.properties import PropertyOracle
from tests.core.test_packed import LIMITS, code_limit
from tests.prop.test_hypothesis_columnar import random_fact_table


@given(random_fact_table(), st.sampled_from(["BUC", "TD"]))
@settings(max_examples=50, deadline=None)
def test_columnar_kernel_matches_dict_path(table, algorithm):
    dict_run = compute_cube(
        table, ExecutionOptions(algorithm=algorithm, encoding="dict")
    )
    columnar_run = compute_cube(
        table, ExecutionOptions(algorithm=algorithm, encoding="columnar")
    )
    assert columnar_run.cuboids == dict_run.cuboids


@given(random_fact_table(), st.sampled_from(["BUC", "TD"]))
@settings(max_examples=50, deadline=None)
def test_columnar_kernel_bit_identical_to_naive(table, algorithm):
    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    result = compute_cube(
        table, ExecutionOptions(algorithm=algorithm, encoding="columnar")
    )
    assert result.cuboids == reference.cuboids


@given(
    random_fact_table(aggregate=AggregateSpec("AVG", "@m")),
    st.sampled_from(["BUC", "TD"]),
    st.sampled_from(["SUM", "MIN", "MAX", "AVG"]),
)
@settings(max_examples=30, deadline=None)
def test_float_aggregates_bit_identical_to_naive(table, algorithm, function):
    table = FactTable(
        table.lattice, table.rows, AggregateSpec(function, "@m")
    )
    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    result = compute_cube(
        table, ExecutionOptions(algorithm=algorithm, encoding="columnar")
    )
    assert result.cuboids == reference.cuboids


@given(
    random_fact_table(),
    st.sampled_from(["BUC", "TD"]),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=30, deadline=None)
def test_correct_under_any_memory_budget(table, algorithm, budget):
    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    result = compute_cube(
        table,
        ExecutionOptions(
            algorithm=algorithm, encoding="columnar", memory_entries=budget
        ),
    )
    assert result.cuboids == reference.cuboids


@given(
    random_fact_table(),
    st.sampled_from(["BUCCUST", "TDCUST"]),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_cust_kernels_with_any_oracle_verdict(table, algorithm, truthful):
    """CUST kernels stay exact whether the oracle grants (data-derived,
    so only where the properties actually hold) or denies everything —
    the verdict only picks the plan."""
    if truthful:
        oracle = PropertyOracle.from_data(table)
    else:
        oracle = PropertyOracle.from_flags(table.lattice, False, False)
    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    result = compute_cube(
        table,
        ExecutionOptions(
            algorithm=algorithm, oracle=oracle, encoding="columnar"
        ),
    )
    assert result.cuboids == reference.cuboids


def disjoint(table):
    """``table`` with each row keeping, per axis, only the annotations of
    its first value: one value per axis under every state, so BUCOPT's
    assumption holds."""
    rows = [
        FactRow(
            fact_id=row.fact_id,
            measure=row.measure,
            axes=tuple(
                tuple(bound for bound in axis if bound.value == axis[0].value)
                for axis in row.axes
            ),
        )
        for row in table.rows
    ]
    return FactTable(table.lattice, rows, table.aggregate)


@given(
    random_fact_table(),
    st.sampled_from(["BUC", "BUCCUST", "BUCOPT"]),
    st.sampled_from(["columnar", "dict"]),
    st.sampled_from(["COUNT", "SUM", "MIN", "MAX", "AVG"]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_buc_family_packs_naives_cuboids(
    table, algorithm, encoding, function, data
):
    """Every cuboid is packed, iterates in wire order and equals NAIVE's,
    over the whole lattice or a strict subset of it; run again with
    ``CODE_LIMIT`` at 2, where the codes are lists."""
    table = FactTable(table.lattice, table.rows, AggregateSpec(function, "@m"))
    if algorithm == "BUCOPT":
        table = disjoint(table)
    lattice = list(table.lattice.points())
    points = data.draw(
        st.none()
        | st.lists(
            st.sampled_from(lattice),
            min_size=1,
            max_size=len(lattice) - 1,
            unique=True,
        )
    )
    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE", points=points))
    for limit in LIMITS:
        with code_limit(limit):
            result = compute_cube(
                table,
                ExecutionOptions(
                    algorithm=algorithm,
                    encoding=encoding,
                    oracle=PropertyOracle.from_data(table),
                    points=points,
                ),
            )
            for cuboid in result.cuboids.values():
                assert isinstance(cuboid, PackedCuboid)
                assert type(cuboid.codes) is type(as_codes(cuboid.axes, ()))
                assert list(cuboid) == sorted(cuboid)
        assert list(result.cuboids) == list(reference.cuboids)
        assert result.cuboids == reference.cuboids
