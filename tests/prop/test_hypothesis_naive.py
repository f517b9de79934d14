"""Property test: NAIVE packs exactly its own grouping.

NAIVE is the oracle every algorithm is checked against, and it packs
each cuboid as soon as it is grouped.  Its packed cuboids must equal the
dicts :func:`repro.core.groupby.cuboid_from_rows` gives — the canonical
grouping, unpacked — value for value, and iterate in wire order, for
every aggregate, whatever the table's dictionaries hold.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregateSpec
from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.groupby import cuboid_from_rows
from repro.core.incremental import ingest_rows, retract_rows
from repro.core.packed import PackedCuboid
from tests.prop.test_hypothesis_columnar import random_fact_table


@given(
    random_fact_table(),
    st.sampled_from(["COUNT", "SUM", "MIN", "MAX", "AVG"]),
    st.integers(min_value=0, max_value=10),
)
@settings(max_examples=80, deadline=None)
def test_naive_packs_its_grouping(table, function, retracted):
    """Run once on a table whose dictionaries were computed before some
    of its rows were retracted (a superset of what the rows bind), once
    on the rows alone."""
    rows = table.rows
    widened = FactTable(table.lattice, [], AggregateSpec(function, "@m"))
    widened.dictionaries()
    ingest_rows(widened, rows)
    retract_rows(widened, rows[:retracted])
    fresh = FactTable(
        table.lattice, rows[retracted:], AggregateSpec(function, "@m")
    )
    for source in (widened, fresh):
        fn = source.aggregate.fn
        cube = compute_cube(source, ExecutionOptions(algorithm="NAIVE"))
        assert set(cube.cuboids) == set(source.lattice.points())
        for point, cuboid in cube.cuboids.items():
            assert isinstance(cuboid, PackedCuboid)
            assert list(cuboid) == sorted(cuboid)
            assert dict(cuboid.items()) == cuboid_from_rows(
                source, source.rows, point, fn
            )
