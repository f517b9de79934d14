"""Unit tests for incremental cube maintenance."""

import pytest

from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.incremental import IncrementalCube, split_rows
from repro.errors import CubeError
from tests.conftest import small_workload


def fresh_table(**overrides):
    return small_workload(**overrides).fact_table()


class TestInsert:
    def test_matches_recompute_after_inserts(self):
        table = fresh_table(n_facts=100, seed=12)
        initial, delta = split_rows(table, 0.6)
        live = FactTable(table.lattice, initial, aggregate=table.aggregate)
        cube = IncrementalCube(live)
        cube.insert(delta)
        reference = compute_cube(
            FactTable(table.lattice, table.rows, aggregate=table.aggregate),
            ExecutionOptions(algorithm="NAIVE"),
        )
        assert cube.as_result().same_contents(reference)

    def test_empty_start(self):
        table = fresh_table(n_facts=40)
        live = FactTable(table.lattice, [], aggregate=table.aggregate)
        cube = IncrementalCube(live)
        cube.insert(table.rows)
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        assert cube.as_result().same_contents(reference)

    def test_batched_equals_single_shot(self):
        table = fresh_table(n_facts=60, seed=4)
        one = IncrementalCube(
            FactTable(table.lattice, [], aggregate=table.aggregate)
        )
        one.insert(table.rows)
        many = IncrementalCube(
            FactTable(table.lattice, [], aggregate=table.aggregate)
        )
        for row in table.rows:
            many.insert([row])
        assert one.as_result().same_contents(many.as_result())

    def test_messy_data_supported(self):
        table = fresh_table(
            n_facts=80, coverage=False, disjoint=False, seed=5
        )
        cube = IncrementalCube(table)
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        assert cube.as_result().same_contents(reference)

    def test_update_count_reported(self):
        table = fresh_table(n_facts=10)
        live = FactTable(table.lattice, [], aggregate=table.aggregate)
        cube = IncrementalCube(live)
        assert cube.insert(table.rows[:1]) > 0


class TestDelete:
    def test_insert_then_delete_roundtrip(self):
        table = fresh_table(n_facts=60, seed=9)
        keep, churn = split_rows(table, 0.7)
        live = FactTable(
            table.lattice, list(keep), aggregate=table.aggregate
        )
        cube = IncrementalCube(live)
        cube.insert(list(churn))
        cube.delete(list(churn))
        reference = compute_cube(
            FactTable(table.lattice, keep, aggregate=table.aggregate),
            ExecutionOptions(algorithm="NAIVE"),
        )
        assert cube.as_result().same_contents(reference)

    def test_delete_unknown_fact_rejected(self):
        table = fresh_table(n_facts=20)
        cube = IncrementalCube(table)
        ghost = table.rows[0]
        cube.delete([ghost])
        with pytest.raises(CubeError):
            cube.delete([ghost])

    def test_fully_retracted_groups_disappear(self):
        table = fresh_table(n_facts=20, seed=6)
        cube = IncrementalCube(table)
        cube.delete(list(table.rows))
        result = cube.as_result()
        assert all(not cuboid for cuboid in result.cuboids.values())


class TestAggregates:
    def test_avg_incremental(self):
        import random

        from repro.core.aggregates import AggregateSpec
        from repro.core.axes import AxisSpec
        from repro.core.extract import extract_fact_table
        from repro.core.query import X3Query
        from repro.xmlmodel.nodes import Document, Element

        rng = random.Random(2)
        root = Element("r")
        for number in range(40):
            fact = root.make_child("f", attrs={"w": str(rng.randrange(9))})
            fact.make_child("a", text=f"g{rng.randrange(3)}")
        query = X3Query(
            fact_tag="f",
            axes=(AxisSpec.from_path("$a", "a"),),
            aggregate=AggregateSpec("AVG", "@w"),
            fact_id_path="",
        )
        table = extract_fact_table(Document(root), query)
        initial, delta = split_rows(table, 0.5)
        cube = IncrementalCube(
            FactTable(table.lattice, initial, aggregate=table.aggregate)
        )
        cube.insert(delta)
        reference = compute_cube(
            FactTable(table.lattice, table.rows, aggregate=table.aggregate),
            ExecutionOptions(algorithm="NAIVE"),
        )
        assert cube.as_result().same_contents(reference)

    def test_cell_accessor(self):
        table = fresh_table(n_facts=30)
        cube = IncrementalCube(table)
        assert cube.cell(table.lattice.bottom, ()) == float(len(table))
        assert cube.cell(table.lattice.bottom, ("zzz",)) is None
