"""Unit tests for keeping a cube current under writes.

:class:`repro.serve.CubeServer` is the one object that maintains
answers: its writes go through :mod:`repro.core.incremental`'s row
helpers, patch the cached cuboids the aggregate allows exactly and
evict the rest.  Every answer must equal serial NAIVE over the rows the
table holds at that moment.
"""

import pytest

from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.incremental import ingest_rows, retract_rows, split_rows
from repro.core.query import Query
from repro.errors import CubeError
from repro.serve import CubeServer
from tests.conftest import small_workload


def fresh_table(**overrides):
    return small_workload(**overrides).fact_table()


def warmed(table):
    """A server over ``table`` with every cuboid resident."""
    server = CubeServer(table, cache_cells=100000)
    server.warm()
    return server


def served(server):
    """Every lattice point as the server answers it."""
    return {
        point: server.query(Query(point=point)).as_cuboid()
        for point in server.lattice.points()
    }


def naive(lattice, rows, aggregate):
    return compute_cube(
        FactTable(lattice, list(rows), aggregate=aggregate),
        ExecutionOptions(algorithm="NAIVE"),
    ).cuboids


class TestInsert:
    def test_matches_recompute_after_inserts(self):
        table = fresh_table(n_facts=100, seed=12)
        initial, delta = split_rows(table, 0.6)
        live = FactTable(table.lattice, initial, aggregate=table.aggregate)
        server = warmed(live)
        server.insert(delta)
        assert served(server) == naive(
            table.lattice, table.rows, table.aggregate
        )
        assert server.stats().tiers["recompute"] == 0

    def test_empty_start(self):
        table = fresh_table(n_facts=40)
        live = FactTable(table.lattice, [], aggregate=table.aggregate)
        server = warmed(live)
        server.insert(table.rows)
        assert served(server) == naive(
            table.lattice, table.rows, table.aggregate
        )

    def test_batched_equals_single_shot(self):
        table = fresh_table(n_facts=60, seed=4)
        one = warmed(FactTable(table.lattice, [], aggregate=table.aggregate))
        one.insert(table.rows)
        many = warmed(
            FactTable(table.lattice, [], aggregate=table.aggregate)
        )
        for row in table.rows:
            many.insert([row])
        assert served(one) == served(many)
        assert many.version == len(table.rows)

    def test_messy_data_supported(self):
        table = fresh_table(
            n_facts=80, coverage=False, disjoint=False, seed=5
        )
        initial, delta = split_rows(table, 0.5)
        live = FactTable(table.lattice, initial, aggregate=table.aggregate)
        server = warmed(live)
        server.insert(delta)
        assert served(server) == naive(
            table.lattice, table.rows, table.aggregate
        )

    def test_update_count_reported(self):
        table = fresh_table(n_facts=10)
        live = FactTable(table.lattice, [], aggregate=table.aggregate)
        server = warmed(live)
        server.insert(table.rows[:1])
        stats = server.stats()
        assert stats.patched_points > 0
        (write,) = server.events.named("serve.write")
        assert write.spans[0].attrs["patched_points"] == (
            stats.patched_points
        )

    def test_present_fact_id_rejected(self):
        table = fresh_table(n_facts=20)
        rows = list(table.rows)
        for batch in ([table.rows[0]], [table.rows[1], table.rows[1]]):
            with pytest.raises(CubeError):
                ingest_rows(table, batch)
            assert table.rows == rows


class TestDelete:
    def test_insert_then_delete_roundtrip(self):
        table = fresh_table(n_facts=60, seed=9)
        keep, churn = split_rows(table, 0.7)
        live = FactTable(
            table.lattice, list(keep), aggregate=table.aggregate
        )
        server = warmed(live)
        server.insert(list(churn))
        server.delete(list(churn))
        assert served(server) == naive(
            table.lattice, keep, table.aggregate
        )

    def test_delete_unknown_fact_rejected(self):
        table = fresh_table(n_facts=20)
        server = warmed(table)
        ghost = table.rows[0]
        server.delete([ghost])
        rows = list(table.rows)
        with pytest.raises(CubeError):
            server.delete([ghost])
        with pytest.raises(CubeError):
            retract_rows(table, [ghost])
        assert table.rows == rows
        assert server.version == 1

    def test_fully_retracted_groups_disappear(self):
        table = fresh_table(n_facts=20, seed=6)
        server = warmed(table)
        server.delete(list(table.rows))
        assert all(not cuboid for cuboid in served(server).values())


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
            fact = root.make_child(
                "f", attrs={"w": f"{rng.randrange(9)}.{rng.randrange(10)}"}
            )
            fact.make_child("a", text=f"g{rng.randrange(3)}")
        query = X3Query(
            fact_tag="f",
            axes=(AxisSpec.from_path("$a", "a"),),
            aggregate=AggregateSpec("AVG", "@w"),
            fact_id_path="",
        )
        table = extract_fact_table(Document(root), query)
        initial, delta = split_rows(table, 0.5)
        live = FactTable(table.lattice, initial, aggregate=table.aggregate)
        server = warmed(live)
        server.insert(delta)
        server.delete(initial[::3])
        survivors = [row for row in table.rows if row not in initial[::3]]
        assert served(server) == naive(
            table.lattice, survivors, table.aggregate
        )

    def test_cell_accessor(self):
        table = fresh_table(n_facts=30)
        server = warmed(table)

        def cell(key):
            return server.query(
                Query(point=table.lattice.bottom, kind="cell", key=key)
            ).as_cell()

        assert cell(()) == float(len(table))
        assert cell(("zzz",)) is None
