"""Benchmarks for the extension features built on the paper's Sec. 3.6
and 3.7 discussions and its stated future work.

A4 — iceberg pruning: BUC's monotone-COUNT pruning saves real work.
A5 — schema-driven lattice pruning: coincident points are computed once.
A6 — materialized views: answering the lattice from chosen views beats
     per-point recomputation.
A7 — incremental maintenance: appending a small delta beats recompute.
"""

import pytest

from benchmarks.conftest import bench_once
from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.extract import extract_fact_table
from repro.core.incremental import IncrementalCube, split_rows
from repro.core.materialize import MaterializedCube, select_views
from repro.core.properties import PropertyOracle
from repro.core.prune import compute_cube_pruned
from repro.datagen.publications import query1, random_publications
from repro.datagen.workload import WorkloadConfig, build_workload
from repro.schema.dtd import Cardinality, Dtd


@pytest.fixture(scope="module")
def dense_table():
    workload = build_workload(
        WorkloadConfig(
            kind="treebank",
            n_facts=300,
            n_axes=4,
            density="dense",
            coverage=True,
            disjoint=True,
        )
    )
    return workload.fact_table()


class TestA4Iceberg:
    def test_iceberg_buc(self, benchmark, dense_table):
        result = bench_once(
            benchmark,
            lambda: compute_cube(
                dense_table, ExecutionOptions(algorithm="BUC", min_support=10)
            ),
        )
        benchmark.extra_info["simulated_seconds"] = result.simulated_seconds

    def test_pruning_saves_cost(self, dense_table):
        full = compute_cube(dense_table, ExecutionOptions(algorithm="BUC"))
        iceberg = compute_cube(
            dense_table, ExecutionOptions(algorithm="BUC", min_support=10)
        )
        assert iceberg.cost.cpu_ops < full.cost.cpu_ops
        assert iceberg.total_cells() < full.total_cells()


class TestA5LatticePruning:
    @staticmethod
    def _schema() -> Dtd:
        dtd = Dtd()
        dtd.declare_element(
            "database", children=[("publication", Cardinality.STAR)]
        )
        dtd.declare_element(
            "publication",
            children=[
                ("author", Cardinality.STAR),
                ("publisher", Cardinality.OPTIONAL),
                ("year", Cardinality.PLUS),
            ],
            attributes=["id"],
        )
        dtd.declare_element("author", children=[("name", Cardinality.ONE)])
        dtd.declare_element("name", has_text=True)
        dtd.declare_element("publisher", attributes=["id"])
        dtd.declare_element("year", has_text=True)
        return dtd

    @pytest.fixture(scope="class")
    def pub_table(self):
        doc = random_publications(
            300,
            p_missing_publisher=0.2,
            p_extra_author=0.3,
            p_nested_author=0,
            p_pubdata=0,
            p_second_year=0.1,
        )
        return extract_fact_table(doc, query1())

    def test_pruned_cube(self, benchmark, pub_table):
        result, saved = bench_once(
            benchmark,
            lambda: compute_cube_pruned(
                pub_table, self._schema(), "publication", algorithm="BUC"
            ),
        )
        benchmark.extra_info["points_saved"] = saved
        assert saved > 0

    def test_pruning_saves_cost_and_stays_correct(self, pub_table):
        full = compute_cube(pub_table, ExecutionOptions(algorithm="BUC"))
        pruned, saved = compute_cube_pruned(
            pub_table, self._schema(), "publication", algorithm="BUC"
        )
        assert saved > 0
        assert pruned.same_contents(full)
        assert pruned.cost.cpu_ops < full.cost.cpu_ops


class TestA6Materialization:
    def test_materialized_answering(self, benchmark, dense_table):
        oracle = PropertyOracle.from_flags(dense_table.lattice, True, True)
        selection = select_views(dense_table, oracle, space_budget=3000)
        materialized = MaterializedCube(dense_table, selection, oracle)

        def answer_everything():
            return [
                materialized.cuboid(point)
                for point in dense_table.lattice.points()
            ]

        bench_once(benchmark, answer_everything)
        benchmark.extra_info["views"] = len(selection.chosen)

    def test_views_beat_recompute(self, dense_table):
        """Answering the whole lattice from views must cost less
        (simulated) than NAIVE's per-point recomputation: compare the
        materialization pass plus roll-ups against NAIVE."""
        oracle = PropertyOracle.from_flags(dense_table.lattice, True, True)
        selection = select_views(dense_table, oracle, space_budget=3000)
        assert selection.coverage_ratio() > 0.9
        naive = compute_cube(dense_table, ExecutionOptions(algorithm="NAIVE"))
        build_cost = compute_cube(
            dense_table,
            ExecutionOptions(algorithm="BUC", points=list(selection.chosen)),
        ).simulated_seconds
        assert build_cost < naive.simulated_seconds


class TestA7Incremental:
    def test_incremental_insert(self, benchmark, dense_table):
        initial, delta = split_rows(dense_table, 0.9)
        live = IncrementalCube(
            FactTable(
                dense_table.lattice,
                list(initial),
                aggregate=dense_table.aggregate,
            )
        )
        bench_once(benchmark, lambda: live.insert(list(delta)))
        benchmark.extra_info["delta_rows"] = len(delta)

    def test_delta_cheaper_than_recompute(self, dense_table):
        import time

        initial, delta = split_rows(dense_table, 0.9)
        live = IncrementalCube(
            FactTable(
                dense_table.lattice,
                list(initial),
                aggregate=dense_table.aggregate,
            )
        )
        begin = time.perf_counter()
        live.insert(list(delta))
        incremental_wall = time.perf_counter() - begin

        begin = time.perf_counter()
        reference = compute_cube(dense_table, ExecutionOptions(algorithm="COUNTER"))
        recompute_wall = time.perf_counter() - begin

        assert live.as_result().same_contents(reference)
        assert incremental_wall < recompute_wall
