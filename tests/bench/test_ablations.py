"""The ablation / extension claims of DESIGN.md Sec. 6 that no other
tier-1 test makes, as modeled (deterministic) assertions.

A2 (identity tracking), A3 (buffer sensitivity) and A4 (iceberg pruning)
are asserted where their algorithms are tested — see the DESIGN.md
table for the exact tests.
"""

import pytest

from repro.core import extract
from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.incremental import split_rows
from repro.core.materialize import select_views
from repro.core.properties import PropertyOracle
from repro.core.query import Query
from repro.datagen.workload import WorkloadConfig, build_workload
from repro.serve import CubeServer


def dense_workload(n_facts, n_axes):
    return build_workload(
        WorkloadConfig(
            kind="treebank",
            n_facts=n_facts,
            n_axes=n_axes,
            density="dense",
            coverage=True,
            disjoint=True,
        )
    )


@pytest.fixture(scope="module")
def dense_table():
    return dense_workload(300, 4).fact_table()


def test_a1_shared_extraction_beats_per_cuboid_matching(monkeypatch):
    """Sec. 3.4's argument for Fig. 2: one annotated evaluation of the
    most relaxed pattern feeds every cuboid.  Extraction evaluates each
    distinct compiled path of the query plan once, for every fact at
    once; matching a pattern per lattice point would evaluate it
    lattice-size times."""
    workload = dense_workload(200, 3)
    plan = extract._QueryPlan(workload.query)
    paths = {
        path
        for axis in plan.axes
        for _, binding, prefix in axis
        for path in (binding, prefix)
        if path is not None
    }
    if plan.measure is not None:
        paths.add(plan.measure)

    evaluated = []
    evaluate = extract._PathJoin._evaluate

    def spy(join, path):
        evaluated.append(path)
        return evaluate(join, path)

    monkeypatch.setattr(extract._PathJoin, "_evaluate", spy)
    table = extract.extract_from_documents(
        workload.documents, workload.query
    )
    assert len(table) == 200
    assert len(evaluated) == len(set(evaluated))
    assert set(evaluated) == paths
    assert len(evaluated) < workload.query.lattice().size()


def test_a6_materializing_views_beats_per_point_recompute(dense_table):
    """Building the selected views costs less (simulated) than NAIVE's
    per-point recomputation of the lattice they answer."""
    oracle = PropertyOracle.from_flags(dense_table.lattice, True, True)
    selection = select_views(dense_table, oracle, space_budget=3000)
    assert selection.coverage_ratio() > 0.9
    naive = compute_cube(dense_table, ExecutionOptions(algorithm="NAIVE"))
    build = compute_cube(
        dense_table,
        ExecutionOptions(algorithm="BUC", points=list(selection.chosen)),
    )
    assert build.simulated_seconds < naive.simulated_seconds


def test_a7_delta_maintenance_beats_recompute(dense_table, monkeypatch):
    """``CubeServer.insert`` over a fully warmed cache folds a 10% delta
    into the resident cuboids: its cell updates (the delta's group keys
    at every patched point) stay under a fifth of COUNTER's CPU ops, and
    every point is then still a cache hit equal to the recompute."""
    initial, delta = split_rows(dense_table, 0.9)
    server = CubeServer(
        FactTable(
            dense_table.lattice,
            list(initial),
            aggregate=dense_table.aggregate,
        ),
        cache_cells=10**6,
    )
    points = list(dense_table.lattice.points())
    assert set(server.warm()) == set(points)
    updates = []
    key_combinations = FactTable.key_combinations

    def counted(table, row, point):
        keys = key_combinations(table, row, point)
        updates.append(len(keys))
        return keys

    monkeypatch.setattr(FactTable, "key_combinations", counted)
    server.insert(list(delta))
    monkeypatch.undo()
    recompute = compute_cube(dense_table, ExecutionOptions(algorithm="COUNTER"))
    for point in points:
        assert (
            server.query(Query(point=point)).as_cuboid()
            == recompute.cuboids[point]
        )
    assert server.stats().tiers["cache"] == len(points)
    assert 0 < sum(updates) < recompute.cost.cpu_ops / 5
