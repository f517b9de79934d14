"""Serving picks its kernel from the job, never from the user.

The paper's optimized variants (Sec. 3) are exact only where
disjointness or coverage holds, and Figure 1 is the paper's own example
where neither does.  A server or cluster that could be told to recompute
with one served wrong answers there; these tests hold both backends, and
the tools over them, to serial NAIVE on every Figure-1 point with no
cache to hide behind.
"""

import pytest

from repro import cli
from repro.cluster import ClusterCoordinator
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.properties import PropertyOracle
from repro.core.query import Query, resolve_point_spec
from repro.serve import CubeServer

ROLLUP = "ROLLUP default BY n:detail, y:detail"


@pytest.fixture()
def naive(fig1_table):
    return compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))


@pytest.mark.parametrize("backend", ["server", "cluster"])
def test_every_figure_1_point_is_naive_with_no_cache(
    backend, fig1_table, naive
):
    oracle = PropertyOracle.from_data(fig1_table)
    served = (
        CubeServer(fig1_table, oracle, cache_cells=0)
        if backend == "server"
        else ClusterCoordinator(fig1_table, 2, 2, oracle=oracle, cache_cells=0)
    )
    points = list(fig1_table.lattice.points())
    assert len(points) == 30
    try:
        for point in points:
            answer = served.query(Query(point=point))
            assert answer.as_cuboid() == naive.cuboids[point], (
                fig1_table.lattice.describe(point)
            )
    finally:
        served.close()


def test_sql_rollup_returns_naives_groups(fig1_table, naive, capsys):
    assert cli.main(["sql", "--demo", "-c", ROLLUP]) == 0
    out = capsys.readouterr().out
    point = resolve_point_spec(
        fig1_table.lattice, "$n:rigid, $p:LND, $y:rigid"
    )
    assert len(naive.cuboids[point]) == 4
    assert "-- 4 rows · $n:rigid, $p:LND, $y:rigid" in out

