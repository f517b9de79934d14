"""Golden regression tests for the view-selection advisor.

The greedy benefit-per-space heuristic of :func:`select_views` is
deterministic on a fixed workload; these goldens pin the exact chosen
view sets on two controlled workloads so refactors of the advisor (or
of the cost/size estimation feeding it) can't silently change plans.
The companion invariant warms a server's cache with the selection and
checks every answered lattice point against a direct ``compute_cube``.
"""

import pytest

from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.materialize import select_views
from repro.core.properties import PropertyOracle
from repro.core.query import Query
from repro.serve import CubeServer
from repro.testing import messy_workload, small_workload
from tests.conftest import advised_tiers, planned_tiers

# Committed expected selections — regenerate only deliberately, with:
#   PYTHONPATH=src python -c "from tests.core.test_materialize_golden \
#       import _selection; print(_selection('clean')[2])"
GOLDEN_CLEAN = (
    "$m1:rigid, $m2:rigid, $m3:rigid",
    "$m1:rigid, $m2:rigid, $m3:LND",
    "$m1:rigid, $m2:LND, $m3:rigid",
    "$m1:rigid, $m2:LND, $m3:LND",
    "$m1:LND, $m2:rigid, $m3:rigid",
    "$m1:LND, $m2:rigid, $m3:LND",
    "$m1:LND, $m2:LND, $m3:rigid",
    "$m1:LND, $m2:LND, $m3:LND",
)
GOLDEN_CLEAN_SPACE = 112

GOLDEN_MESSY = (
    "$m1:rigid, $m2:rigid, $m3:rigid",
    "$m1:rigid, $m2:rigid, $m3:PC-AD",
    "$m1:rigid, $m2:rigid, $m3:LND",
    "$m1:rigid, $m2:PC-AD, $m3:LND",
    "$m1:rigid, $m2:LND, $m3:rigid",
    "$m1:rigid, $m2:LND, $m3:PC-AD",
    "$m1:rigid, $m2:LND, $m3:LND",
    "$m1:PC-AD, $m2:rigid, $m3:LND",
    "$m1:PC-AD, $m2:PC-AD, $m3:LND",
    "$m1:PC-AD, $m2:LND, $m3:rigid",
    "$m1:PC-AD, $m2:LND, $m3:PC-AD",
    "$m1:PC-AD, $m2:LND, $m3:LND",
    "$m1:LND, $m2:rigid, $m3:rigid",
    "$m1:LND, $m2:rigid, $m3:PC-AD",
    "$m1:LND, $m2:rigid, $m3:LND",
    "$m1:LND, $m2:PC-AD, $m3:rigid",
    "$m1:LND, $m2:PC-AD, $m3:PC-AD",
    "$m1:LND, $m2:PC-AD, $m3:LND",
    "$m1:LND, $m2:LND, $m3:rigid",
    "$m1:LND, $m2:LND, $m3:PC-AD",
    "$m1:LND, $m2:LND, $m3:LND",
)
GOLDEN_MESSY_SPACE = 283


def _selection(which):
    if which == "clean":
        workload, budget = (
            small_workload(n_facts=100, coverage=True, disjoint=True),
            400,
        )
    else:
        workload, budget = messy_workload(n_facts=80), 300
    table = workload.fact_table()
    oracle = PropertyOracle.from_data(table)
    selection = select_views(table, oracle, space_budget=budget)
    described = tuple(
        table.lattice.describe(point) for point in selection.chosen
    )
    return table, oracle, described, selection


class TestGoldenSelections:
    def test_clean_workload_selection(self):
        _, _, described, selection = _selection("clean")
        assert described == GOLDEN_CLEAN
        assert selection.space_used == GOLDEN_CLEAN_SPACE
        assert selection.space_used <= selection.space_budget
        assert selection.coverage_ratio() == pytest.approx(1.0)

    def test_messy_workload_selection(self):
        _, _, described, selection = _selection("messy")
        assert described == GOLDEN_MESSY
        assert selection.space_used == GOLDEN_MESSY_SPACE
        assert selection.space_used <= selection.space_budget
        # messy summarizability limits what the chosen views can serve
        assert 0.0 < selection.coverage_ratio() < 1.0


class TestAnsweringInvariant:
    @pytest.mark.parametrize("which", ["clean", "messy"])
    def test_every_point_matches_direct_compute(self, which):
        table, oracle, _, selection = _selection(which)
        server = CubeServer(
            table, oracle, cache_cells=selection.space_used
        )
        assert sorted(server.warm(selection.chosen)) == list(
            selection.chosen
        )
        assert planned_tiers(server) == advised_tiers(selection)
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        for point in table.lattice.points():
            answer = server.query(Query(point=point)).as_cuboid()
            assert answer == reference.cuboids[point], (
                table.lattice.describe(point)
            )
