"""Unit tests for the cuboid materialization advisor (Sec. 3.6)."""

from collections import Counter

import pytest

from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.incremental import ingest_rows, retract_rows, split_rows
from repro.core.materialize import cuboid_sizes, select_views
from repro.core.properties import PropertyOracle
from repro.core.query import Query
from repro.datagen.workload import WorkloadConfig, build_workload
from repro.serve import CubeServer
from tests.conftest import (
    advised_server,
    advised_tiers,
    planned_tiers,
    small_workload,
)


@pytest.fixture(scope="module")
def clean():
    workload = small_workload(n_facts=100, coverage=True, disjoint=True)
    table = workload.fact_table()
    oracle = PropertyOracle.from_flags(table.lattice, True, True)
    return table, oracle


@pytest.fixture(scope="module")
def messy():
    workload = small_workload(
        n_facts=100, coverage=False, disjoint=False, seed=3
    )
    table = workload.fact_table()
    oracle = PropertyOracle.from_flags(table.lattice, False, False)
    return table, oracle


def assert_census_matches_naive(table, points=None):
    """``cuboid_sizes`` against the oracle: the length of every NAIVE
    cuboid, for exactly the requested points."""
    sizes = cuboid_sizes(table, table.lattice, points)
    wanted = list(points) if points is not None else list(
        table.lattice.points()
    )
    reference = compute_cube(
        table, ExecutionOptions(algorithm="NAIVE", points=wanted)
    )
    assert sizes == {
        point: len(reference.cuboids[point]) for point in wanted
    }


#: The datagen grid (coverage x disjointness x density) plus the
#: DBLP-shaped generator, whose author axis is multi-valued.
CENSUS_GRID = [
    WorkloadConfig(
        kind="treebank", n_facts=50, n_axes=3, density=density,
        coverage=coverage, disjoint=disjoint, seed=7,
    )
    for density in ("sparse", "dense")
    for coverage in (True, False)
    for disjoint in (True, False)
] + [WorkloadConfig(kind="dblp", n_facts=40, seed=3)]


class TestSizes:
    def test_sizes_match_naive(self, clean):
        table, _ = clean
        assert_census_matches_naive(table)

    @pytest.mark.parametrize("config", CENSUS_GRID, ids=lambda c: c.name)
    def test_grid_matches_naive(self, config):
        assert_census_matches_naive(build_workload(config).fact_table())

    def test_grid_exercises_multi_valued_axes(self):
        """The parity above is only worth its name if some table fans
        rows out into several group ids (the Sec. 3.3 cross product)."""
        multi = 0
        for config in CENSUS_GRID:
            encoded = build_workload(config).fact_table().columnar()
            multi += any(
                encoded.state_view(position, state).per_row is not None
                for position, states in enumerate(
                    encoded.lattice.axis_states
                )
                for state in range(len(states.states))
                if not states.is_dropped(state)
            )
        assert multi >= 2

    def test_empty_table(self, clean):
        table, _ = clean
        empty = FactTable(table.lattice, [], table.aggregate)
        sizes = cuboid_sizes(empty, empty.lattice)
        assert sizes == {point: 0 for point in empty.lattice.points()}

    def test_points_subset(self, messy):
        table, _ = messy
        lattice = table.lattice
        subset = [lattice.top, lattice.bottom, lattice.top]
        assert_census_matches_naive(table, subset)
        assert list(cuboid_sizes(table, lattice, iter(subset))) == [
            lattice.top, lattice.bottom,
        ]

    def test_follows_ingest_and_retract(self, messy):
        """A census after a write reads the re-encoded table, not the
        memoized twin of the rows before it."""
        table, _ = messy
        initial, delta = split_rows(table, 0.6)
        live = FactTable(table.lattice, list(initial), table.aggregate)
        assert_census_matches_naive(live)
        ingest_rows(live, delta)
        assert_census_matches_naive(live)
        retract_rows(live, list(initial)[:10])
        assert_census_matches_naive(live)
        assert cuboid_sizes(live, live.lattice) != cuboid_sizes(
            table, table.lattice
        )

    def test_never_scans_rows(self, clean, monkeypatch):
        table, _ = clean

        def forbidden(self, row, point):
            raise AssertionError("the census must not scan fact rows")

        monkeypatch.setattr(FactTable, "key_combinations", forbidden)
        assert cuboid_sizes(table, table.lattice)


class TestSelection:
    def test_budget_respected(self, clean):
        table, oracle = clean
        sizes = cuboid_sizes(table, table.lattice)
        budget = sizes[table.lattice.top] + 10
        selection = select_views(table, oracle, space_budget=budget)
        assert selection.space_used <= budget
        assert table.lattice.top in selection.chosen

    def test_bigger_budget_serves_more(self, clean):
        table, oracle = clean
        small = select_views(table, oracle, space_budget=50)
        sizes = cuboid_sizes(table, table.lattice)
        large = select_views(
            table, oracle, space_budget=sum(sizes.values())
        )
        assert large.coverage_ratio() >= small.coverage_ratio()

    def test_messy_data_limits_serving(self, clean, messy):
        """Without summarizability, no cuboid can serve another: the
        advisor must fall back to per-point recomputation."""
        messy_table, messy_oracle = messy
        selection = select_views(
            messy_table, messy_oracle, space_budget=10_000
        )
        # Only materialized points serve themselves; nothing else is
        # soundly derivable.
        for point, source in selection.serving.items():
            if source is not None:
                assert source == point

    def test_an_empty_top_cuboid_takes_one_cell(self, clean):
        """The advisor charges a cuboid what the serving cache does, so
        a cache of ``space_used`` cells holds the whole choice even
        when the top cuboid has no cells."""
        table, oracle = clean
        empty = FactTable(table.lattice, [], table.aggregate)
        selection = select_views(empty, oracle, space_budget=5)
        assert selection.chosen == (table.lattice.top,)
        assert selection.space_used == 1
        server = CubeServer(empty, oracle, cache_cells=selection.space_used)
        assert server.warm(selection.chosen) == [table.lattice.top]

    def test_clean_data_serves_most_points(self, clean):
        table, oracle = clean
        sizes = cuboid_sizes(table, table.lattice)
        selection = select_views(
            table, oracle, space_budget=sizes[table.lattice.top] + 50
        )
        assert selection.coverage_ratio() > 0.9


def serve_selection(table, oracle, budget=2000):
    """A server whose cache is warmed with the advisor's choice, its
    ladder plan checked against the selection's serving map, then one
    read of every lattice point, each checked against NAIVE.  Returns
    the server, the selection and the plan's rung counts."""
    server, selection = advised_server(table, oracle, budget)
    plan = planned_tiers(server)
    assert plan == advised_tiers(selection)
    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    for point in table.lattice.points():
        answer = server.query(Query(point=point)).as_cuboid()
        assert answer == reference.cuboids[point], (
            table.lattice.describe(point)
        )
    return server, selection, Counter(plan.values())


class TestServedSelection:
    """The advisor's choice served through ``CubeServer``'s ladder once
    warmed into its cache: a chosen point at the cache rung, a point a
    chosen cuboid soundly derives at the rollup rung, any other by
    recompute."""

    def test_answers_match_full_cube(self, clean):
        table, oracle = clean
        # Room for the top cuboid and little else, so most points roll up.
        budget = cuboid_sizes(table, table.lattice)[table.lattice.top] + 10
        server, selection, planned = serve_selection(table, oracle, budget)
        derived = sum(
            1
            for point, source in selection.serving.items()
            if source is not None and point not in selection.chosen
        )
        assert planned["cache"] == len(selection.chosen)
        assert planned["rollup"] == derived > 0
        assert sum(server.stats().tiers.values()) == table.lattice.size()

    def test_messy_answers_still_correct(self, messy):
        table, oracle = messy
        server, selection, planned = serve_selection(table, oracle)
        tiers = server.stats().tiers
        # Everything not chosen had to be recomputed from base.
        assert tiers["rollup"] == planned["rollup"] == 0
        assert planned["cache"] == len(selection.chosen)
        assert planned["recompute"] == (
            table.lattice.size() - len(selection.chosen)
        )

    def test_cell_accessor(self, clean):
        table, oracle = clean
        server, _, _ = serve_selection(table, oracle)
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        point = table.lattice.bottom
        cell = server.query(Query(point=point, kind="cell", key=())).as_cell()
        assert cell == reference.cuboids[point][()]
