"""Unit tests for query-time roll-up and summarizability checking."""

import pytest

from repro.core.aggregates import get_function
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.properties import PropertyOracle
from repro.core.query import Query
from repro.core.rollup import (
    derivable,
    dice_cuboid,
    rollup,
    rollup_cuboid,
    slice_cuboid,
    structural_drop_only,
)
from repro.errors import CubeError
from repro.serve import CubeServer
from tests.conftest import small_workload


@pytest.fixture(scope="module")
def clean():
    workload = small_workload(n_facts=80, coverage=True, disjoint=True)
    table = workload.fact_table()
    oracle = PropertyOracle.from_flags(table.lattice, True, True)
    cube = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    return table, oracle, cube


class TestDerivable:
    def test_drop_only_moves(self, fig1_table):
        lattice = fig1_table.lattice
        top = lattice.top
        year_only = lattice.point_by_description("$n:LND, $p:LND, $y:rigid")
        pcad = lattice.point_by_description("$n:PC-AD, $p:rigid, $y:rigid")
        assert structural_drop_only(lattice, top, year_only)
        assert not structural_drop_only(lattice, top, pcad)

    def test_structural_move_refused(self, fig1_table):
        lattice = fig1_table.lattice
        oracle = PropertyOracle.from_flags(lattice, True, True)
        top = lattice.top
        pcad = lattice.point_by_description("$n:PC-AD, $p:rigid, $y:rigid")
        ok, reason = derivable(lattice, top, pcad, oracle)
        assert not ok and "relaxes structure" in reason

    def test_nondisjoint_source_refused(self, fig1_table):
        lattice = fig1_table.lattice
        oracle = PropertyOracle.from_data(fig1_table)
        top = lattice.top
        target = lattice.point_by_description("$n:LND, $p:rigid, $y:rigid")
        ok, reason = derivable(lattice, top, target, oracle)
        assert not ok and "disjoint" in reason

    def test_clean_data_derivable(self, clean):
        table, oracle, _ = clean
        lattice = table.lattice
        target = list(lattice.successors(lattice.top))[0]
        ok, _ = derivable(lattice, lattice.top, target, oracle)
        assert ok

    def test_identity(self, clean):
        table, oracle, _ = clean
        top = table.lattice.top
        assert derivable(table.lattice, top, top, oracle)[0]


class TestRollup:
    def test_safe_rollup_matches_direct(self, clean):
        table, oracle, cube = clean
        lattice = table.lattice
        for target in lattice.points():
            if target == lattice.top:
                continue
            rolled = rollup(cube, lattice.top, target, oracle)
            assert rolled == cube.cuboids[target], lattice.describe(target)

    def test_unsafe_rollup_reproduces_paper_wrong_answer(self, fig1_table):
        cube = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        oracle = PropertyOracle.from_data(fig1_table)
        lattice = fig1_table.lattice
        source = lattice.point_by_description("$n:rigid, $p:rigid, $y:rigid")
        target = lattice.point_by_description("$n:LND, $p:rigid, $y:rigid")
        with pytest.raises(CubeError):
            rollup(cube, source, target, oracle)
        # The unchecked arithmetic is what a naive roll-up computes.
        wrong = rollup_cuboid(
            lattice, cube.cuboids[source], source, target,
            get_function("COUNT"),
        )
        # The paper: "added up, the result is two, which is wrong."
        assert wrong[("p1", "2003")] == 2.0
        assert cube.cuboids[target][("p1", "2003")] == 1.0

    def test_an_empty_dict_rolls_up_to_an_empty_cuboid(self, fig1_table):
        """``pack({})`` cannot know its arity; the roll-up gives the
        result the target's, and a patch then codes into it."""
        lattice = fig1_table.lattice
        source = lattice.top
        target = lattice.point_by_description("$n:LND, $p:rigid, $y:rigid")
        rolled = rollup_cuboid(lattice, {}, source, target, get_function("SUM"))
        assert rolled == {} and len(rolled.axes) == 2
        patched = rolled.updated({("p1", "2003"): 2.0}, lambda current, n: n)
        assert patched == {("p1", "2003"): 2.0}

    def test_non_distributive_rejected(self, clean):
        table, oracle, cube = clean
        cube.aggregate = "AVG"
        try:
            with pytest.raises(CubeError):
                rollup(cube, table.lattice.top, table.lattice.bottom, oracle)
        finally:
            cube.aggregate = "COUNT"


class TestSliceDice:
    def test_slice(self):
        cuboid = {("a", "x"): 1.0, ("a", "y"): 2.0, ("b", "x"): 3.0}
        assert slice_cuboid(cuboid, 0, "a") == {("x",): 1.0, ("y",): 2.0}
        assert slice_cuboid(cuboid, 1, "x") == {("a",): 1.0, ("b",): 3.0}

    def test_slice_bad_index(self):
        with pytest.raises(CubeError):
            slice_cuboid({("a",): 1.0}, 3, "a")

    def test_dice(self):
        cuboid = {("a", "x"): 1.0, ("a", "y"): 2.0, ("b", "x"): 3.0}
        assert dice_cuboid(cuboid, {0: ["a"], 1: ["x", "y"]}) == {
            ("a", "x"): 1.0, ("a", "y"): 2.0,
        }

    def test_dice_empty_result(self):
        assert dice_cuboid({("a",): 1.0}, {0: ["z"]}) == {}


class TestHelpers:
    def test_cell_lookup(self, fig1_table):
        cube = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        point = fig1_table.lattice.point_by_description(
            "$n:LND, $p:LND, $y:rigid"
        )
        assert cube.cell(point, ("2003",)) == 2.0
        assert cube.cell(point, ("1888",)) is None

    def test_best_source_prefers_small(self, clean):
        """The server's rollup rung derives from the smallest sound
        resident source."""
        table, oracle, cube = clean
        lattice = table.lattice
        server = CubeServer(table, oracle, cache_cells=100000)
        others = [point for point in lattice.points() if point != lattice.bottom]
        assert set(server.warm(others)) == set(others)
        result = server.query(Query(point=lattice.bottom))
        assert result.tier == "rollup"
        assert result.as_cuboid() == cube.cuboids[lattice.bottom]
        # The smallest derivation source for the grand total is the
        # smallest resident cuboid (everything is derivable on clean data).
        smallest = min(len(cube.cuboids[point]) for point in others)
        (taken,) = [rung for rung in result.rungs if rung.taken]
        assert f"({smallest} cells)" in taken.reason
