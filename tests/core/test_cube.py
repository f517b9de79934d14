"""Unit tests for CubeResult and compute_cube."""

import pytest

from repro.core.cube import CubeResult, ExecutionOptions, compute_cube
from repro.core.packed import PackedCuboid
from repro.errors import CubeError


def first_cell(cube):
    """The first point with a cell, and its first key."""
    point = next(point for point, cuboid in cube.cuboids.items() if cuboid)
    return point, next(iter(cube.cuboids[point]))


def changed(cube, point, key, step, delta=None):
    """Replace ``cube``'s cuboid at ``point`` by its successor once
    ``step(current, delta)`` is the cell at ``key`` (``None`` removes
    it): a published cuboid is never written to."""
    cube.cuboids[point] = cube.cuboids[point].updated({key: delta}, step)


class TestCubeResult:
    def test_cell_lookup(self, fig1_table):
        cube = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        point = fig1_table.lattice.point_by_description(
            "$n:LND, $p:LND, $y:rigid"
        )
        assert cube.cell(point, ("2003",)) == 2.0
        assert cube.cell(point, ("1999",)) is None

    def test_cuboid_missing_point(self, fig1_table):
        cube = compute_cube(
            fig1_table,
            ExecutionOptions(algorithm="NAIVE", points=[fig1_table.lattice.top]),
        )
        with pytest.raises(CubeError):
            cube.cuboid(fig1_table.lattice.bottom)

    def test_total_cells(self, fig1_table):
        cube = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        assert cube.total_cells() == sum(
            len(cuboid) for cuboid in cube.cuboids.values()
        )

    def test_same_contents_reflexive(self, fig1_table):
        cube = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        assert cube.same_contents(cube)

    def test_same_contents_detects_value_diff(self, fig1_table):
        one = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        two = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        point, key = first_cell(two)
        changed(two, point, key, lambda value, _: value + 1.0)
        assert not one.same_contents(two)
        assert one.diff(two) == [
            f"{one.lattice.describe(point)} {key}: "
            f"{one.cuboids[point][key]} != {two.cuboids[point][key]}"
        ]

    def test_same_contents_detects_an_extra_key(self, fig1_table):
        one = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        two = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        point, key = first_cell(two)
        extra = ("~",) * len(key)
        changed(two, point, extra, lambda _, delta: delta, 3.0)
        assert not one.same_contents(two)
        assert not two.same_contents(one)
        assert one.diff(two) == [
            f"{one.lattice.describe(point)} {extra}: None != 3.0"
        ]

    def test_same_contents_detects_a_missing_key(self, fig1_table):
        one = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        two = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        point, key = first_cell(two)
        value = two.cuboids[point][key]
        changed(two, point, key, lambda *_: None)
        assert key not in two.cuboids[point]
        assert not one.same_contents(two)
        assert not two.same_contents(one)
        assert one.diff(two) == [
            f"{one.lattice.describe(point)} {key}: {value} != None"
        ]

    def test_same_contents_holds_within_tol(self, fig1_table):
        one = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        two = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        point, key = first_cell(two)
        changed(two, point, key, lambda value, _: value + 1e-3)
        assert one.same_contents(two, tol=1e-2)
        assert not one.same_contents(two, tol=1e-4)
        assert not one.same_contents(two)

    def test_a_hand_built_result_is_packed(self, fig1_table):
        lattice = fig1_table.lattice
        point = lattice.point_by_description("$n:LND, $p:LND, $y:rigid")
        cube = CubeResult(
            lattice=lattice, cuboids={point: {("2004",): 1, ("2003",): 2.0}}
        )
        cuboid = cube.cuboids[point]
        assert isinstance(cuboid, PackedCuboid)
        assert list(cuboid.items()) == [(("2003",), 2.0), (("2004",), 1.0)]
        computed = compute_cube(
            fig1_table, ExecutionOptions(algorithm="NAIVE", points=[point])
        )
        assert CubeResult(lattice, dict(computed.cuboids)).cuboids[
            point
        ] is computed.cuboids[point]

    def test_same_contents_detects_missing_point(self, fig1_table):
        one = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        two = compute_cube(
            fig1_table,
            ExecutionOptions(algorithm="NAIVE", points=[fig1_table.lattice.top]),
        )
        assert not one.same_contents(two)

    def test_summary_mentions_algorithm(self, fig1_table):
        cube = compute_cube(fig1_table, ExecutionOptions(algorithm="COUNTER"))
        assert "COUNTER" in cube.summary()

    def test_cost_snapshot_attached(self, fig1_table):
        cube = compute_cube(fig1_table, ExecutionOptions(algorithm="BUC"))
        assert cube.simulated_seconds > 0
        assert cube.cost.cpu_ops > 0


class TestComputeCube:
    def test_unknown_algorithm(self, fig1_table):
        with pytest.raises(CubeError):
            compute_cube(fig1_table, ExecutionOptions(algorithm="MAGIC"))

    def test_points_restriction(self, fig1_table):
        top = fig1_table.lattice.top
        cube = compute_cube(
            fig1_table, ExecutionOptions(algorithm="NAIVE", points=[top])
        )
        assert list(cube.cuboids) == [top]

    def test_restriction_consistent_with_full(self, fig1_table):
        top = fig1_table.lattice.top
        for name in ("NAIVE", "COUNTER", "BUC", "TD"):
            full = compute_cube(fig1_table, ExecutionOptions(algorithm=name))
            only = compute_cube(
                fig1_table, ExecutionOptions(algorithm=name, points=[top])
            )
            assert only.cuboids[top] == full.cuboids[top]
