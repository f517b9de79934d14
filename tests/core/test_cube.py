"""Unit tests for CubeResult and compute_cube."""

import pytest

from repro.core.cube import ExecutionOptions, compute_cube
from repro.errors import CubeError


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
        point = next(iter(two.cuboids))
        if two.cuboids[point]:
            key = next(iter(two.cuboids[point]))
            two.cuboids[point][key] += 1.0
            assert not one.same_contents(two)
            assert one.diff(two)

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
