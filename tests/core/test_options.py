"""Unit tests for ExecutionOptions, the one ``compute_cube`` signature,
CostSnapshot, and the CubeResult.diff union fix."""

import warnings

import pytest

from repro.core.cube import (
    CostSnapshot,
    ExecutionOptions,
    compute_cube,
)
from repro.errors import CubeError


class TestExecutionOptions:
    def test_frozen(self):
        opts = ExecutionOptions()
        with pytest.raises(Exception):
            opts.algorithm = "BUC"

    def test_points_normalized_to_tuple(self, fig1_table):
        opts = ExecutionOptions(points=[fig1_table.lattice.top])
        assert isinstance(opts.points, tuple)

    def test_replace(self):
        opts = ExecutionOptions(algorithm="BUC").replace(workers=4)
        assert opts.algorithm == "BUC"
        assert opts.workers == 4

    def test_validation(self):
        with pytest.raises(CubeError):
            ExecutionOptions(workers=0)
        with pytest.raises(CubeError):
            ExecutionOptions(engine="warp")


class TestComputeCubeShim:
    def test_options_positional_no_warning(self, fig1_table):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = compute_cube(
                fig1_table, ExecutionOptions(algorithm="NAIVE")
            )
        assert result.algorithm == "NAIVE"

    def test_options_keyword_no_warning(self, fig1_table):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = compute_cube(
                fig1_table, options=ExecutionOptions(algorithm="COUNTER")
            )
        assert result.algorithm == "COUNTER"

    def test_no_options_defaults_to_serial_naive(self, fig1_table):
        result = compute_cube(fig1_table)
        assert result.algorithm == "NAIVE"
        assert result.same_contents(
            compute_cube(fig1_table, ExecutionOptions())
        )

    def test_mixing_options_and_legacy_rejected(self, fig1_table):
        """ExecutionOptions is the one signature: the PR 1 surface (a
        bare algorithm string, ``oracle=``/``memory_entries=``/
        ``points=``/``min_support=`` keywords) is gone, not shimmed."""
        with pytest.raises(CubeError, match="ExecutionOptions"):
            compute_cube(fig1_table, "BUC")
        with pytest.raises(TypeError):
            compute_cube(fig1_table, "BUC", options=ExecutionOptions())
        for legacy in ("oracle", "memory_entries", "points", "min_support"):
            with pytest.raises(TypeError):
                compute_cube(fig1_table, ExecutionOptions(), **{legacy: None})
        with pytest.raises(TypeError):
            compute_cube(
                fig1_table,
                ExecutionOptions(),
                options=ExecutionOptions(),
            )


class TestCostSnapshot:
    def test_attributes_primary(self, fig1_table):
        result = compute_cube(fig1_table, ExecutionOptions(algorithm="BUC"))
        assert isinstance(result.cost, CostSnapshot)
        assert result.cost.cpu_ops > 0
        assert result.cost.simulated_seconds > 0
        assert result.cost.wall_seconds > 0
        assert result.simulated_seconds == result.cost.simulated_seconds

    def test_attributes_are_the_only_read(self, fig1_table):
        """No dict-style access: attributes, or ``as_dict()`` for a flat
        mapping."""
        cost = compute_cube(fig1_table, ExecutionOptions(algorithm="BUC")).cost
        with pytest.raises(TypeError):
            cost["simulated_seconds"]
        assert not hasattr(cost, "get") and not hasattr(cost, "keys")
        assert cost.as_dict()["simulated_seconds"] == cost.simulated_seconds

    def test_as_dict_for_csv(self):
        snapshot = CostSnapshot(cpu_ops=5, page_reads=2, simulated_seconds=0.5)
        flat = snapshot.as_dict()
        assert flat["cpu_ops"] == 5
        assert flat["page_reads"] == 2
        assert flat["simulated_seconds"] == 0.5
        assert "parallel_simulated_seconds" in flat

    def test_from_mapping_roundtrip(self):
        snapshot = CostSnapshot.from_mapping(
            {"cpu_ops": 3.0, "page_reads": 1.0, "simulated_seconds": 0.25},
            wall_seconds=0.1,
        )
        assert snapshot.cpu_ops == 3
        assert snapshot.wall_seconds == 0.1
        # Serial snapshots default the critical path to the total.
        assert snapshot.parallel_simulated_seconds == 0.25

    def test_dict_cost_coerced_on_cube_result(self, fig1_table):
        from repro.core.cube import CubeResult

        result = CubeResult(
            lattice=fig1_table.lattice,
            cuboids={},
            cost={"cpu_ops": 2.0, "simulated_seconds": 0.125},
        )
        assert isinstance(result.cost, CostSnapshot)
        assert result.cost.cpu_ops == 2


class TestDiffUnion:
    def test_diff_sees_points_only_in_other(self, fig1_table):
        full = compute_cube(fig1_table, ExecutionOptions())
        partial = compute_cube(
            fig1_table,
            ExecutionOptions(points=(fig1_table.lattice.top,)),
        )
        # partial -> full: the missing points exist only in `other`, which
        # the old implementation silently skipped.
        assert partial.diff(full)
        assert full.diff(partial)

    def test_diff_empty_for_identical(self, fig1_table):
        one = compute_cube(fig1_table, ExecutionOptions())
        two = compute_cube(fig1_table, ExecutionOptions(algorithm="BUC"))
        assert one.diff(two) == []
