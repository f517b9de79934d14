"""Unit tests for the algorithm registry."""

import pytest

from repro.core.algorithms.registry import (
    ALWAYS_CORRECT,
    META,
    NEEDS_BOTH,
    NEEDS_DISJOINTNESS,
    available,
    get_algorithm,
)
from repro.errors import CubeError


class TestRegistry:
    def test_all_algorithms_registered(self):
        assert set(available()) == {
            "AUTO", "NAIVE", "COUNTER", "COLUMNAR", "BUC", "BUCOPT",
            "BUCCUST", "TD", "TDOPT", "TDOPTALL", "TDCUST",
        }

    def test_lookup_case_insensitive(self):
        assert get_algorithm("buc").name == "BUC"

    def test_unknown_raises(self):
        with pytest.raises(CubeError):
            get_algorithm("nope")

    def test_classification_partitions_lineup(self):
        tagged = (
            set(ALWAYS_CORRECT)
            | set(NEEDS_DISJOINTNESS)
            | set(NEEDS_BOTH)
            | set(META)
        )
        assert tagged == set(available())
        assert not set(ALWAYS_CORRECT) & set(NEEDS_DISJOINTNESS)

    def test_instances_are_singletons(self):
        assert get_algorithm("TD") is get_algorithm("TD")


class TestAuto:
    def test_auto_registered(self):
        assert "AUTO" in available()

    def test_auto_delegates_and_is_correct(self, fig1_table):
        from repro.core.cube import ExecutionOptions, compute_cube
        from repro.core.properties import PropertyOracle

        oracle = PropertyOracle.from_data(fig1_table)
        result = compute_cube(
            fig1_table, ExecutionOptions(algorithm="AUTO", oracle=oracle)
        )
        assert result.algorithm.startswith("AUTO->")
        assert result.same_contents(compute_cube(
            fig1_table, ExecutionOptions(algorithm="NAIVE")
        ))

    def test_auto_with_pessimistic_default(self, fig1_table):
        from repro.core.cube import ExecutionOptions, compute_cube

        result = compute_cube(fig1_table, ExecutionOptions(algorithm="AUTO"))
        assert result.same_contents(compute_cube(
            fig1_table, ExecutionOptions(algorithm="NAIVE")
        ))

    def test_auto_picks_safe_choice_on_clean_data(self):
        from repro.core.cube import ExecutionOptions, compute_cube
        from repro.core.properties import PropertyOracle
        from tests.conftest import small_workload

        table = small_workload(
            n_facts=300, n_axes=5, density="sparse"
        ).fact_table()
        oracle = PropertyOracle.from_flags(table.lattice, True, True)
        result = compute_cube(
            table, ExecutionOptions(algorithm="AUTO", oracle=oracle, memory_entries=500)
        )
        # Sparse, high-dimensional, disjoint: the advisor goes bottom-up.
        assert result.algorithm == "AUTO->BUCOPT"
        assert result.same_contents(compute_cube(
            table, ExecutionOptions(algorithm="NAIVE")
        ))
