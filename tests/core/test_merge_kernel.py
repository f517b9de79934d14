"""The shared merge kernel (:mod:`repro.core.merge`): one soundness
story for the engine's partition merge and the cluster's shard gather."""

import pytest

from repro.core.aggregates import get_function
from repro.core.merge import (
    STATE_EXACT_AGGREGATES,
    finalize_states,
    merge_disjoint,
    merge_finalized,
    merge_states,
    states_from_finalized,
)
from repro.errors import CubeError


class TestMergeDisjoint:
    def test_merges_distinct_points(self):
        left = {(0, 0): {("a",): 1.0}}
        right = {(0, 1): {("b",): 2.0}}
        merged = merge_disjoint([left, right])
        assert merged == {(0, 0): {("a",): 1.0}, (0, 1): {("b",): 2.0}}

    def test_rejects_overlapping_points(self):
        colliding = {(0, 0): {("a",): 1.0}}
        with pytest.raises(CubeError):
            merge_disjoint([colliding, dict(colliding)])

    def test_empty_input(self):
        assert merge_disjoint([]) == {}


class TestMergeStates:
    def test_count_states_add(self):
        fn = get_function("COUNT")
        merged = merge_states(
            fn, [{("a",): 2, ("b",): 1}, {("a",): 3}, {}]
        )
        assert merged == {("a",): 5, ("b",): 1}

    def test_avg_states_merge_pairwise(self):
        fn = get_function("AVG")
        merged = merge_states(
            fn,
            [{("a",): (10.0, 2)}, {("a",): (2.0, 1), ("b",): (4.0, 4)}],
        )
        assert merged == {("a",): (12.0, 3), ("b",): (4.0, 4)}
        assert finalize_states(fn, merged) == {
            ("a",): 4.0,
            ("b",): 1.0,
        }

    def test_min_merge_handles_empty_side(self):
        fn = get_function("MIN")
        merged = merge_states(fn, [{("a",): 5.0}, {("a",): 3.0}, {}])
        assert finalize_states(fn, merged) == {("a",): 3.0}


class TestStatesFromFinalized:
    def test_count_round_trips_as_float_states(self):
        """A finalized COUNT cuboid is its own states: float counts
        below 2**53 add exactly."""
        cuboid = {("a",): 3.0}
        states = states_from_finalized("COUNT", cuboid)
        assert states is cuboid
        assert isinstance(states[("a",)], float)
        merged = merge_states(get_function("COUNT"), [states, {("a",): 4.0}])
        assert merged == {("a",): 7.0}

    @pytest.mark.parametrize("name", sorted(STATE_EXACT_AGGREGATES))
    def test_state_exact_lift_then_finalize_is_identity(self, name):
        fn = get_function(name)
        cuboid = {("a",): 4.0, ("b",): -2.0}
        lifted = states_from_finalized(name, cuboid)
        assert finalize_states(fn, lifted) == cuboid

    def test_avg_cannot_be_lifted(self):
        # The whole reason the cluster ships raw states for AVG.
        with pytest.raises(CubeError):
            states_from_finalized("AVG", {("a",): 4.0})


class TestMergeFinalized:
    def test_distributive_cuboids_merge(self):
        merged = merge_finalized(
            "SUM", [{("a",): 1.5}, {("a",): 2.5, ("b",): 1.0}]
        )
        assert merged == {("a",): 4.0, ("b",): 1.0}

    def test_avg_rejected(self):
        with pytest.raises(CubeError):
            merge_finalized("AVG", [{("a",): 1.0}, {("a",): 2.0}])
