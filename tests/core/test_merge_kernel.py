"""The shared merge kernel (:mod:`repro.core.merge`): one soundness
story for the engine's partition merge and the cluster's shard gather."""

import pytest

from repro.core import packed as packed_module
from repro.core.aggregates import get_function
from repro.core.merge import (
    STATE_EXACT_AGGREGATES,
    finalize_states,
    merge_disjoint,
    merge_finalized,
    merge_states,
    states_from_finalized,
)
from repro.core.packed import PackedCuboid, pack
from repro.errors import CubeError


def packed_states(states):
    """A state cuboid as a shard ships it: the keys packed, the partial
    states in a list parallel to the codes."""
    keys = pack(dict.fromkeys(states, 0.0))
    return PackedCuboid(keys.axes, keys.codes, [states[key] for key in keys])


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
            fn,
            [
                packed_states({("a",): 2, ("b",): 1}),
                packed_states({("a",): 3}),
                packed_states({}),
            ],
        )
        assert merged == {("a",): 5, ("b",): 1}

    def test_avg_states_merge_pairwise(self):
        fn = get_function("AVG")
        merged = merge_states(
            fn,
            [
                packed_states({("a",): (10.0, 2)}),
                packed_states({("a",): (2.0, 1), ("b",): (4.0, 4)}),
            ],
        )
        assert merged == {("a",): (12.0, 3), ("b",): (4.0, 4)}
        assert finalize_states(fn, merged) == {
            ("a",): 4.0,
            ("b",): 1.0,
        }

    def test_min_merge_handles_empty_side(self):
        fn = get_function("MIN")
        merged = merge_states(
            fn, [pack({("a",): 5.0}), pack({("a",): 3.0}), pack({})]
        )
        assert finalize_states(fn, merged) == {("a",): 3.0}

    @pytest.mark.parametrize("limit", [packed_module.CODE_LIMIT, 5])
    def test_shards_of_two_code_containers_merge_in_wire_order(
        self, monkeypatch, limit
    ):
        """With the limit at 5, one shard's 2x2 dictionaries still code
        into an ``array('q')``, the other's 2x3 and the union's 3x4 into
        lists: the fold is the same either way."""
        monkeypatch.setattr(packed_module, "CODE_LIMIT", limit)
        fn = get_function("SUM")
        left = pack({("a", "x"): 1.0, ("b", "y"): 2.0})
        right = pack({("a", "x"): 4.0, ("c", "z"): 8.0, ("a", "w"): 16.0})
        merged = merge_states(fn, [left, right])
        expected = {
            ("a", "w"): 16.0,
            ("a", "x"): 5.0,
            ("b", "y"): 2.0,
            ("c", "z"): 8.0,
        }
        assert list(finalize_states(fn, merged).items()) == list(
            expected.items()
        )
        assert not isinstance(left.codes, list)
        assert isinstance(right.codes, list) is (limit == 5)
        assert isinstance(merged.codes, list) is (limit == 5)


class TestStatesFromFinalized:
    def test_count_round_trips_as_float_states(self):
        """A finalized COUNT cuboid is its own states: float counts
        below 2**53 add exactly."""
        cuboid = pack({("a",): 3.0})
        states = states_from_finalized("COUNT", cuboid)
        assert states is cuboid
        assert isinstance(states[("a",)], float)
        merged = merge_states(
            get_function("COUNT"), [states, pack({("a",): 4.0})]
        )
        assert merged == {("a",): 7.0}

    @pytest.mark.parametrize("name", sorted(STATE_EXACT_AGGREGATES))
    def test_state_exact_lift_then_finalize_is_identity(self, name):
        fn = get_function(name)
        cuboid = pack({("a",): 4.0, ("b",): -2.0})
        lifted = states_from_finalized(name, cuboid)
        assert finalize_states(fn, lifted) == cuboid

    def test_avg_cannot_be_lifted(self):
        # The whole reason the cluster ships raw states for AVG.
        with pytest.raises(CubeError):
            states_from_finalized("AVG", pack({("a",): 4.0}))


class TestMergeFinalized:
    def test_distributive_cuboids_merge(self):
        merged = merge_finalized(
            "SUM", [pack({("a",): 1.5}), pack({("a",): 2.5, ("b",): 1.0})]
        )
        assert merged == {("a",): 4.0, ("b",): 1.0}

    def test_avg_rejected(self):
        with pytest.raises(CubeError):
            merge_finalized("AVG", [pack({("a",): 1.0}), pack({("a",): 2.0})])
