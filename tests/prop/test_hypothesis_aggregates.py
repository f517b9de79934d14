"""Merge laws for every registered aggregate function.

The cluster's scatter-gather merge (and the engine's partition merge,
and roll-up) are only sound if, for every aggregate, ``merge`` is
associative and commutative with ``new()`` as identity, and merging
split folds equals folding everything — i.e. partial states form a
commutative monoid and the fold is a monoid homomorphism.  These tests
quantify over :func:`repro.core.aggregates.registered_functions`, so a
newly registered aggregate is automatically held to the same laws.

Measures are drawn as integer-valued floats: within 2**53 their
addition is exact, so the laws hold with ``==``, not approximately —
matching the bit-identity contract the serving and cluster tests assert.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import registered_functions
from repro.core.merge import (
    STATE_EXACT_AGGREGATES,
    finalize_states,
    merge_states,
)
from tests.core.test_merge_kernel import packed_states

FUNCTIONS = sorted(registered_functions())

measures = st.lists(
    st.integers(min_value=-(10**6), max_value=10**6).map(float),
    max_size=30,
)
nonempty_measures = st.lists(
    st.integers(min_value=-(10**6), max_value=10**6).map(float),
    min_size=1,
    max_size=30,
)


def fold(fn, values):
    state = fn.new()
    for value in values:
        state = fn.add(state, value)
    return state


@pytest.mark.parametrize("name", FUNCTIONS)
class TestMergeLaws:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_identity(self, name, data):
        fn = registered_functions()[name]
        state = fold(fn, data.draw(measures))
        assert fn.merge(state, fn.new()) == state
        assert fn.merge(fn.new(), state) == state

    @settings(max_examples=60)
    @given(data=st.data())
    def test_commutative(self, name, data):
        fn = registered_functions()[name]
        left = fold(fn, data.draw(measures))
        right = fold(fn, data.draw(measures))
        assert fn.merge(left, right) == fn.merge(right, left)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_associative(self, name, data):
        fn = registered_functions()[name]
        a = fold(fn, data.draw(measures))
        b = fold(fn, data.draw(measures))
        c = fold(fn, data.draw(measures))
        assert fn.merge(fn.merge(a, b), c) == fn.merge(
            a, fn.merge(b, c)
        )

    @settings(max_examples=60)
    @given(data=st.data())
    def test_merge_of_split_fold_equals_full_fold(self, name, data):
        """finalize(merge(fold(xs), fold(ys))) == finalize(fold(xs+ys)).

        This is exactly what the cluster does: each shard folds its
        slice of the facts, the coordinator merges the partials.
        """
        fn = registered_functions()[name]
        values = data.draw(nonempty_measures)
        split = data.draw(
            st.integers(min_value=0, max_value=len(values))
        )
        merged = fn.merge(
            fold(fn, values[:split]), fold(fn, values[split:])
        )
        assert fn.finalize(merged) == fn.finalize(fold(fn, values))

    @settings(max_examples=40)
    @given(data=st.data())
    def test_n_way_shard_merge(self, name, data):
        """The kernel's keyed merge over N shards equals one serial
        fold per key, independent of how facts landed on shards."""
        fn = registered_functions()[name]
        n_shards = data.draw(st.integers(min_value=1, max_value=5))
        keys = [("k0",), ("k1",)]
        assignments = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(keys),
                    st.integers(min_value=0, max_value=n_shards - 1),
                    st.integers(min_value=-1000, max_value=1000).map(
                        float
                    ),
                ),
                min_size=1,
                max_size=25,
            )
        )
        shard_states = [{} for _ in range(n_shards)]
        serial = {}
        for key, shard, value in assignments:
            states = shard_states[shard]
            states[key] = fn.add(states.get(key, fn.new()), value)
            serial[key] = fn.add(serial.get(key, fn.new()), value)
        merged = merge_states(fn, [packed_states(s) for s in shard_states])
        assert finalize_states(fn, merged) == {
            key: fn.finalize(state) for key, state in serial.items()
        }


class TestStateExactRegistry:
    def test_state_exact_functions_are_registered(self):
        assert STATE_EXACT_AGGREGATES <= set(FUNCTIONS)

    def test_avg_is_not_state_exact(self):
        # AVG's finalized value does not merge; the cluster must ship
        # its raw (sum, count) states instead.
        assert "AVG" not in STATE_EXACT_AGGREGATES
