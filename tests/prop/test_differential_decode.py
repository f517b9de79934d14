"""Group ids packed by column against the per-gid reference decoder.

:func:`repro.core.packed.from_group_ids` packs a kernel's cells straight
from its mixed-radix group ids, re-ranking each digit into the sorted
dictionary; ``tests/prop/reference_decode.py`` is the per-gid ``divmod``
decoder the column-wise decode replaced.  Every cell whose key the
reference decodes without a null part must come back under that key
with its value, and no other: null slots (``radix == len(dictionary) +
1``) and empty dictionaries (``radix`` floored at 1) drop their cells.
"""

from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packed import from_group_ids
from tests.prop.reference_decode import make_group_decoder


def packed(kept, gids):
    """``from_group_ids`` over ``kept`` (first-seen dictionaries, as a
    kernel records them); each cell's value is its index in ``gids``."""
    axes = tuple(tuple(sorted(dictionary)) for dictionary, _ in kept)
    ranks = [
        [axis.index(value) for value in dictionary]
        + [None] * (radix - len(dictionary))
        for (dictionary, radix), axis in zip(kept, axes)
    ]
    return from_group_ids(
        axes, ranks, gids, [float(index) for index in range(len(gids))]
    )


def reference(kept, gids):
    """The cells the reference decodes to a key without a null part,
    by key, in key order."""
    decode = make_group_decoder(kept)
    cells = {
        decode(gid): float(index) for index, gid in enumerate(gids)
    }
    return sorted(
        (key, value) for key, value in cells.items() if None not in key
    )


def assert_equal_cells(kept, gids):
    assert list(packed(kept, gids).items()) == reference(kept, gids)


def axis(size, null_slot=False):
    """A kept axis of ``size`` distinct values, as a sweep or a
    top-down build records it: first-seen order, not sorted order."""
    dictionary = tuple(f"v{code}" for code in range(size))[::-1]
    return dictionary, size + 1 if null_slot else max(1, size)


@st.composite
def kept_and_gids(draw):
    kept = [
        axis(draw(st.integers(0, 300)), null_slot=draw(st.booleans()))
        for _ in range(draw(st.integers(0, 5)))
    ]
    top = prod(radix for _, radix in kept)
    gids = draw(st.lists(st.integers(0, top - 1), max_size=60, unique=True))
    return kept, gids


@given(kept_and_gids())
@settings(max_examples=200, deadline=None)
def test_equal_keys_in_equal_order(case):
    kept, gids = case
    assert_equal_cells(kept, gids)


def test_zero_kept_axes_is_one_empty_key_per_gid():
    assert_equal_cells([], [0])
    assert list(packed([], [0]).items()) == [((), 0.0)]
    assert list(packed([], []).items()) == []


@pytest.mark.parametrize("size", [1, 2, 3, 7, 64, 255, 300])
@pytest.mark.parametrize("null_slot", [False, True])
def test_one_axis_every_digit(size, null_slot):
    kept = [axis(size, null_slot)]
    assert_equal_cells(kept, list(range(kept[0][1])))


def test_the_null_slot_drops_its_cells():
    kept = [axis(2, null_slot=True), axis(3)]
    gids = list(range(prod(radix for _, radix in kept)))
    assert_equal_cells(kept, gids)
    assert len(packed(kept, gids)) == 6  # gids 6..8 hold the null digit


def test_an_empty_dictionary_has_radix_one():
    kept = [axis(3), axis(0), axis(2, null_slot=True)]
    gids = list(range(prod(radix for _, radix in kept)))[::-1]
    assert_equal_cells(kept, gids)
    assert len(packed(kept, gids)) == 0


def test_keys_come_back_in_key_order_from_a_dict_view():
    kept = [axis(4), axis(5)]
    cells = {gid: None for gid in (19, 0, 7, 7, 12)}
    assert list(packed(kept, cells.keys()).items()) == reference(
        kept, list(cells)
    )
