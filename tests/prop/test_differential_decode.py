"""The column-wise group-key decoder against the per-gid reference.

:func:`repro.core.columnar.decode_group_ids` decodes a whole gid column
one kept axis at a time; ``tests/prop/reference_decode.py`` is the
per-gid ``divmod`` closure it replaced.  Both must return equal keys in
equal order, null slots (``radix == len(dictionary) + 1``) and empty
dictionaries (``radix`` floored at 1) included.
"""

from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import decode_group_ids
from tests.prop.reference_decode import make_group_decoder


def reference(kept, gids):
    decode = make_group_decoder(kept)
    return [decode(gid) for gid in gids]


def axis(size, null_slot=False):
    """A kept axis of ``size`` distinct values, as a sweep or a
    top-down build records it."""
    dictionary = tuple(f"v{code}" for code in range(size))
    return dictionary, size + 1 if null_slot else max(1, size)


@st.composite
def kept_and_gids(draw):
    kept = [
        axis(draw(st.integers(0, 300)), null_slot=draw(st.booleans()))
        for _ in range(draw(st.integers(0, 5)))
    ]
    top = prod(radix for _, radix in kept)
    gids = draw(st.lists(st.integers(0, top - 1), max_size=60))
    return kept, gids


@given(kept_and_gids())
@settings(max_examples=200, deadline=None)
def test_equal_keys_in_equal_order(case):
    kept, gids = case
    assert decode_group_ids(kept, gids) == reference(kept, gids)


def test_zero_kept_axes_is_one_empty_key_per_gid():
    assert decode_group_ids([], [0, 0, 0]) == reference([], [0, 0, 0])
    assert decode_group_ids([], [0, 0, 0]) == [(), (), ()]
    assert decode_group_ids([], []) == []


@pytest.mark.parametrize("size", [1, 2, 3, 7, 64, 255, 300])
@pytest.mark.parametrize("null_slot", [False, True])
def test_one_axis_every_digit(size, null_slot):
    kept = [axis(size, null_slot)]
    gids = list(range(kept[0][1]))
    assert decode_group_ids(kept, gids) == reference(kept, gids)


def test_the_null_slot_decodes_to_none():
    kept = [axis(2, null_slot=True), axis(3)]
    gids = list(range(prod(radix for _, radix in kept)))
    decoded = decode_group_ids(kept, gids)
    assert decoded == reference(kept, gids)
    assert decoded[6:] == [(None, "v0"), (None, "v1"), (None, "v2")]


def test_an_empty_dictionary_has_radix_one():
    kept = [axis(3), axis(0), axis(2, null_slot=True)]
    gids = list(range(prod(radix for _, radix in kept)))[::-1]
    decoded = decode_group_ids(kept, gids)
    assert decoded == reference(kept, gids)
    assert {key[1] for key in decoded} == {None}


def test_keys_come_back_in_gid_order_from_a_dict_view():
    kept = [axis(4), axis(5)]
    cells = {gid: None for gid in (19, 0, 7, 7, 12)}
    assert decode_group_ids(kept, cells.keys()) == reference(kept, cells)
