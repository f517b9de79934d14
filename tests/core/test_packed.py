"""The packed cuboid: a read-only mapping over sorted codes and values.

Every operation is held to the dict it stands for: the same cells, in
wire order (keys sorted part by part — the sort the API door used to run
on every request, kept here as the reference).  The differentials run
twice, the second time with :data:`~repro.core.packed.CODE_LIMIT` so
small that nearly every cuboid holds its codes in a ``list``, the
container of a radix product too wide for ``array('q')``.
"""

import contextlib
import math
import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import packed as packed_module
from repro.core.aggregates import get_function
from repro.core.packed import (
    CODE_LIMIT,
    PackedCuboid,
    as_codes,
    from_group_ids,
    pack,
)
from repro.core.rollup import dice_cuboid, slice_cuboid
from repro.errors import CubeError


@contextlib.contextmanager
def code_limit(limit):
    """Run the block with ``CODE_LIMIT`` set to ``limit``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(packed_module, "CODE_LIMIT", limit)
        yield


#: The real limit, then one that only a radix product of 1 stays under.
LIMITS = (CODE_LIMIT, 2)


def wire_sorted(cuboid):
    """The order ``QueryResult.to_dict`` sorted every payload into."""
    return sorted(cuboid.items(), key=lambda item: item[0])


def dict_slice(cuboid, position, value):
    """Slice, on a dict."""
    return {
        key[:position] + key[position + 1 :]: cell
        for key, cell in cuboid.items()
        if key[position] == value
    }


def dict_dice(cuboid, predicates):
    """Dice, on a dict."""
    return {
        key: cell
        for key, cell in cuboid.items()
        if all(
            position < len(key) and key[position] in values
            for position, values in predicates.items()
        )
    }


def assert_packed_as(packed, expected):
    assert isinstance(packed, PackedCuboid)
    assert packed.cells.typecode == "d"
    assert packed == expected and expected == packed
    assert list(packed.items()) == wire_sorted(expected)
    assert list(packed) == [key for key, _ in wire_sorted(expected)]
    assert list(packed.values()) == [value for _, value in wire_sorted(expected)]


CUBOID = {
    ("b", "x"): 1.0,
    ("a", "y"): 2.0,
    ("a", "x"): 3.0,
    ("c", "z"): 4.0,
}


class TestShape:
    def test_empty_cuboid(self):
        packed = pack({})
        assert_packed_as(packed, {})
        assert len(packed) == 0 and not packed
        assert packed.get(("a",)) is None
        assert ("a",) not in packed

    def test_empty_cuboid_keeps_given_dictionaries(self):
        packed = pack({}, (("a", "b"), ("x",)))
        assert packed.axes == (("a", "b"), ("x",))
        assert packed.sliced(0, "a") == {}

    def test_top_cuboid_holds_the_empty_key(self):
        packed = pack({(): 7.0})
        assert_packed_as(packed, {(): 7.0})
        assert packed.axes == ()
        assert packed[()] == 7.0 and () in packed
        assert list(packed) == [()]

    def test_lookup_and_order(self):
        packed = pack(CUBOID)
        assert_packed_as(packed, CUBOID)
        assert packed.axes == (("a", "b", "c"), ("x", "y", "z"))
        for key, value in CUBOID.items():
            assert packed[key] == value and key in packed

    @pytest.mark.parametrize(
        "key",
        [
            ("a",),  # too short
            ("a", "x", "y"),  # too long
            ("a", "q"),  # a part no cell has
            ("b", "y"),  # both parts known, the cell absent
            ("zz", "x"),  # past the end of the dictionary
            ("a", None),
            ("a", 5),
            None,
            5,
            ["a", "x"],
            "ax",
        ],
    )
    def test_absent_keys_of_any_shape(self, key):
        packed = pack(CUBOID)
        assert key not in packed
        assert packed.get(key) is None
        assert packed.get(key, -1.0) == -1.0
        with pytest.raises(KeyError):
            packed[key]

    def test_negative_zero_and_nan_round_trip(self):
        packed = pack({("a",): -0.0, ("b",): float("nan"), ("c",): 1.5})
        assert isinstance(packed, PackedCuboid)
        assert math.copysign(1.0, packed[("a",)]) == -1.0
        assert math.isnan(packed[("b",)])
        assert packed[("c",)] == 1.5

    def test_pickle_round_trip(self):
        packed = pack(CUBOID)
        restored = pickle.loads(pickle.dumps(packed))
        assert isinstance(restored, PackedCuboid)
        assert restored == packed
        assert list(restored.items()) == list(packed.items())

    def test_read_only(self):
        packed = pack(CUBOID)
        with pytest.raises(TypeError):
            packed[("a", "x")] = 9.0  # type: ignore[index]
        with pytest.raises(TypeError):
            hash(packed)


class TestOneForm:
    @pytest.mark.parametrize(
        "cuboid",
        [
            {("b",): 1, ("a",): 2},  # int values
            {("b",): 1.0, ("a",): True},  # a bool
        ],
    )
    def test_numbers_pack_as_floats(self, cuboid):
        packed = pack(cuboid)
        assert_packed_as(packed, cuboid)
        assert {type(value) for value in packed.values()} == {float}

    @pytest.mark.parametrize(
        "cuboid",
        [
            {("a", None): 1.0, ("a", "b"): 2.0},  # a null part
            {("b", "x"): 1.0, ("a",): 2.0},  # keys of two lengths
            {(None, "a"): 3.0, ("a", None): 1.0},  # null parts, first or last
            {("a", 5): 1.0},  # an int part
            {"ab": 1.0},  # not a tuple
        ],
    )
    def test_malformed_keys_are_refused(self, cuboid):
        with pytest.raises(CubeError, match="tuple of str parts"):
            pack(cuboid)

    def test_codes_past_the_limit_pack_as_a_list(self):
        # 11 axes of 64 values: a radix product of 2**66.
        values = [f"v{index:02d}" for index in range(64)]
        cuboid = {
            (value,) * 11: float(index) for index, value in enumerate(values)
        }
        out = pack(cuboid)
        assert type(out.codes) is list
        assert_packed_as(out, cuboid)
        assert out[("v05",) * 11] == 5.0
        # One axis fewer is 2**60: a slice codes into 64-bit slots again.
        sliced = slice_cuboid(out, 0, "v05")
        assert type(sliced.codes) is array
        assert_packed_as(sliced, {("v05",) * 10: 5.0})

    def test_a_patch_past_the_code_limit_stays_packed(self):
        # 30 axes of 4 values fit (2**60); a fifth value on each does not.
        cuboid = {(value,) * 30: 1.0 for value in "abcd"}
        packed = pack(cuboid)
        assert type(packed.codes) is array
        out = packed.updated({("e",) * 30: 1}, lambda current, n: float(n))
        assert type(out.codes) is list
        assert_packed_as(out, {**cuboid, ("e",) * 30: 1.0})
        assert list(packed.items()) == wire_sorted(cuboid)

    def test_a_non_float_step_is_stored_as_a_float(self):
        out = pack(CUBOID).updated({("a", "x"): 2}, lambda current, n: n)
        assert_packed_as(out, {**CUBOID, ("a", "x"): 2.0})
        assert type(out[("a", "x")]) is float

    @pytest.mark.parametrize("key", [("a", None), ("a",), ("a", "x", "y")])
    def test_a_malformed_delta_key_is_refused(self, key):
        with pytest.raises(CubeError):
            pack(CUBOID).updated({key: 1.0}, lambda current, n: n)

    def test_group_ids_past_the_code_limit_pack_as_a_list(self):
        """Dictionaries too wide for 64-bit codes: the cells keep them,
        with their codes in a list."""
        axes = tuple(tuple(f"v{index:02d}" for index in range(64)) for _ in range(11))
        assert 64**11 >= CODE_LIMIT
        ranks = [list(range(64))] * 11
        gids = [
            sum(digit * 64**position for position in range(11))
            for digit in (5, 63, 0)
        ]
        out = from_group_ids(axes, ranks, gids, [2.0, 3.0, 4.0])
        assert type(out.codes) is list
        assert out.axes == axes
        assert_packed_as(
            out, {("v05",) * 11: 2.0, ("v63",) * 11: 3.0, ("v00",) * 11: 4.0}
        )


# ----------------------------------------------------------------------
# every operation against the dict it stands for
# ----------------------------------------------------------------------
ALPHABET = ("B", "a", "b", "c", "d", "é")
PARTS = st.sampled_from(ALPHABET)


@st.composite
def cuboids(draw, arity=None):
    arity = draw(st.integers(0, 3)) if arity is None else arity
    keys = draw(
        st.lists(st.tuples(*[PARTS] * arity), unique=True, max_size=12)
    )
    values = st.floats(allow_nan=False, allow_infinity=False, width=64)
    return {key: draw(values) for key in keys}


@given(cuboid=cuboids())
@settings(max_examples=150, deadline=None)
def test_pack_matches_the_dict(cuboid):
    for limit in LIMITS:
        with code_limit(limit):
            assert_packed_as(pack(cuboid), cuboid)


@given(data=st.data(), cuboid=cuboids(arity=3))
@settings(max_examples=150, deadline=None)
def test_slice_and_dice_match_the_dict(data, cuboid):
    position = data.draw(st.integers(0, 2))
    value = data.draw(PARTS)
    predicates = data.draw(
        st.dictionaries(st.integers(0, 3), st.lists(PARTS, max_size=3), max_size=2)
    )
    for limit in LIMITS:
        with code_limit(limit):
            packed = pack(cuboid)
            assert_packed_as(
                slice_cuboid(packed, position, value),
                dict_slice(cuboid, position, value),
            )
            assert_packed_as(
                dice_cuboid(packed, predicates), dict_dice(cuboid, predicates)
            )


@given(data=st.data(), cuboid=cuboids(arity=3))
@settings(max_examples=150, deadline=None)
def test_projection_folds_like_the_dict(data, cuboid):
    """``rollup_cuboid``'s arithmetic: a drop-only projection of the
    codes, folded per target code in stored order.  Packed with the
    whole alphabet as dictionaries, as a server packs."""
    keep = sorted(data.draw(st.sets(st.integers(0, 2))))
    fn = get_function(data.draw(st.sampled_from(["COUNT", "MIN", "MAX"])))
    expected = {}
    for key, value in wire_sorted(cuboid):
        short = tuple(key[position] for position in keep)
        expected[short] = fn.merge(expected.get(short, fn.new()), value)
    for limit in LIMITS:
        with code_limit(limit):
            packed = pack(cuboid, (ALPHABET,) * 3)
            assert packed.axes == (ALPHABET,) * 3
            axes, codes = packed.projected(keep)
            folded = {}
            for code, value in zip(codes, packed.cells):
                folded[code] = fn.merge(folded.get(code, fn.new()), value)
            target = PackedCuboid(
                axes,
                as_codes(axes, sorted(folded)),
                array("d", [fn.finalize(folded[code]) for code in sorted(folded)]),
            )
            assert_packed_as(
                target, {key: fn.finalize(state) for key, state in expected.items()}
            )


@given(
    cuboid=cuboids(arity=2),
    deltas=st.dictionaries(
        st.tuples(st.sampled_from(["a", "c", "x", "y"]), PARTS),
        st.integers(-3, 3),
        max_size=5,
    ),
)
@settings(max_examples=200, deadline=None)
def test_updated_matches_the_dict(cuboid, deltas):
    """Insert, replace and delete cells — keys with parts new to their
    axis included — and compare with the same steps on a dict."""

    def step(current, delta):
        value = (0.0 if current is None else current) + delta
        return None if value <= 0.0 else float(value)

    expected = dict(cuboid)
    for key, delta in deltas.items():
        value = step(expected.get(key), delta)
        if value is None:
            expected.pop(key, None)
        else:
            expected[key] = value
    for limit in LIMITS:
        with code_limit(limit):
            packed = pack(cuboid)
            before = list(packed.items())
            assert_packed_as(packed.updated(deltas, step), expected)
            assert list(packed.items()) == before  # the original is left as is


def test_recoded_codes_stay_sorted():
    packed = pack(CUBOID)
    wider = (("a", "aa", "b", "c"), ("w", "x", "y", "z"))
    codes = packed.recoded(wider)
    assert list(codes) == sorted(codes)
    assert PackedCuboid(wider, codes, packed.cells) == CUBOID


def test_group_ids_pack_in_wire_order():
    # First-seen dictionaries ("b", "a") and ("y", "x"): gid = d0 * 2 + d1.
    axes = (("a", "b"), ("x", "y"))
    ranks = [[1, 0], [1, 0]]
    packed = from_group_ids(axes, ranks, [0, 3, 1], [5.0, 6.0, 7.0])
    assert_packed_as(
        packed, {("b", "y"): 5.0, ("a", "x"): 6.0, ("b", "x"): 7.0}
    )
