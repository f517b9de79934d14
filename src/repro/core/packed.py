"""Packed cuboids: a cuboid as two sorted arrays.

A :class:`PackedCuboid` is the one form every cuboid the serving layer
caches, merges or answers with takes (DESIGN.md Sec. 5c).  It has three
parts:

- per kept axis, a sorted tuple of the axis's ``str`` values (its
  *dictionary*);
- the sorted mixed-radix **codes**: a key's code is the sum of each
  part's index in its axis dictionary times the product of the later
  axes' radices, so earlier axes are the more significant digits and
  code order *is* the wire order of
  :meth:`~repro.core.query.QueryResult.to_dict` — keys sorted part by
  part;
- the **cells**: an ``array('d')`` of values, parallel to the codes (a
  list of partial states in a state cuboid of :mod:`repro.core.merge`).

The codes are an ``array('q')`` wherever the radix product stays below
:data:`CODE_LIMIT`, and a ``list`` of ints otherwise (:func:`as_codes`,
the one place the container is picked); bisection, slicing, insertion
and the digit arithmetic are the same on both.

A cell costs its 8-byte code and its 8-byte value instead of a dict slot,
a key tuple and a float object.  A lookup bisects each key part in its
dictionary, then the code in the codes; iteration decodes one column per
axis (the place-value digit of every code, one comprehension an axis)
and yields keys in wire order.  Nothing writes a published cuboid:
every operation here (slice, dice, roll-up projection, a write's patch,
a cluster gather's recode) builds a new one on the codes, never on
decoded keys.

:func:`pack` turns any mapping of ``str``-part key tuples to numbers
into one, and refuses any other mapping with :class:`CubeError`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import ItemsView, Mapping, ValuesView
from itertools import repeat
from operator import add, gt
from typing import (
    Any,
    Callable,
    Collection,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from repro.core.bindings import GroupKey
from repro.errors import CubeError

#: Codes are signed 64-bit integers; the product of a cuboid's radices
#: must stay below this for every code to fit.
CODE_LIMIT = 1 << 62

#: One sorted value dictionary per kept axis.
Axes = Tuple[Tuple[str, ...], ...]

#: A cuboid's sorted codes: signed 64-bit slots where they fit, else
#: Python ints (:func:`as_codes`).
Codes = Union["array[int]", List[int]]

_T = TypeVar("_T")

#: A write's step on one cell: ``(current value or None, the key's
#: delta) -> new value``, ``None`` where the cell goes away.
Step = Callable[[Optional[float], Any], Optional[float]]


def _radices(axes: Axes) -> List[int]:
    return [max(1, len(axis)) for axis in axes]


def _scales(radices: Sequence[int]) -> List[int]:
    """The place value of each axis's digit (the product of the radices
    after it)."""
    scales = [1] * len(radices)
    for position in range(len(radices) - 2, -1, -1):
        scales[position] = scales[position + 1] * radices[position + 1]
    return scales


def as_codes(axes: Axes, codes: Iterable[int]) -> Codes:
    """``codes`` in the container their dictionaries ``axes`` allow: an
    ``array('q')`` while the radix product stays below
    :data:`CODE_LIMIT`, else a ``list``."""
    return array("q", codes) if _product(axes) < CODE_LIMIT else list(codes)


def _product(axes: Axes) -> int:
    """The product of the radices: every code is below it."""
    product = 1
    for radix in _radices(axes):
        product *= radix
    return product


def _sorted_packed(
    axes: Axes, codes: List[int], cells: Iterable[float]
) -> "PackedCuboid":
    """Pack parallel, unsorted (and distinct) codes and values."""
    value_of = dict(zip(codes, cells))
    codes.sort()
    return PackedCuboid(
        axes, as_codes(axes, codes), array("d", map(value_of.__getitem__, codes))
    )


class PackedCuboid(Mapping[GroupKey, Any]):
    """A read-only cuboid stored as sorted mixed-radix codes and cells.

    Attributes:
        axes: per kept axis, its sorted value dictionary.
        codes: the sorted cell codes (:data:`Codes`).
        cells: the values, parallel to ``codes`` — an ``array('d')`` in
            a finalized cuboid.
    """

    __slots__ = ("axes", "codes", "cells", "_radices", "_scales")

    def __init__(self, axes: Axes, codes: Codes, cells: Sequence[Any]) -> None:
        self.axes = axes
        self.codes = codes
        self.cells = cells
        self._radices = _radices(axes)
        self._scales = _scales(self._radices)

    # ------------------------------------------------------------------
    # the Mapping protocol
    # ------------------------------------------------------------------
    def _code(self, key: object) -> int:
        """The code of ``key`` under these dictionaries; ``-1`` when a
        part is not in its dictionary or the key is not a key here."""
        if not isinstance(key, tuple) or len(key) != len(self.axes):
            return -1
        code = 0
        try:
            for part, axis, scale in zip(key, self.axes, self._scales):
                index = bisect_left(axis, part)
                if axis[index] != part:
                    return -1
                code += index * scale
        except (IndexError, TypeError):  # past the end; not a str
            return -1
        return code

    def _find(self, key: object) -> int:
        """The position of ``key``'s cell, or ``-1``."""
        code = self._code(key)
        if code < 0:
            return -1
        codes = self.codes
        index = bisect_left(codes, code)
        if index < len(codes) and codes[index] == code:
            return index
        return -1

    def __getitem__(self, key: GroupKey) -> Any:
        index = self._find(key)
        if index < 0:
            raise KeyError(key)
        return self.cells[index]

    def get(self, key: GroupKey, default: Any = None) -> Any:
        index = self._find(key)
        return default if index < 0 else self.cells[index]

    def __contains__(self, key: object) -> bool:
        return self._find(key) >= 0

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[GroupKey]:
        return self._keys()

    def items(self) -> "_Items":
        return _Items(self)

    def values(self) -> "_Values":
        return _Values(self)

    def _keys(self) -> Iterator[GroupKey]:
        """Decode the codes into keys, one column per axis, in order."""
        if not self.axes:
            return repeat((), len(self.codes))
        return zip(
            *(self._digits(position, axis) for position, axis in enumerate(self.axes))
        )

    def _digits(self, position: int, lookup: Sequence[_T]) -> List[_T]:
        """``lookup[digit]`` for the digit at ``position`` of every code,
        in stored order."""
        radix, scale = self._radices[position], self._scales[position]
        if position == 0:
            return [lookup[code // scale] for code in self.codes]
        if scale == 1:
            return [lookup[code % radix] for code in self.codes]
        return [lookup[code // scale % radix] for code in self.codes]

    def __repr__(self) -> str:
        return f"PackedCuboid({dict(self.items())!r})"

    def __reduce__(self) -> Tuple[Any, ...]:
        return PackedCuboid, (self.axes, self.codes, self.cells)

    # ------------------------------------------------------------------
    # new cuboids from this one, on the codes
    # ------------------------------------------------------------------
    def _with(self, codes: Codes, cells: Sequence[Any]) -> "PackedCuboid":
        """A cuboid over the same dictionaries with other cells."""
        out: PackedCuboid = object.__new__(PackedCuboid)
        out.axes, out.codes, out.cells = self.axes, codes, cells
        out._radices, out._scales = self._radices, self._scales
        return out

    def projected(self, keep: Sequence[int]) -> Tuple[Axes, List[int]]:
        """The axes and per-cell codes once only the axes at ``keep``
        (ascending positions) are kept: each kept digit moves to its
        place value among the kept axes.  Codes repeat where cells
        collapse into one target cell; they are in source-cell order."""
        axes = tuple(self.axes[position] for position in keep)
        projected = [0] * len(self.codes)
        for place, position in zip(_scales(_radices(axes)), keep):
            placed = range(0, self._radices[position] * place, place)
            projected = list(map(add, projected, self._digits(position, placed)))
        return axes, projected

    def sliced(self, position: int, value: str) -> "PackedCuboid":
        """The cells whose part at ``position`` is ``value``, with that
        part dropped from the key; the order is kept."""
        axes = self.axes[:position] + self.axes[position + 1:]
        axis = self.axes[position]
        index = bisect_left(axis, value)
        if index == len(axis) or axis[index] != value:
            return PackedCuboid(axes, as_codes(axes, ()), array("d"))
        codes, cells = self.codes, self.cells
        radix, scale = self._radices[position], self._scales[position]
        block = scale * radix
        kept = [
            at
            for at, digit in enumerate(self._digits(position, range(radix)))
            if digit == index
        ]
        sliced = [codes[at] // block * scale + codes[at] % scale for at in kept]
        return PackedCuboid(
            axes, as_codes(axes, sliced), array("d", map(cells.__getitem__, kept))
        )

    def diced(self, allowed: Mapping[int, Iterable[str]]) -> "PackedCuboid":
        """The cells whose part at each given position is among the
        allowed values; keys, dictionaries and order are kept."""
        tests: List[Tuple[int, int, frozenset[int]]] = []
        for position, values in allowed.items():
            if position >= len(self.axes):
                return self._with(as_codes(self.axes, ()), array("d"))
            axis = self.axes[position]
            wanted = set(values)
            indices = frozenset(
                index
                for index in (bisect_left(axis, value) for value in wanted)
                if index < len(axis) and axis[index] in wanted
            )
            tests.append(
                (self._scales[position], self._radices[position], indices)
            )
        return self._kept(
            at
            for at, code in enumerate(self.codes)
            if all(code // scale % radix in indices for scale, radix, indices in tests)
        )

    def _kept(self, kept: Iterable[int]) -> "PackedCuboid":
        """The cells at positions ``kept`` (ascending), over the same
        dictionaries."""
        positions = list(kept)
        return self._with(
            as_codes(self.axes, map(self.codes.__getitem__, positions)),
            array("d", map(self.cells.__getitem__, positions)),
        )

    def recoded(self, axes: Axes) -> Codes:
        """These codes under wider dictionaries ``axes`` (each a sorted
        superset of this cuboid's): each digit is re-ranked, so the codes
        stay sorted.  Nothing is decoded, and the digits after the last
        widened axis keep their places, so they move as one."""
        if axes == self.axes:
            return self.codes
        last = max(
            position
            for position, (old, new) in enumerate(zip(self.axes, axes))
            if old != new
        )
        tail = self._scales[last]
        recoded = [code % tail for code in self.codes]
        places = _scales(_radices(axes))
        for position in range(last + 1):
            old, new, place = self.axes[position], axes[position], places[position]
            if old == new:
                ranks: Sequence[int] = range(0, self._radices[position] * place, place)
            else:
                at = {value: index * place for index, value in enumerate(new)}
                ranks = list(map(at.__getitem__, old))
            recoded = list(map(add, recoded, self._digits(position, ranks)))
        return as_codes(axes, recoded)

    def updated(self, deltas: Mapping[GroupKey, Any], step: Step) -> "PackedCuboid":
        """The successor once each key's delta is stepped into its cell:
        ``step(current, delta)`` is the cell's new value (``current`` is
        ``None`` for an absent cell), ``None`` to remove it.

        The arrays are copied, each key is coded once and its cell found
        by bisection, then replaced, inserted or deleted in the copies.
        A key part new to its axis first extends that axis's dictionary,
        and the codes are re-ranked into it (:meth:`recoded`).  A key
        that is not a tuple of one ``str`` part per axis is a
        :class:`CubeError`."""
        codes = self.codes[:]
        cells = cast("array[float]", self.cells)[:]
        for key, delta in deltas.items():
            code = self._code(key)
            if code < 0:
                return self._widened(deltas).updated(deltas, step)
            at = bisect_left(codes, code)
            found = at < len(codes) and codes[at] == code
            value = step(cells[at] if found else None, delta)
            if value is None:
                if found:
                    del codes[at]
                    del cells[at]
            elif found:
                cells[at] = value
            else:
                codes.insert(at, code)
                cells.insert(at, value)
        return self._with(codes, cells)

    def _widened(self, keys: Iterable[GroupKey]) -> "PackedCuboid":
        """This cuboid over its dictionaries widened by every part of
        ``keys``.  An empty cuboid packed without dictionaries has no
        axes yet: it takes the keys' arity."""
        if not self.axes and not self.codes:
            axes = tuple(widened((), column) for column in _columns(list(keys)))
            return PackedCuboid(axes, as_codes(axes, ()), self.cells)
        axes = tuple(map(widened, self.axes, _columns(list(keys), len(self.axes))))
        return PackedCuboid(axes, self.recoded(axes), self.cells)


class _Items(ItemsView[GroupKey, Any]):
    """The items of a packed cuboid, in stored order, decoded once."""

    def __init__(self, cuboid: PackedCuboid) -> None:
        super().__init__(cuboid)
        self._cuboid = cuboid

    def __iter__(self) -> Iterator[Tuple[GroupKey, Any]]:
        return zip(self._cuboid._keys(), self._cuboid.cells)


class _Values(ValuesView[Any]):
    """The values of a packed cuboid, straight off its cells."""

    def __init__(self, cuboid: PackedCuboid) -> None:
        super().__init__(cuboid)
        self._cuboid = cuboid

    def __iter__(self) -> Iterator[Any]:
        return iter(self._cuboid.cells)


def at_least(cuboid: PackedCuboid, floor: float) -> PackedCuboid:
    """The cells of ``cuboid`` whose value is at least ``floor`` (an
    iceberg cut), cut on its codes and cells, in wire order."""
    return cuboid._kept(
        at for at, value in enumerate(cuboid.cells) if value >= floor
    )


def widened(axis: Tuple[str, ...], parts: Iterable[str]) -> Tuple[str, ...]:
    """The sorted dictionary ``axis`` with the parts it lacks (itself
    when it lacks none)."""
    fresh = {
        part
        for part in parts
        if (index := bisect_left(axis, part)) == len(axis) or axis[index] != part
    }
    return tuple(sorted(fresh.union(axis))) if fresh else axis


def _columns(
    keys: Sequence[Any], arity: Optional[int] = None
) -> List[Tuple[str, ...]]:
    """The parts of ``keys``, a column per axis; :class:`CubeError`
    unless every key is a tuple of ``str`` parts, all of one length
    (``arity`` when given).  Checked a column at a time at C speed."""
    if set(map(type, keys)) <= {tuple}:
        columns = list(zip(*keys))
        width = len(columns) if arity is None else arity
        if set(map(len, keys)) <= {width} and all(
            set(map(type, column)) == {str} for column in columns
        ):
            return columns
    raise CubeError(
        f"cannot pack {len(keys)} keys (the first {keys[0]!r}): a key is "
        "a tuple of str parts, one per kept axis, all of one length"
    )


def pack(
    cuboid: Mapping[GroupKey, Any], dictionaries: Optional[Axes] = None
) -> PackedCuboid:
    """``cuboid`` packed: every key a tuple of ``str`` parts, all of one
    length (else :class:`CubeError`), every value a number, stored as a
    float.  A packed cuboid is returned as is.

    ``dictionaries`` (sorted, one per key part) code the keys when they
    hold every part: NAIVE passes the values its table has bound on
    each kept axis (:meth:`~repro.core.bindings.FactTable.dictionaries`),
    so a later write seldom brings a part its cuboid lacks
    (:meth:`PackedCuboid.updated` then re-ranks every code).
    Otherwise each axis's dictionary is the parts the keys hold — and
    an empty cuboid packed without ``dictionaries`` has no axes."""
    if isinstance(cuboid, PackedCuboid):
        return cuboid
    keys = list(cuboid)
    cells = list(cuboid.values())
    columns = _columns(keys)
    if dictionaries is not None and (len(dictionaries) == len(columns) or not keys):
        try:
            codes = _coded(dictionaries, columns, len(keys))
        except KeyError:  # a part the dictionaries lack
            pass
        else:
            return _sorted_packed(dictionaries, codes, cells)
    axes = tuple(tuple(sorted(set(column))) for column in columns)
    return _sorted_packed(axes, _coded(axes, columns, len(keys)), cells)


def _coded(
    axes: Axes, columns: Sequence[Sequence[str]], count: int
) -> List[int]:
    """The code of each of ``count`` keys, given column by column;
    ``KeyError`` when a part is not in its axis dictionary."""
    codes = [0] * count
    for axis, scale, column in zip(axes, _scales(_radices(axes)), columns):
        rank = {value: index * scale for index, value in enumerate(axis)}
        codes = list(map(add, codes, map(rank.__getitem__, column)))
    return codes


def _digit_groups(
    ranks: Sequence[Sequence[int]], radices: Sequence[int], limit: int
) -> List[Tuple[Sequence[int], int, int, int]]:
    """Runs of consecutive axes, least significant first, each with a
    lookup from the run's part of a group id to its part of the code:
    ``(lookup, below, span, place)``, the id's part being
    ``gid // below % span`` and the code's ``lookup[that] * place``.

    An axis's digit in a group id has ``len(ranks[i])`` values and its
    code digit ``radices[i]``.  A run grows while its id span stays
    within ``limit`` (about the cells to code, so a table costs no more
    than the lookups it saves); its table then re-ranks all of its
    digits in one lookup.  An axis wider than ``limit`` is a run of its
    own, looked up in its ranks alone."""
    groups: List[Tuple[Sequence[int], int, int, int]] = []
    table, span, width, below, place = [0], 1, 1, 1, 1
    for rank, radix in zip(reversed(ranks), reversed(radices)):
        digits = len(rank)
        if span > 1 and span * digits > limit:
            groups.append((table, below, span, place))
            table, below, place = [0], below * span, place * width
            span = width = 1
        if digits > limit:
            groups.append((rank, below, digits, place))
            below, place = below * digits, place * radix
            continue
        table = [rank[digit] * width + low for digit in range(digits) for low in table]
        span, width = span * digits, width * radix
    # A one-digit run still counts when a dropped digit ranks it past
    # its axis (an empty dictionary's null digit).
    if span > 1 or table[0] or not groups:
        groups.append((table, below, span, place))
    return groups


def from_group_ids(
    axes: Axes,
    ranks: Sequence[Sequence[Optional[int]]],
    gids: Collection[int],
    cells: Iterable[float],
) -> PackedCuboid:
    """Pack a kernel's cells straight from its group ids.

    ``gids`` are mixed-radix ids over first-seen dictionary codes, the
    radix of kept axis ``i`` being ``len(ranks[i])``;
    ``ranks[i][code]`` is that code's index in the sorted dictionary
    ``axes[i]``.  A digit past the dictionary's codes ranks ``None``:
    its cells are dropped (the Sec. 3.5 null digit).  Re-ranking each
    digit turns an id into its packed code; no key tuple is built.
    ``cells`` yields the values in ``gids`` order."""
    if not gids:
        return PackedCuboid(axes, as_codes(axes, ()), array("d"))
    radices = _radices(axes)
    bound = 0
    if any(map(gt, map(len, ranks), map(len, axes))):
        # A dropped digit ranks past its axis: its cells' codes land at
        # or past the radix product, where they are cut off below.
        bound = _product(axes)
        ranks = [
            [bound // scale if index is None else index for index in rank]
            for rank, scale in zip(ranks, _scales(radices))
        ]
    groups = _digit_groups(
        cast(Sequence[Sequence[int]], ranks), radices, max(len(gids), 16)
    )
    if len(groups) == 1:
        codes = list(map(groups[0][0].__getitem__, gids))
    elif len(groups) == 2:
        (low, _, split, _), (high, _, _, place) = groups
        codes = [high[gid // split] * place + low[gid % split] for gid in gids]
    else:
        codes = [0] * len(gids)
        for lookup, below, span, place in groups:
            codes = list(
                map(
                    add,
                    codes,
                    [lookup[gid // below % span] * place for gid in gids],
                )
            )
    if bound:
        kept = [(code, cell) for code, cell in zip(codes, cells) if code < bound]
        codes = [code for code, _ in kept]
        cells = [cell for _, cell in kept]
    return _sorted_packed(axes, codes, cells)
