"""A backend's request log: one coded record per served operation.

Every served read, write and cluster operation leaves exactly one
record in its backend's :class:`RequestLog` (``CubeServer.events``,
``ClusterCoordinator.events``): a finished root span — name, category,
status, trace id, modeled and wall seconds — whose attrs are the
operation's facts.  The ring keeps the newest ``capacity`` records and
counts the rest in :attr:`RequestLog.dropped`.  Records read back as
the one-span :class:`~repro.obs.trace_store.TraceRecord` the sampled
trace store produces, so both share one JSONL format and ``x3 trace``
reads both.

A record is stored as codes, the way a
:class:`~repro.core.packed.PackedCuboid` stores a cuboid.  A log's
records repeat a few hundred strings (rung reasons, point labels,
statuses) across thousands of records, so every string is entered once
in the log's dictionary and referenced by an integer code.  So is every
attrs *shape* — the nesting of dicts, tuples, lists and
:class:`~repro.obs.events.EvictionRecord` s, with the dicts' keys and
the type of every leaf.  What is left are flat typed columns:

- per record, in ring slots that grow on append up to ``capacity``:
  the codes of name, category, status, trace id and shape
  (``array('i')``) and the modeled and wall seconds (``array('d')``);
- per leaf, in three first-in first-out streams: string codes
  (``array('i')``), integers and booleans (``array('q')``) and floats
  (``array('d')``).  A record's leaves follow its predecessor's, and
  its shape says how many of each it has.

No Python object is kept per record.  The dictionary is re-coded each
time the ring wraps: the strings and shapes no live record uses are
dropped and the live codes renumbered, so right after a wrap it holds
exactly the distinct values of the live records, and never more than
those of the last ``2 * capacity`` records.  A record is decoded only on
read, by a function compiled once per shape, to exactly the span that
went in — dict order, tuple vs list, bool vs int, ``EvictionRecord``
named tuples.  Attrs are JSON values (strings, 64-bit integers, floats,
booleans, ``None``, and string-keyed dicts, lists and tuples of them)
plus ``EvictionRecord`` s; anything else is refused with
:class:`TypeError`, an integer past 64 bits with :class:`OverflowError`,
and a refused record changes nothing.
"""

from __future__ import annotations

import threading
from array import array
from functools import lru_cache
from itertools import count, islice
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.events import EvictionRecord
from repro.obs.span import TraceSpan
from repro.obs.trace_store import TraceRecord, records_jsonl, write_text

#: The leaf types of an attrs value; every other value is a container.
_LEAVES = frozenset({str, int, float, bool, type(None)})

#: The containers other than ``dict`` an attrs value may nest.
_SEQUENCES = frozenset({tuple, list, EvictionRecord})

#: ``(container type, dict keys or None, children)``: a child is a leaf
#: type or a nested shape.
Shape = Tuple[Any, Optional[Tuple[str, ...]], Tuple[Any, ...]]


@lru_cache(maxsize=1024)
def _nested_at(types: Tuple[type, ...]) -> Tuple[int, ...]:
    """The positions of a container's items that are containers."""
    return tuple(
        index for index, kind in enumerate(types) if kind not in _LEAVES
    )


def _flatten(value: Any, leaves: List[Any]) -> Shape:
    """Append ``value``'s items to ``leaves`` and return its shape.

    A container's own items go first, in order (a nested container
    stays there as a placeholder), then each nested container's
    items, in order; :class:`_Layout` numbers a shape the same way."""
    kind = type(value)
    if kind is dict:
        items: Sequence[Any] = tuple(value.values())
        keys: Optional[Tuple[str, ...]] = tuple(value)
    elif kind in _SEQUENCES:
        items, keys = value, None
    else:
        raise TypeError(
            "a request-log attr must be a JSON value or an "
            f"EvictionRecord, got {kind.__name__}"
        )
    types = tuple(map(type, items))
    leaves.extend(items)
    nested = _nested_at(types)
    if not nested:
        return kind, keys, types
    children: List[Any] = list(types)
    for index in nested:
        children[index] = _flatten(items[index], leaves)
    return kind, keys, tuple(children)


def _picker(positions: Sequence[int]) -> Callable[[List[Any]], Tuple[Any, ...]]:
    """The leaves at ``positions``, as a tuple (of one or none too)."""
    if not positions:
        return lambda leaves: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda leaves: (leaves[position],)
    return itemgetter(*positions)


class _Layout:
    """One attrs shape: its code, how many string, integer and float
    leaves it has, which of :func:`_flatten`'s positions they sit at,
    in the order the decoder reads them, and the decoder.

    The decoder is one expression compiled for the shape, reading the
    three streams through their iterators' ``__next__``: a dict of
    three strings decodes as ``{'a': S(), 'b': S(), 'c': S()}``."""

    __slots__ = ("code", "strs", "ints", "floats", "pick_strs",
                 "pick_ints", "pick_floats", "decode")

    def __init__(self, shape: Shape, code: int) -> None:
        self.code = code
        positions = self._number(shape, [0])
        at: Dict[str, List[int]] = {"S": [], "I": [], "F": []}
        body = self._expression(shape, positions, at)
        self.strs, self.ints, self.floats = (
            len(at["S"]), len(at["I"]), len(at["F"]),
        )
        self.pick_strs = _picker(at["S"])
        self.pick_ints = _picker(at["I"])
        self.pick_floats = _picker(at["F"])
        self.decode: Callable[..., Dict[str, Any]] = eval(  # noqa: S307
            f"lambda S, I, F: {body}",  # built from the shape alone
            {"E": EvictionRecord, "new": tuple.__new__},
        )

    @classmethod
    def _number(cls, shape: Shape, cursor: List[int]) -> List[Any]:
        """Each child's :func:`_flatten` position, or for a nested
        container its own children's, as a tree."""
        kind, keys, children = shape
        if kind is dict and not all(type(key) is str for key in keys or ()):
            raise TypeError("a request-log attr dict needs string keys")
        base = cursor[0]
        cursor[0] += len(children)
        numbered: List[Any] = list(range(base, cursor[0]))
        for index, child in enumerate(children):
            if child not in _LEAVES:
                numbered[index] = cls._number(child, cursor)
        return numbered

    @classmethod
    def _expression(
        cls, shape: Shape, positions: List[Any], at: Dict[str, List[int]]
    ) -> str:
        """The decoding expression, leaves in source order; ``at``
        collects each stream's positions in that same order."""
        kind, keys, children = shape
        parts = []
        for child, position in zip(children, positions):
            if child is type(None):
                parts.append("None")
            elif child is str:
                at["S"].append(position)
                parts.append("S()")
            elif child is float:
                at["F"].append(position)
                parts.append("F()")
            elif child is int or child is bool:
                at["I"].append(position)
                parts.append("I()" if child is int else "(I() == 1)")
            else:
                parts.append(cls._expression(child, position, at))
        if kind is dict:
            assert keys is not None
            pairs = "".join(
                f"{key!r}: {part}, " for key, part in zip(keys, parts)
            )
            return "{" + pairs + "}"
        items = "".join(f"{part}, " for part in parts)
        if kind is list:
            return f"[{items}]"
        if kind is tuple:
            return f"({items})"
        return f"new(E, ({items}))"


def _consume(iterator: Iterator[Any], n: int) -> None:
    """Advance ``iterator`` by ``n`` items."""
    next(islice(iterator, n, n), None)


class RequestLog:
    """A bounded, thread-safe ring of coded request records.

    :meth:`add` appends one finished root span; the ring keeps the
    newest ``capacity`` and counts every record ever added in
    :attr:`finished` and every one pushed out in :attr:`dropped`.  A
    record's ``seq`` is its position in the log: :attr:`dropped` plus
    its index in the ring.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(
                f"request log capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.finished = 0
        self.dropped = 0
        self._lock = threading.Lock()
        # The dictionary: string -> code and code -> string; shape ->
        # layout and code -> layout.
        self._codes: Dict[str, int] = {}
        self._strings: List[str] = []
        self._layouts: Dict[Shape, _Layout] = {}
        self._layout_at: List[_Layout] = []
        # Ring slots; once the ring is full the oldest record sits at
        # ``_oldest``.
        self._names = array("i")
        self._categories = array("i")
        self._statuses = array("i")
        self._trace_ids = array("i")
        self._shapes = array("i")
        self._sims = array("d")
        self._walls = array("d")
        self._oldest = 0
        # Leaf streams; the oldest record's leaves start at the heads.
        self._strs = array("i")
        self._ints = array("q")
        self._floats = array("d")
        self._heads = [0, 0, 0]

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def add(
        self,
        name: str,
        category: str,
        sim_seconds: float,
        wall_seconds: float,
        trace_id: str = "",
        status: str = "ok",
        **attrs: Any,
    ) -> None:
        """Append one finished root span.

        ``attrs`` are the operation's facts (see the module doc for
        what they may hold); ``trace_id`` names the sampled trace the
        operation ran under, if any."""
        leaves: List[Any] = []
        shape = _flatten(attrs, leaves)
        with self._lock:
            layout = self._layouts.get(shape)
            if layout is None:
                layout = _Layout(shape, len(self._layout_at))
                self._layouts[shape] = layout
                self._layout_at.append(layout)
            ints = self._ints
            mark = len(ints)
            try:
                ints.extend(layout.pick_ints(leaves))
            except OverflowError:
                del ints[mark:]
                raise
            values = (name, category, status, trace_id) + layout.pick_strs(
                leaves
            )
            try:
                codes = list(map(self._codes.__getitem__, values))
            except KeyError:
                codes = self._enter(values)
            self._strs.extend(codes[4:])
            self._floats.extend(layout.pick_floats(leaves))
            self.finished += 1
            if len(self._sims) < self.capacity:
                self._names.append(codes[0])
                self._categories.append(codes[1])
                self._statuses.append(codes[2])
                self._trace_ids.append(codes[3])
                self._shapes.append(layout.code)
                self._sims.append(sim_seconds)
                self._walls.append(wall_seconds)
                return
            slot = self._oldest
            self._drop_oldest()
            self._names[slot] = codes[0]
            self._categories[slot] = codes[1]
            self._statuses[slot] = codes[2]
            self._trace_ids[slot] = codes[3]
            self._shapes[slot] = layout.code
            self._sims[slot] = sim_seconds
            self._walls[slot] = wall_seconds
            if self._oldest == 0:
                self._recode()

    def _enter(self, values: Sequence[str]) -> List[int]:
        """The codes of ``values``, entering the new ones (lock held)."""
        codes = []
        for value in values:
            code = self._codes.get(value)
            if code is None:
                code = len(self._strings)
                self._codes[value] = code
                self._strings.append(value)
            codes.append(code)
        return codes

    def _drop_oldest(self) -> None:
        """Push the oldest record out: its leaves leave the streams'
        heads and its slot is next to be written (lock held)."""
        layout = self._layout_at[self._shapes[self._oldest]]
        heads = self._heads
        heads[0] += layout.strs
        heads[1] += layout.ints
        heads[2] += layout.floats
        self._oldest = (self._oldest + 1) % self.capacity
        self.dropped += 1

    def _recode(self) -> None:
        """Cut the streams' dropped leaves, drop the strings and shapes
        no live record uses and renumber the rest in order of their old
        codes (lock held; the ring has just wrapped, so every slot is
        live).  A stream so holds at most two rings' leaves."""
        heads = self._heads
        for index, stream in enumerate(
            (self._strs, self._ints, self._floats)
        ):
            del stream[: heads[index]]
            heads[index] = 0
        columns = (
            self._names, self._categories, self._statuses,
            self._trace_ids, self._strs,
        )
        live = set().union(*columns)
        if len(live) < len(self._strings):
            renumber = [0] * len(self._strings)
            kept = sorted(live)
            for new, old in enumerate(kept):
                renumber[old] = new
            self._strings = [self._strings[old] for old in kept]
            self._codes = {
                value: code for code, value in enumerate(self._strings)
            }
            for column in columns:
                column[:] = array("i", map(renumber.__getitem__, column))
        shapes = set(self._shapes)
        if len(shapes) < len(self._layout_at):
            layouts = [self._layout_at[old] for old in sorted(shapes)]
            renumber = [0] * len(self._layout_at)
            for new, layout in enumerate(layouts):
                renumber[layout.code] = new
                layout.code = new
            self._layout_at = layouts
            self._layouts = {
                shape: layout
                for shape, layout in self._layouts.items()
                if layout in layouts
            }
            self._shapes[:] = array(
                "i", map(renumber.__getitem__, self._shapes)
            )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _ordered(self, column: "array[Any]") -> "array[Any]":
        """A slot column, oldest record first (lock held)."""
        return column[self._oldest:] + column[: self._oldest]

    def _decoded(self, column: "array[int]") -> List[str]:
        """A string-code slot column decoded, oldest first (lock held)."""
        return list(map(self._strings.__getitem__, self._ordered(column)))

    def _records(self, name: Optional[str] = None) -> Tuple[TraceRecord, ...]:
        """The stored records, oldest first; with ``name``, only those
        whose root span is ``name`` are decoded (lock held)."""
        wanted = -1 if name is None else self._codes.get(name)
        if wanted is None:
            return ()
        heads = self._heads
        strs = iter(
            list(map(self._strings.__getitem__, self._strs[heads[0]:]))
        )
        ints = iter(self._ints[heads[1]:].tolist())
        floats = iter(self._floats[heads[2]:].tolist())
        S, I, F = strs.__next__, ints.__next__, floats.__next__
        names = self._ordered(self._names)
        strings = self._strings
        out: List[TraceRecord] = []
        for seq, code, category, status, trace_id, layout, sim, wall in zip(
            count(self.dropped),
            names,
            self._decoded(self._categories),
            self._decoded(self._statuses),
            self._decoded(self._trace_ids),
            map(self._layout_at.__getitem__, self._ordered(self._shapes)),
            self._ordered(self._sims),
            self._ordered(self._walls),
        ):
            if wanted >= 0 and code != wanted:
                _consume(strs, layout.strs)
                _consume(ints, layout.ints)
                _consume(floats, layout.floats)
                continue
            span = TraceSpan(
                trace_id, "", "", strings[code], category, status, sim,
                0.0, wall, layout.decode(S, I, F),
            )
            out.append(
                TraceRecord(
                    seq, trace_id, span.name, status, sim, wall, "",
                    (span,),
                )
            )
        return tuple(out)

    def traces(self) -> Tuple[TraceRecord, ...]:
        """Every record the ring holds, oldest first."""
        with self._lock:
            return self._records()

    def named(self, name: str) -> Tuple[TraceRecord, ...]:
        """The records whose root span is ``name``, oldest first
        (``serve.request`` / ``serve.write`` / ``cluster.read`` / ...);
        no other record's attrs are decoded."""
        with self._lock:
            return self._records(name)

    def scalars(self) -> List[Tuple[str, str, float]]:
        """``(name, status, sim_seconds)`` of every record, oldest
        first, read off the slot columns: no attrs are decoded."""
        with self._lock:
            return list(
                zip(
                    self._decoded(self._names),
                    self._decoded(self._statuses),
                    self._ordered(self._sims),
                )
            )

    def stats(self) -> Dict[str, int]:
        """The counters a :class:`~repro.obs.trace_store.TraceStore`
        reports; a log samples, retains and cuts nothing."""
        with self._lock:
            return {
                "started": 0,
                "sampled": 0,
                "finished": self.finished,
                "retained": 0,
                "stored": len(self._sims),
                "dropped_traces": self.dropped,
                "dropped_spans": 0,
            }

    def to_jsonl(self) -> str:
        """The records as JSON Lines, the sampled traces' format
        (:func:`~repro.obs.trace_store.records_jsonl`)."""
        return records_jsonl(self.traces())

    def write_jsonl(self, path: str) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns records written."""
        return write_text(path, self.to_jsonl())
