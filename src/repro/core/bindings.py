"""The annotated fact table: what one evaluation of the most relaxed
fully instantiated pattern materializes (paper Sec. 3.4 / Sec. 4, "we
pre-evaluated the query tree pattern, and materialized the results").

Each :class:`FactRow` is one fact (one match of the fact binding) with,
per axis, the list of :class:`AnnotatedValue`s: a grouping value plus a
bitmask over the axis's structural states saying under which states the
value binds.  All cube algorithms consume this table; none of them goes
back to the raw documents (exactly the paper's measurement protocol).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.lattice import CubeLattice, LatticePoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.columnar import ColumnarFactTable

GroupKey = Tuple[Optional[str], ...]
#: One table's distinct value tuples, each its own key.
ValueSets = Dict[Tuple[str, ...], Tuple[str, ...]]
#: Per axis, a sorted tuple of values (a packed cuboid's dictionaries).
Dictionaries = Tuple[Tuple[str, ...], ...]


@dataclass(frozen=True)
class AnnotatedValue:
    """One axis binding of one fact.

    Attributes:
        value: the grouping value (element text or attribute value).
        mask: bit ``i`` set iff the value binds under structural state
            index ``i`` of the axis (monotone upward: a value matching a
            state also matches every superset state).
    """

    value: str
    mask: int

    def matches(self, state_index: int) -> bool:
        return bool(self.mask & (1 << state_index))


#: One ``(axis, state)`` tuple per pair, shared by every row's memo.
#: It holds one entry per pair any lattice has asked about (an axis has
#: at most four structural states), and equal keys are interchangeable,
#: so sharing it across tables changes no answer.
_MEMO_KEYS: Dict[Tuple[int, int], Tuple[int, int]] = {}


@dataclass(frozen=True)
class FactRow:
    """One fact with annotated bindings for every axis."""

    fact_id: Tuple[int, int]
    measure: float
    axes: Tuple[Tuple[AnnotatedValue, ...], ...]

    def values_under(
        self,
        axis_position: int,
        state_index: int,
        value_sets: Optional[ValueSets] = None,
    ) -> Tuple[str, ...]:
        """Distinct values the axis binds under the given structural
        state, in first-seen order.

        Memoized per (axis, state): a cube sweep asks the same question
        for every lattice point that keeps the axis in the same state, so
        the distinct-scan runs once per row instead of once per (row,
        point) pair.  The memo is most of a row's bytes, so it owns
        nothing it could share: each key is the module's one tuple for
        its ``(axis, state)``, no value is the ``()`` singleton, and a
        value tuple equal to one in ``value_sets`` (the table's
        :attr:`FactTable.value_sets`) is that one.
        """
        cache: Optional[
            Dict[Tuple[int, int], Tuple[str, ...]]
        ] = self.__dict__.get("_values_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_values_cache", cache)
        key = (axis_position, state_index)
        cached = cache.get(key)
        if cached is not None:
            return cached
        out = tuple(
            dict.fromkeys(
                annotated.value
                for annotated in self.axes[axis_position]
                if annotated.matches(state_index)
            )
        )
        if value_sets is not None:
            out = value_sets.setdefault(out, out)
        cache[_MEMO_KEYS.setdefault(key, key)] = out
        return out

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the memo cache (process-pool engine workers)."""
        state = dict(self.__dict__)
        state.pop("_values_cache", None)
        return state


def bound_values(rows: Sequence[FactRow], axis_count: int) -> Dictionaries:
    """Per axis, the sorted distinct values ``rows`` bind (any state)."""
    return tuple(
        tuple(sorted({value.value for row in rows for value in row.axes[axis]}))
        for axis in range(axis_count)
    )


class FactTable:
    """The materialized, annotated input of cube computation."""

    def __init__(
        self,
        lattice: CubeLattice,
        rows: Sequence[FactRow],
        aggregate: Optional["AggregateSpec"] = None,
    ) -> None:
        from repro.core.aggregates import AggregateSpec

        self.lattice = lattice
        self.rows: List[FactRow] = list(rows)
        self.aggregate: "AggregateSpec" = aggregate or AggregateSpec()
        #: The value tuples the rows' memos share: most rows bind one of
        #: a few value sets, so the memos of a table hold one tuple each.
        self.value_sets: ValueSets = {}
        self._columnar_cache: Optional[
            Tuple[Tuple[int, int], "ColumnarFactTable"]
        ] = None
        self._dictionaries: Optional[Dictionaries] = None

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------
    # columnar twin
    # ------------------------------------------------------------------
    def columnar(self) -> "ColumnarFactTable":
        """The dictionary-encoded columnar twin of this table, built once.

        The encoding is cached against the identity and length of
        ``self.rows``; the incremental maintenance helpers rebind or
        extend that list and additionally call
        :meth:`invalidate_columnar`, so the cache never serves a stale
        encoding.  The cache is dropped on pickling (engine process
        pools re-encode on the worker side if they need it).
        """
        from repro.core.columnar import ColumnarFactTable

        stamp = (id(self.rows), len(self.rows))
        cached = self._columnar_cache
        if cached is not None and cached[0] == stamp:
            return cached[1]
        encoded = ColumnarFactTable.from_table(self)
        self._columnar_cache = (stamp, encoded)
        return encoded

    def invalidate_columnar(self) -> None:
        """Drop the cached columnar encoding (call after mutating rows)."""
        self._columnar_cache = None

    # ------------------------------------------------------------------
    # dictionaries
    # ------------------------------------------------------------------
    def dictionaries(self) -> Dictionaries:
        """Per axis, the sorted distinct values the rows bind (under any
        state): what NAIVE and the ``encoding="dict"`` kernels pack
        their cuboids with.

        Computed on first use and then kept, never recomputed:
        :func:`~repro.core.incremental.ingest_rows` widens it with each
        batch (:meth:`widen_dictionaries`), and
        :func:`~repro.core.incremental.retract_rows` leaves it as it is,
        because a superset codes the same cells.  So a cuboid packed
        with it seldom meets a part its dictionaries lack when a later
        insert patches it, and no run makes a pass over the rows for it
        but the first.
        """
        if self._dictionaries is None:
            self._dictionaries = bound_values(self.rows, self.lattice.axis_count)
        return self._dictionaries

    def widen_dictionaries(self, rows: Sequence[FactRow]) -> None:
        """Add the values ``rows`` bind to the dictionaries, once they
        have been computed."""
        if self._dictionaries is not None:
            from repro.core.packed import widened

            self._dictionaries = tuple(
                map(
                    widened,
                    self._dictionaries,
                    bound_values(rows, self.lattice.axis_count),
                )
            )

    def share_dictionaries(self, source: "FactTable") -> None:
        """Pack with ``source``'s dictionaries (computed there first if
        need be): a snapshot of a table's rows takes the live table's,
        which hold every value the snapshot's rows bind."""
        self._dictionaries = source.dictionaries()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_columnar_cache"] = None
        state["value_sets"] = {}
        return state

    def __iter__(self) -> Iterator[FactRow]:
        return iter(self.rows)

    # ------------------------------------------------------------------
    # membership / keys at a lattice point
    # ------------------------------------------------------------------
    def key_combinations(
        self, row: FactRow, point: LatticePoint
    ) -> List[GroupKey]:
        """All group keys the fact contributes to at a lattice point.

        The key has one component per *kept* axis.  A fact with several
        values on a kept axis contributes the cross product of values
        (the paper's combinatorial incrementing, Sec. 3.3); a fact with
        *no* value on a kept axis contributes nothing (the coverage gap).
        """
        per_axis: List[Tuple[str, ...]] = []
        for position, states in enumerate(self.lattice.axis_states):
            state = point[position]
            if states.is_dropped(state):
                continue
            values = row.values_under(position, state, self.value_sets)
            if not values:
                return []
            per_axis.append(values)
        if not per_axis:
            return [()]
        keys: List[GroupKey] = [()]
        for values in per_axis:
            keys = [key + (value,) for key in keys for value in values]
        return keys

    def participates(self, row: FactRow, point: LatticePoint) -> bool:
        """Does the fact appear in any group of the cuboid at ``point``?"""
        for position, states in enumerate(self.lattice.axis_states):
            state = point[position]
            if states.is_dropped(state):
                continue
            if not row.values_under(position, state, self.value_sets):
                return False
        return True

    # ------------------------------------------------------------------
    # observed summarizability (ground truth for experiments and tests)
    # ------------------------------------------------------------------
    def observed_disjointness(self, point: LatticePoint) -> bool:
        """True iff no fact lands in two groups of this cuboid."""
        for row in self.rows:
            if len(self.key_combinations(row, point)) > 1:
                return False
        return True

    def observed_coverage(
        self, finer: LatticePoint, coarser: LatticePoint
    ) -> bool:
        """True iff every fact of the coarser cuboid also appears in the
        finer one (total coverage along the edge finer -> coarser)."""
        for row in self.rows:
            if self.participates(row, coarser) and not self.participates(
                row, finer
            ):
                return False
        return True

    def axis_cardinality(self, axis_position: int, state_index: int) -> int:
        """Distinct values of an axis under a structural state (cube
        density estimation)."""
        values = set()
        for row in self.rows:
            values.update(
                row.values_under(axis_position, state_index, self.value_sets)
            )
        return len(values)
