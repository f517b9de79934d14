"""Columnar fact storage: the dictionary-encoded twin of :class:`FactTable`.

The dict engine iterates :class:`~repro.core.bindings.FactRow` objects one
at a time and re-derives per-axis value lists per (row, point) pair.  This
module stores the same annotated fact table *by column*:

- per axis, a **dictionary** mapping each distinct grouping value to a
  small integer code (first-seen order, so encode/decode is stable);
- per axis, flat ``array('q')`` **code** and ``array('Q')`` **mask**
  columns holding every annotated value of every row, addressed through a
  CSR-style ``array('q')`` **offsets** column (row ``i`` owns the slice
  ``offsets[i]:offsets[i+1]``) — multi-valued axes cost nothing extra;
- per axis, a per-row **union mask** (OR of the row's value masks).  For a
  structural state ``s``, bit ``s`` of the union mask is the row's
  participation bit, so ``union & (1 << s) == 0`` *is* the paper's
  coverage gap — the null mask falls out of the encoding;
- a typed ``array('d')`` **measure** column and two ``array('q')``
  fact-id columns, so decoding is lossless.

Everything lives in stdlib :mod:`array` buffers exposed through
:class:`memoryview` accessors; there is no third-party dependency.

The encoded table answers ``key_combinations`` / ``participates`` with
exactly the :class:`FactTable` semantics (Sec. 3.3 combinatorial
incrementing, coverage gaps excluded), and the single-pass sweep kernel
(:mod:`repro.core.algorithms.columnar_sweep`) reads the per-state
:class:`StateView` projections this module caches.

The kernels group rows through a **group-id column** built one kept axis
at a time (:func:`extend_group_ids`) and consumed by
:func:`fold_group_ids` / :func:`count_group_ids`.  It is long-form: two
flat integer lists ``(rows, gids)`` with one entry per (base row, group)
pair, in base-row order — no entry for a row a coverage gap excluded,
several for a row in several groups, and ``rows=None`` while the column
is still one entry per row.

Page accounting: the encoded form is what a columnar scan reads.
Dictionary codes pack roughly eight times denser than the pointer-rich
row form (``ENTRIES_PER_PAGE = 128``), so the simulated storage layer
charges ``COLUMNAR_ENTRIES_PER_PAGE = 1024`` entries per page — the
compression win real columnar stores get from dictionary encoding.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.bindings import AnnotatedValue, FactRow, FactTable, GroupKey
from repro.core.lattice import CubeLattice, LatticePoint

#: Encoded entries per simulated 8 KB page.  The row layout packs 128
#: entries per page (:data:`repro.core.algorithms.base.ENTRIES_PER_PAGE`);
#: dictionary-encoded integer columns pack 8x denser.
COLUMNAR_ENTRIES_PER_PAGE = 1024

#: Rows per charged CPU op for batched column work.  Extending a group-id
#: column, gathering a partition or folding a measure slice is a flat
#: integer/float op over an ``array`` buffer; the model prices it at one
#: op per 8 rows versus the dict engine's one op per row.
VECTOR_LANES = 8

#: (dictionary, radix) per kept axis, accumulated along a sweep path or a
#: top-down build.  ``radix`` may exceed ``len(dictionary)`` by one when
#: the axis carries the Sec. 3.5 null digit (augmented keys).
KeptAxis = Tuple[Tuple[str, ...], int]

def vector_lanes(rows: int) -> int:
    """CPU ops charged for one batched pass over ``rows`` rows."""
    return -(-rows // VECTOR_LANES)


def extend_group_ids(
    rows: Optional[Sequence[int]],
    gids: List[int],
    view: StateView,
    radix: int,
    missing_code: Optional[int] = None,
    keep_rows: bool = True,
) -> Tuple[Optional[Sequence[int]], List[int]]:
    """Extend a group-id column with one kept axis's codes.

    The column is the long-form pair ``(rows, gids)``: entry ``k`` says
    base row ``rows[k]`` belongs to group ``gids[k]``.  An excluded row
    has no entry, a row in several groups has one entry per group, and
    ``rows is None`` means the identity (entry ``k`` is row ``k``), which
    a dense single-valued path keeps to the bottom without ever
    gathering.  The mixed-radix multiply-add ``gid * radix + code``
    appends one digit per kept axis; a row with several distinct codes
    fans each of its entries out into one entry per code (the Sec. 3.3
    cross product).  Entries stay in base-row order, a row's own in
    product order (earlier axes vary slowest), so a fold over the
    column adds measures in the order NAIVE does.

    ``missing_code`` selects the coverage-gap behaviour: ``None`` drops
    the row's entries (``key_combinations`` semantics — the sweep and
    BUC paths), while an integer assigns that digit to the gap (the
    Sec. 3.5 null padding of ``augmented_keys`` — the top-down roll-up
    paths, which pass ``missing_code=len(dictionary)`` and
    ``radix=len(dictionary)+1``).

    ``keep_rows=False`` skips building a new ``rows`` and returns
    ``None`` where one would have been built: for the edge above a
    consumer that reads only ``gids`` (:func:`count_group_ids`, a COUNT
    fold).
    """
    source = range(len(gids)) if rows is None else rows
    flat = view.flat
    if flat is None:
        per_row = view.per_row
        assert per_row is not None
        gap: Tuple[int, ...] = () if missing_code is None else (missing_code,)
        return (
            [r for r in source for _ in per_row[r] or gap]
            if keep_rows
            else None,
            [
                g * radix + c
                for r, g in zip(source, gids)
                for c in per_row[r] or gap
            ],
        )
    # One code per entry, read once by whichever branch runs.
    codes: Iterable[int] = (
        flat if rows is None else map(flat.__getitem__, rows)
    )
    if not view.missing:
        return rows, [g * radix + c for g, c in zip(gids, codes)]
    if missing_code is not None:
        return rows, [
            g * radix + (missing_code if c < 0 else c)
            for g, c in zip(gids, codes)
        ]
    return (
        [r for r in source if flat[r] >= 0] if keep_rows else None,
        [g * radix + c for g, c in zip(gids, codes) if c >= 0],
    )


def fold_group_ids(
    fn: Any,
    rows: Optional[Sequence[int]],
    gids: List[int],
    measures: "array[float]",
) -> Tuple[Dict[int, Any], int]:
    """Aggregate one group-id column into ``gid -> partial state`` cells.

    Measures fold in entry order — base-row order, the same fold order
    as NAIVE — so finalized floats are bit-identical to the dict engine.
    COUNT (which never reads ``rows``) and SUM take C-speed fast paths
    whose results equal the generic fold exactly (integer counts;
    left-to-right float addition from ``fn.new()``).  COUNT's cells are
    the :class:`~collections.Counter` itself (a ``dict``, first-seen
    order).

    Returns ``(cells, increments)``; the cell values are mergeable
    partial states (``fn.finalize`` pending).
    """
    if fn.name == "COUNT":
        return Counter(gids), len(gids)
    values: Iterable[float] = (
        measures if rows is None else map(measures.__getitem__, rows)
    )
    cells: Dict[int, Any] = {}
    if fn.name == "SUM":
        get = cells.get
        for g, measure in zip(gids, values):
            cells[g] = get(g, 0.0) + measure
    else:
        new = fn.new
        add = fn.add
        for g, measure in zip(gids, values):
            cells[g] = add(cells[g] if g in cells else new(), measure)
    return cells, len(gids)


def count_group_ids(gids: List[int]) -> int:
    """Number of distinct group ids in one group-id column — the cell
    count of the cuboid :func:`fold_group_ids` would build from it,
    without folding a measure or decoding a key."""
    return len(set(gids))


@dataclass(frozen=True)
class AxisColumn:
    """One axis of the encoded table.

    Attributes:
        dictionary: distinct values in first-seen order; the code of a
            value is its index here.
        codes: one code per annotated value, rows concatenated.
        masks: the structural-state bitmask of each annotated value,
            parallel to ``codes``.
        offsets: CSR offsets, length ``n_rows + 1``; row ``i`` owns
            ``codes[offsets[i]:offsets[i+1]]``.
        union_masks: per row, the OR of its value masks (participation
            bitset over structural states).
    """

    dictionary: Tuple[str, ...]
    codes: "array[int]"
    masks: "array[int]"
    offsets: "array[int]"
    union_masks: "array[int]"

    @property
    def radix(self) -> int:
        """Dictionary size, floored at 1 so mixed-radix math stays sane."""
        return max(1, len(self.dictionary))

    @cached_property
    def single_valued(self) -> bool:
        """Does every row hold exactly one annotated value (offsets
        ``0..n``)?  Then ``codes`` and ``masks`` are one entry per row."""
        return self.offsets == array("q", range(len(self.offsets)))

    @cached_property
    def wire_ranks(self) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
        """The dictionary sorted (the wire order of a key part), and the
        index in it of each code — what a kernel re-ranks group ids by
        to pack its cells (:func:`repro.core.packed.from_group_ids`)."""
        ordered = tuple(sorted(self.dictionary))
        index = {value: position for position, value in enumerate(ordered)}
        return ordered, tuple(map(index.__getitem__, self.dictionary))


@dataclass(frozen=True)
class StateView:
    """An axis projected onto one structural state.

    Exactly one of ``flat`` / ``per_row`` is set.  When every row binds at
    most one distinct code under the state, ``flat`` holds one code per
    row with ``-1`` for a coverage gap (the vectorizable fast path).
    Otherwise ``per_row`` holds each row's distinct codes in first-seen
    order (the Sec. 3.3 cross-product path).
    """

    flat: Optional["array[int]"]
    per_row: Optional[Tuple[Tuple[int, ...], ...]]
    missing: int

    def codes_of(self, row_index: int) -> Tuple[int, ...]:
        """The row's distinct codes under this state (may be empty)."""
        if self.per_row is not None:
            return self.per_row[row_index]
        assert self.flat is not None
        code = self.flat[row_index]
        return () if code < 0 else (code,)


class StateStatistics(NamedTuple):
    """An axis under one structural state, read off its :class:`StateView`
    (what the cost estimator and the data oracle know of the table)."""

    cardinality: int  # distinct values
    bound_rows: int  # rows binding at least one value
    values: int  # distinct values summed over the rows
    disjoint: bool  # no row binds two values
    covered: bool  # every row binds a value


class ColumnarFactTable:
    """The columnar encoding of a :class:`FactTable`.

    Build once with :meth:`from_table` (or the memoizing
    :meth:`FactTable.columnar` accessor); the encoding is immutable.
    """

    def __init__(
        self,
        lattice: CubeLattice,
        aggregate: object,
        columns: Tuple[AxisColumn, ...],
        measures: "array[float]",
        fact_hi: "array[int]",
        fact_lo: "array[int]",
    ) -> None:
        self.lattice = lattice
        self.aggregate = aggregate
        self.columns = columns
        self.measures = measures
        self.fact_hi = fact_hi
        self.fact_lo = fact_lo
        self.n_rows = len(measures)
        self._views: Dict[Tuple[int, int], StateView] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_table(cls, table: FactTable) -> "ColumnarFactTable":
        """Encode a fact table column-by-column (one pass over the rows)."""
        lattice = table.lattice
        axis_count = lattice.axis_count
        dictionaries: List[Dict[str, int]] = [{} for _ in range(axis_count)]
        codes: List["array[int]"] = [array("q") for _ in range(axis_count)]
        masks: List["array[int]"] = [array("Q") for _ in range(axis_count)]
        offsets: List["array[int]"] = [
            array("q", [0]) for _ in range(axis_count)
        ]
        unions: List["array[int]"] = [array("Q") for _ in range(axis_count)]
        measures: "array[float]" = array("d")
        fact_hi: "array[int]" = array("q")
        fact_lo: "array[int]" = array("q")
        for row in table.rows:
            measures.append(row.measure)
            fact_hi.append(row.fact_id[0])
            fact_lo.append(row.fact_id[1])
            for position in range(axis_count):
                dictionary = dictionaries[position]
                axis_codes = codes[position]
                axis_masks = masks[position]
                union = 0
                for annotated in row.axes[position]:
                    code = dictionary.setdefault(
                        annotated.value, len(dictionary)
                    )
                    axis_codes.append(code)
                    axis_masks.append(annotated.mask)
                    union |= annotated.mask
                offsets[position].append(len(axis_codes))
                unions[position].append(union)
        columns = tuple(
            AxisColumn(
                dictionary=tuple(dictionaries[position]),
                codes=codes[position],
                masks=masks[position],
                offsets=offsets[position],
                union_masks=unions[position],
            )
            for position in range(axis_count)
        )
        return cls(
            lattice, table.aggregate, columns, measures, fact_hi, fact_lo
        )

    # ------------------------------------------------------------------
    # state projections (what the sweep kernel reads)
    # ------------------------------------------------------------------
    def state_view(self, axis_position: int, state_index: int) -> StateView:
        """The axis projected onto one structural state (cached)."""
        key = (axis_position, state_index)
        view = self._views.get(key)
        if view is None:
            view = self._build_view(axis_position, state_index)
            self._views[key] = view
        return view

    def _build_view(self, axis_position: int, state_index: int) -> StateView:
        column = self.columns[axis_position]
        bit = 1 << state_index
        codes = column.codes
        masks = column.masks
        if column.single_valued:
            # A row's one value is its union mask: one comprehension.
            flat = array(
                "q", [c if m & bit else -1 for c, m in zip(codes, masks)]
            )
            return StateView(flat=flat, per_row=None, missing=flat.count(-1))
        offsets = column.offsets
        unions = column.union_masks
        flat_codes: List[int] = []
        per_row: List[Tuple[int, ...]] = []
        multi = False
        missing = 0
        for i in range(self.n_rows):
            if not unions[i] & bit:
                flat_codes.append(-1)
                per_row.append(())
                missing += 1
                continue
            distinct: List[int] = []
            for j in range(offsets[i], offsets[i + 1]):
                if masks[j] & bit:
                    code = codes[j]
                    if code not in distinct:
                        distinct.append(code)
            per_row.append(tuple(distinct))
            flat_codes.append(distinct[0])
            if len(distinct) > 1:
                multi = True
        if multi:
            return StateView(flat=None, per_row=tuple(per_row), missing=missing)
        return StateView(
            flat=array("q", flat_codes), per_row=None, missing=missing
        )

    def statistics(
        self, axis_position: int, state_index: int
    ) -> StateStatistics:
        """The axis's statistics under one structural state."""
        view = self.state_view(axis_position, state_index)
        bound = self.n_rows - view.missing
        if view.per_row is None:
            codes = set(view.flat or ()) - {-1}
            values = bound
        else:
            codes = {code for row in view.per_row for code in row}
            values = sum(map(len, view.per_row))
        return StateStatistics(
            len(codes), bound, values, view.per_row is None, not view.missing
        )

    def null_mask(self, axis_position: int, state_index: int) -> bytes:
        """One byte per row: 1 where the row has *no* value under the
        state (the paper's coverage gap), else 0."""
        bit = 1 << state_index
        unions = self.columns[axis_position].union_masks
        return bytes(
            0 if unions[i] & bit else 1 for i in range(self.n_rows)
        )

    # ------------------------------------------------------------------
    # FactTable-compatible semantics
    # ------------------------------------------------------------------
    def values_under(
        self, row_index: int, axis_position: int, state_index: int
    ) -> Tuple[str, ...]:
        """Distinct values of one row's axis under a structural state, in
        first-seen order — :meth:`FactRow.values_under`, decoded."""
        dictionary = self.columns[axis_position].dictionary
        return tuple(
            dictionary[code]
            for code in self.state_view(axis_position, state_index).codes_of(
                row_index
            )
        )

    def key_combinations(
        self, row_index: int, point: LatticePoint
    ) -> List[GroupKey]:
        """All group keys the row contributes to at a lattice point —
        exactly :meth:`FactTable.key_combinations` on the decoded row."""
        per_axis: List[Sequence[str]] = []
        for position, states in enumerate(self.lattice.axis_states):
            state = point[position]
            if states.is_dropped(state):
                continue
            values = self.values_under(row_index, position, state)
            if not values:
                return []
            per_axis.append(values)
        if not per_axis:
            return [()]
        keys: List[GroupKey] = [()]
        for values in per_axis:
            keys = [key + (value,) for key in keys for value in values]
        return keys

    def participates(self, row_index: int, point: LatticePoint) -> bool:
        """Does the row appear in any group of the cuboid at ``point``?"""
        for position, states in enumerate(self.lattice.axis_states):
            state = point[position]
            if states.is_dropped(state):
                continue
            bit = 1 << state
            if not self.columns[position].union_masks[row_index] & bit:
                return False
        return True

    # ------------------------------------------------------------------
    # partition refinement (what the BUC kernel reads)
    # ------------------------------------------------------------------
    def partition_slices(
        self,
        rows: "array[int]",
        start: int,
        end: int,
        axis_position: int,
        state_index: int,
        exclusive: bool,
    ) -> Tuple["array[int]", Tuple[Tuple[int, int, int], ...]]:
        """Refine one partition of row indices by an (axis, state) pair.

        ``rows[start:end]`` is the current partition (a slice of a flat
        row-index buffer — BUC's partitions are ``(start, end)`` ranges,
        never row-dict lists).  The result is ``(refined, slices)``:
        ``refined`` holds the surviving row indices bucketed by
        dictionary code, codes ascending, **base-row order preserved
        within each code** (stable bucketing — what keeps fold order, and
        therefore floats, identical to NAIVE); each ``slices`` entry is
        ``(code, bucket_start, bucket_end)`` into ``refined``.

        A row with no value under the state has no code — the union-mask
        coverage gap — and drops out.  ``exclusive`` places a multi-valued
        row into its *first* code's bucket only (BUCOPT's disjointness
        assumption); otherwise the row is replicated into every distinct
        code's bucket (safe BUC, Sec. 3.4).
        """
        view = self.state_view(axis_position, state_index)
        buckets: Dict[int, List[int]] = {}
        flat = view.flat
        if flat is not None:
            for i in range(start, end):
                r = rows[i]
                c = flat[r]
                if c >= 0:
                    bucket = buckets.get(c)
                    if bucket is None:
                        buckets[c] = [r]
                    else:
                        bucket.append(r)
        else:
            per_row = view.per_row
            assert per_row is not None
            for i in range(start, end):
                r = rows[i]
                codes = per_row[r]
                if not codes:
                    continue
                if exclusive:
                    codes = codes[:1]
                for c in codes:
                    bucket = buckets.get(c)
                    if bucket is None:
                        buckets[c] = [r]
                    else:
                        bucket.append(r)
        refined: "array[int]" = array("q")
        slices: List[Tuple[int, int, int]] = []
        for code in sorted(buckets):
            bucket_start = len(refined)
            refined.extend(buckets[code])
            slices.append((code, bucket_start, len(refined)))
        return refined, tuple(slices)

    # ------------------------------------------------------------------
    # lossless decode
    # ------------------------------------------------------------------
    def decode_row(self, row_index: int) -> FactRow:
        """Reconstruct the original row, duplicates and order included."""
        axes: List[Tuple[AnnotatedValue, ...]] = []
        for column in self.columns:
            start = column.offsets[row_index]
            stop = column.offsets[row_index + 1]
            axes.append(
                tuple(
                    AnnotatedValue(
                        column.dictionary[column.codes[j]], column.masks[j]
                    )
                    for j in range(start, stop)
                )
            )
        return FactRow(
            fact_id=(self.fact_hi[row_index], self.fact_lo[row_index]),
            measure=self.measures[row_index],
            axes=tuple(axes),
        )

    def to_fact_table(self) -> FactTable:
        """Decode the whole table (round-trip partner of
        :meth:`from_table`)."""
        from repro.core.aggregates import AggregateSpec

        aggregate = self.aggregate
        assert isinstance(aggregate, AggregateSpec)
        return FactTable(
            self.lattice,
            [self.decode_row(i) for i in range(self.n_rows)],
            aggregate,
        )

    # ------------------------------------------------------------------
    # storage accounting and raw buffer access
    # ------------------------------------------------------------------
    @property
    def encoded_entries(self) -> int:
        """Abstract entry footprint of the encoded table: one entry per
        row (measure + ids) plus one per annotated value plus the
        dictionaries — the columnar mirror of ``table_entries``."""
        return self.n_rows + sum(
            len(column.codes) + len(column.dictionary)
            for column in self.columns
        )

    @property
    def encoded_pages(self) -> int:
        """Simulated pages one sequential scan of the encoding reads."""
        return max(
            1, -(-self.encoded_entries // COLUMNAR_ENTRIES_PER_PAGE)
        )

    def measures_view(self) -> memoryview:
        """Zero-copy view of the measure column."""
        return memoryview(self.measures)

    def codes_view(self, axis_position: int) -> memoryview:
        """Zero-copy view of an axis's code column."""
        return memoryview(self.columns[axis_position].codes)

    def offsets_view(self, axis_position: int) -> memoryview:
        """Zero-copy view of an axis's CSR offsets column."""
        return memoryview(self.columns[axis_position].offsets)

    # ------------------------------------------------------------------
    # introspection (goldens, docs, debugging)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Shape summary of the encoding."""
        return {
            "n_rows": self.n_rows,
            "n_axes": len(self.columns),
            "encoded_entries": self.encoded_entries,
            "encoded_pages": self.encoded_pages,
            "cardinalities": [
                len(column.dictionary) for column in self.columns
            ],
            "value_counts": [len(column.codes) for column in self.columns],
        }

    def snapshot(self) -> Dict[str, object]:
        """A JSON-able dump of the full physical layout (golden tests).

        Per axis: the dictionary, the code/mask/offset columns, and one
        null-mask row per structural state.  Layout changes show up as a
        golden diff, so they are deliberate.
        """
        axes: List[Dict[str, object]] = []
        for position, states in enumerate(self.lattice.axis_states):
            column = self.columns[position]
            axes.append(
                {
                    "axis": states.axis.name,
                    "dictionary": list(column.dictionary),
                    "codes": list(column.codes),
                    "masks": list(column.masks),
                    "offsets": list(column.offsets),
                    "union_masks": list(column.union_masks),
                    "null_masks": {
                        states.describe(index): list(
                            self.null_mask(position, index)
                        )
                        for index in range(len(states.states))
                    },
                }
            )
        return {
            "n_rows": self.n_rows,
            "measures": list(self.measures),
            "fact_ids": [
                [self.fact_hi[i], self.fact_lo[i]]
                for i in range(self.n_rows)
            ],
            "axes": axes,
        }

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ColumnarFactTable rows={self.n_rows} "
            f"axes={len(self.columns)} entries={self.encoded_entries}>"
        )
