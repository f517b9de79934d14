"""Bottom-up cube computation (Sec. 3.4): one recursion, two kernels, three rules.

The XMLized BottomUpCube recursion starts from the most relaxed cuboid
(all axes dropped: one group over the whole fact set) and refines: for
each axis after the current one, for each of the axis's structural
states, partition the current part by the axis's values under that state
and recurse into each partition.  Each recursion node *is* one group of
one cuboid (the point keeps the instantiated axes at their chosen states
and drops the rest), so the whole lattice is produced in one traversal
whose cost tracks the total size of all partitions — which collapses
quickly on sparse cubes, BUC's classic strength.

A node appends a code and a value to its point's two arrays, never a key
tuple to a dict: the cuboids come out as
:class:`~repro.core.packed.PackedCuboid`.  A kernel's ``refine`` yields
each part with its **digit**, the value's index in the axis's sorted
dictionary, in ascending digit order; a child's code is its parent's
times the axis's radix plus the digit — BUC only ever appends a later
axis, the less significant digit — so every point's codes arrive sorted
and no final sort or :func:`~repro.core.packed.pack` runs.

That is one procedure, the ``recurse`` of :meth:`BucAlgorithm._bottom_up`;
the variants differ only in where a fact with several values on the
partitioning axis is placed — the **placement rule**
:meth:`BucAlgorithm.exclusive`, asked per (axis, state):

=======  ===========================================  ========
variant  placement rule (``exclusive``)               requires
=======  ===========================================  ========
BUC      never: replicate the fact into every         —
         matching partition, plus two bookkeeping
         ops per copy (Sec. 3.4: "consider all
         elements ... including those that have
         already satisfied the restrictions for
         some other children")
BUCOPT   always: the partition of its first value     disjointness
         only — cheaper, and wrong on non-disjoint
         data (Fig. 9)
BUCCUST  where the oracle proves the (axis, state)    —
         disjoint (Sec. 4.5); replicate elsewhere
=======  ===========================================  ========

The recursion runs on one of two **kernels** (``ExecutionContext.use_columnar``
chooses) of three primitives — ``size``, ``fold`` and ``refine`` a part —
that give the same cuboids, the wrong ones included, each under its own
modeled charges:

- :class:`_ColumnarKernel` (the default): a part is a ``(rows, start,
  end)`` slice of a flat row-index buffer over the dictionary-encoded
  columns of :class:`~repro.core.columnar.ColumnarFactTable`, refined by
  :meth:`~repro.core.columnar.ColumnarFactTable.partition_slices` —
  stable code bucketing over the memoized state views, a counting sort
  charged one op per :data:`~repro.core.columnar.VECTOR_LANES` rows;
  a coverage gap drops out by its union mask.  Folds run in base-row
  order over the measure column, so finalized floats are bit-identical
  to NAIVE.  Its dictionaries and digits are each column's
  :attr:`~repro.core.columnar.AxisColumn.wire_ranks`.
- :class:`_DictKernel` (``encoding="dict"``): the legacy :class:`FactRow`
  path — a part is a row list, a refinement a comparison sort (external
  past the memory budget) of the placements.  Its dictionaries are the
  table's (:meth:`~repro.core.bindings.FactTable.dictionaries`).  The
  ``BUC-dict`` ledger layer times it; it is the object ROADMAP item
  4(iii) deletes.

Both keep replication's scalar per-copy bookkeeping, which preserves the
BUCOPT < BUCCUST <= BUC cost ordering the figures show.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Protocol, Tuple, TypeVar

from repro import obs
from repro.core.algorithms.base import CubeAlgorithm, ExecutionContext
from repro.core.bindings import FactRow
from repro.core.columnar import ColumnarFactTable, vector_lanes
from repro.core.lattice import LatticePoint
from repro.core.packed import Axes, Codes, PackedCuboid, as_codes

#: A kernel's part of the fact set (one recursion node's group).
Part = TypeVar("Part")
#: A columnar part: ``rows[start:end]`` of a flat row-index buffer.
Slice = Tuple["array[int]", int, int]


class BucAlgorithm(CubeAlgorithm):
    """The recursion.  BUC: safe replication everywhere."""

    name = "BUC"
    encodings = ("columnar", "dict")

    def exclusive(
        self, context: ExecutionContext, axis: int, state: int
    ) -> bool:
        """The placement rule: may a fact with several values under
        (axis, state) go into its first value's partition only?"""
        return False

    def _compute(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, PackedCuboid], int]:
        if context.use_columnar:
            return self._bottom_up(context, points, _ColumnarKernel(context))
        return self._bottom_up(context, points, _DictKernel(context))

    def _bottom_up(
        self,
        context: ExecutionContext,
        points: List[LatticePoint],
        kernel: "_Kernel[Part]",
    ) -> Tuple[Dict[LatticePoint, PackedCuboid], int]:
        lattice = context.lattice
        min_support = context.min_support
        radices = [max(1, len(axis)) for axis in kernel.dictionaries]
        # Per wanted point: its dictionaries, codes and values.
        built: Dict[LatticePoint, Tuple[Axes, Codes, "array[float]"]] = {}
        for point in points:
            axes = tuple(
                kernel.dictionaries[axis] for axis in lattice.kept_axes(point)
            )
            built[point] = (axes, as_codes(axes, ()), array("d"))

        def recurse(
            part: Part, start_axis: int, point: LatticePoint, code: int
        ) -> None:
            """One recursion node = one group of one cuboid."""
            size = kernel.size(part)
            if not size:
                return
            arrays = built.get(point)
            if arrays is not None:
                arrays[1].append(code)
                arrays[2].append(kernel.fold(part))
            # Iceberg pruning (Beyer & Ramakrishnan): COUNT is monotone
            # under refinement, so a part below the support threshold
            # cannot contain any qualifying subgroup.
            if min_support > 0 and size < min_support:
                return
            for axis in range(start_axis, lattice.axis_count):
                radix = radices[axis]
                for state in range(len(lattice.axis_states[axis].states)):
                    exclusive = self.exclusive(context, axis, state)
                    child = point[:axis] + (state,) + point[axis + 1:]
                    for digit, sub in kernel.refine(part, axis, state, exclusive):
                        recurse(sub, axis + 1, child, code * radix + digit)

        apex = tuple(states.dropped_index for states in lattice.axis_states)
        with obs.span(
            "buc.refine",
            category="algorithm",
            facts=len(context.table.rows),
            points=len(built),
        ):
            recurse(kernel.root, 0, apex, 0)
        return {point: PackedCuboid(*arrays) for point, arrays in built.items()}, 1


class BucOptAlgorithm(BucAlgorithm):
    """BUCOPT: assumes disjointness globally (wrong when it fails)."""

    name = "BUCOPT"
    requires = ("disjointness",)

    def exclusive(
        self, context: ExecutionContext, axis: int, state: int
    ) -> bool:
        return True


class BucCustAlgorithm(BucAlgorithm):
    """BUCCUST: exploits disjointness exactly where the oracle proves it."""

    name = "BUCCUST"

    def exclusive(
        self, context: ExecutionContext, axis: int, state: int
    ) -> bool:
        return context.oracle.axis_disjoint(axis, state)


# ----------------------------------------------------------------------
# the two kernels
# ----------------------------------------------------------------------

class _Kernel(Protocol[Part]):
    """What the recursion needs of a part representation."""

    #: The whole fact set as one part (the recursion's apex).
    root: Part
    #: Per axis, the sorted values a digit indexes.
    dictionaries: Axes

    def size(self, part: Part) -> int: ...

    def fold(self, part: Part) -> float: ...

    def refine(
        self, part: Part, axis: int, state: int, exclusive: bool
    ) -> List[Tuple[int, Part]]: ...


class _ColumnarKernel:
    """Row-index slices over the encoded columns (the default)."""

    def __init__(self, context: ExecutionContext):
        self.context = context
        self.fn = context.table.aggregate.fn
        self.encoded: ColumnarFactTable = context.encode()
        context.charge_encoded_scan(self.encoded.encoded_pages)
        n_rows = self.encoded.n_rows
        self.root: Slice = (array("q", range(n_rows)), 0, n_rows)
        self.dictionaries: Axes = tuple(
            column.wire_ranks[0] for column in self.encoded.columns
        )

    def size(self, part: Slice) -> int:
        _, start, end = part
        return end - start

    def fold(self, part: Slice) -> float:
        """Fold one part's measures in base-row order.

        The slice is strictly ascending in base-row index (stable
        bucketing), so the fold order — and therefore every finalized
        float — is identical to NAIVE's per-group fold.  COUNT and SUM
        short-circuit to forms that compute the exact same values.
        """
        rows, start, end = part
        fn = self.fn
        self.context.cost.charge_cpu(vector_lanes(end - start) + 1)
        if fn.name == "COUNT":
            return fn.finalize(end - start)
        measures = self.encoded.measures
        if fn.name == "SUM":
            total = 0.0
            for i in range(start, end):
                total += measures[rows[i]]
            return fn.finalize(total)
        state = fn.new()
        add = fn.add
        for i in range(start, end):
            state = add(state, measures[rows[i]])
        return fn.finalize(state)

    def refine(
        self, part: Slice, axis: int, state: int, exclusive: bool
    ) -> List[Tuple[int, Slice]]:
        """Bucket a slice by (axis, state), charging the columnar model;
        the buckets come back in wire order, each with its digit.

        Exclusive placement is one vectorized gather over the slice;
        replication pays the gather plus scalar per-copy identity
        bookkeeping (the replicas must be tracked, exactly like the dict
        kernel) — so proving disjointness still buys a strictly cheaper
        partition step.  A partition wider than the memory budget spills
        its placement buffer.
        """
        rows, start, end = part
        context = self.context
        refined, slices = self.encoded.partition_slices(
            rows, start, end, axis, state, exclusive=exclusive
        )
        placements = len(refined)
        context.cost.charge_cpu(vector_lanes(end - start))
        if not exclusive:
            context.cost.charge_cpu(2 * placements)
        if placements > context.budget.capacity_entries:
            context.charge_spill(placements)
        context.bump("buc_partition_calls")
        context.bump("buc_placements", placements)
        # The bucketing is a counting sort over the code domain: counted
        # with the sorts, so the phases account for every ordering pass.
        context.count_sort("counting", placements)
        ranks = self.encoded.columns[axis].wire_ranks[1]
        # Distinct codes have distinct ranks: the sort never compares parts.
        parts = [
            (ranks[code], (refined, bucket_start, bucket_end))
            for code, bucket_start, bucket_end in slices
        ]
        parts.sort()
        return parts


class _DictKernel:
    """The :class:`FactRow` kernel (``encoding="dict"``)."""

    def __init__(self, context: ExecutionContext):
        self.context = context
        self.fn = context.table.aggregate.fn
        context.charge_base_scan()
        self.root: List[FactRow] = list(context.table.rows)
        self.dictionaries: Axes = context.table.dictionaries()
        self.digits = [
            {value: digit for digit, value in enumerate(axis)}
            for axis in self.dictionaries
        ]

    def size(self, part: List[FactRow]) -> int:
        return len(part)

    def fold(self, part: List[FactRow]) -> float:
        fn = self.fn
        state = fn.new()
        for row in part:
            state = fn.add(state, row.measure)
        self.context.cost.charge_cpu(len(part) + 1)
        return fn.finalize(state)

    def refine(
        self, part: List[FactRow], axis: int, state: int, exclusive: bool
    ) -> List[Tuple[int, List[FactRow]]]:
        """Partition rows by their values under one state, in wire
        order, each partition with its value's digit.

        Facts with no value are excluded (the coverage gap).  The cost is
        a sort of the placement list (the paper partitions by sorting)
        plus per-placement CPU.
        """
        context = self.context
        value_sets = context.table.value_sets
        placements: List[Tuple[str, FactRow]] = []
        for row in part:
            values = row.values_under(axis, state, value_sets)
            if not values:
                continue
            if exclusive:
                placements.append((values[0], row))
                context.cost.charge_cpu()
            else:
                # Replication into every matching partition, plus
                # identity bookkeeping per copy.
                for value in values:
                    placements.append((value, row))
                    context.cost.charge_cpu(2)
        placements = context.sort(
            placements, key=lambda placement: placement[0]
        )
        partitions: Dict[str, List[FactRow]] = {}
        for value, row in placements:
            partitions.setdefault(value, []).append(row)
        context.bump("buc_partition_calls")
        context.bump("buc_placements", len(placements))
        digits = self.digits[axis]
        return [
            (digits[value], rows) for value, rows in sorted(partitions.items())
        ]
