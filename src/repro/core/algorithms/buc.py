"""Bottom-up cube computation: BUC, BUCOPT, BUCCUST (paper Sec. 3.4).

The XMLized BottomUpCube recursion starts from the most relaxed cuboid
(all axes dropped: one group over the whole match set of the most relaxed
fully instantiated pattern) and recursively refines: for each axis after
the current one, for each of the axis's structural states, partition the
current fact set by the axis's values under that state and recurse into
each partition.  Each recursion node *is* one group of one cuboid (the
point keeps the instantiated axes at their chosen states and drops the
rest), so the whole lattice is produced in one traversal whose cost
tracks the total size of all partitions — which collapses quickly on
sparse cubes, BUC's classic strength.

Overlap handling (non-disjointness): a fact with several values on the
partitioning axis belongs to *several* partitions.

- ``BUC`` replicates the fact into every matching partition (the safe
  behaviour Sec. 3.4 requires: "consider all elements in the child cuboid
  for each parent cuboid restriction, including those that have already
  satisfied the restrictions for some other children") and pays the extra
  copy + bookkeeping per (fact, value) pair.
- ``BUCOPT`` assumes disjointness: it moves each fact into the partition
  of its *first* value — a cheaper single-placement pass (and no
  replication bookkeeping).  If the data is actually non-disjoint its
  cuboids are wrong, exactly as the paper reports in Fig. 9.
- ``BUCCUST`` (Sec. 4.5) consults the property oracle per (axis, state):
  the cheap placement where disjointness is guaranteed, the safe
  replication elsewhere — correct everywhere, faster than plain BUC.

Columnar execution (the default, ``ExecutionOptions(encoding="auto")``):
the recursion runs over the dictionary-encoded columns of
:class:`~repro.core.columnar.ColumnarFactTable`.  A partition is a
``(start, end)`` slice of a flat row-index buffer, refined per
(axis, state) by :meth:`~repro.core.columnar.ColumnarFactTable.partition_slices`
— stable code bucketing over the memoized :class:`StateView`
projections, so no per-partition sort is charged (dense per-axis code
domains make partitioning a counting sort); the union-mask bits drive
the coverage-gap pruning.  Exclusive placement is a vectorized gather
(one op per :data:`~repro.core.columnar.VECTOR_LANES` rows); safe
replication still pays scalar per-copy bookkeeping, which preserves the
BUCOPT < BUCCUST <= BUC cost ordering the figures show.  Group folds run
in base-row order over the measure column, so finalized floats are
bit-identical to NAIVE.  ``encoding="dict"`` pins the legacy
:class:`FactRow` path (what the duels time the columnar path against).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Set, Tuple

from repro import obs
from repro.core.algorithms.base import CubeAlgorithm, ExecutionContext
from repro.core.bindings import FactRow
from repro.core.columnar import ColumnarFactTable, vector_lanes
from repro.core.groupby import Cuboid
from repro.core.lattice import LatticePoint
from repro.timber.external_sort import sorted_with_cost


class BucAlgorithm(CubeAlgorithm):
    """Safe BUC: replication-based overlap handling."""

    name = "BUC"
    encodings = ("columnar", "dict")
    exploit_disjointness = False
    use_oracle = False

    def _compute(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, Cuboid], int]:
        self._context = context
        self._wanted: Set[LatticePoint] = set(points)
        self._cuboids: Dict[LatticePoint, Cuboid] = {
            point: {} for point in points
        }
        self._fn = context.table.aggregate.fn
        self._fn_name = self._fn.name
        self._axis_count = context.table.lattice.axis_count
        if context.use_columnar:
            return self._compute_columnar(context)
        context.charge_base_scan()
        self._recurse(list(context.table.rows), 0, [], [])
        return self._cuboids, 1

    # ------------------------------------------------------------------
    # columnar path: recursion over code-range slices
    # ------------------------------------------------------------------
    def _compute_columnar(
        self, context: ExecutionContext
    ) -> Tuple[Dict[LatticePoint, Cuboid], int]:
        table = context.table
        with obs.span(
            "buc.encode", category="columnar", facts=len(table.rows)
        ):
            encoded = table.columnar()
        self._encoded: ColumnarFactTable = encoded
        # One sequential scan of the encoded table; the encode work is
        # charged every run so modeled cost never depends on whether the
        # memoized encoding was warm.
        context.charge_encoded_scan(encoded.encoded_pages)
        context.cost.charge_cpu(encoded.encoded_entries)
        rows: "array[int]" = array("q", range(encoded.n_rows))
        with obs.span(
            "buc.refine",
            category="columnar",
            facts=encoded.n_rows,
            points=len(self._wanted),
        ):
            self._recurse_columnar(rows, 0, len(rows), 0, [], [])
        return self._cuboids, 1

    def _recurse_columnar(
        self,
        rows: "array[int]",
        start: int,
        end: int,
        start_axis: int,
        inst: List[Tuple[int, int]],
        key: List[str],
    ) -> None:
        """One recursion node = one group of one cuboid, as a row slice."""
        size = end - start
        point = self._point_of(inst)
        if point in self._wanted and size:
            self._cuboids[point][tuple(key)] = self._fold_slice(
                rows, start, end
            )
            self._context.cost.charge_cpu(vector_lanes(size) + 1)
        if not size:
            return
        min_support = self._context.min_support
        if min_support > 0 and size < min_support:
            return
        lattice = self._context.lattice
        for axis_position in range(start_axis, self._axis_count):
            axis_states = lattice.axis_states[axis_position]
            dictionary = self._encoded.columns[axis_position].dictionary
            for state_index in range(len(axis_states.states)):
                refined, slices = self._partition_columnar(
                    rows, start, end, axis_position, state_index
                )
                for code, bucket_start, bucket_end in slices:
                    self._recurse_columnar(
                        refined,
                        bucket_start,
                        bucket_end,
                        axis_position + 1,
                        inst + [(axis_position, state_index)],
                        key + [dictionary[code]],
                    )

    def _fold_slice(
        self, rows: "array[int]", start: int, end: int
    ) -> float:
        """Fold one partition's measures in base-row order.

        The slice is strictly ascending in base-row index (stable
        bucketing), so the fold order — and therefore every finalized
        float — is identical to NAIVE's per-group fold.  COUNT and SUM
        short-circuit to forms that compute the exact same values.
        """
        fn = self._fn
        if self._fn_name == "COUNT":
            return fn.finalize(end - start)
        measures = self._encoded.measures
        if self._fn_name == "SUM":
            total = 0.0
            for i in range(start, end):
                total += measures[rows[i]]
            return fn.finalize(total)
        state = fn.new()
        add = fn.add
        for i in range(start, end):
            state = add(state, measures[rows[i]])
        return fn.finalize(state)

    def _partition_columnar(
        self,
        rows: "array[int]",
        start: int,
        end: int,
        axis_position: int,
        state_index: int,
    ) -> Tuple["array[int]", Tuple[Tuple[int, int, int], ...]]:
        """Refine a slice by (axis, state), charging the columnar model.

        Exclusive placement is one vectorized gather over the slice;
        safe replication pays the gather plus scalar per-copy identity
        bookkeeping (the replicas must be tracked, exactly like the dict
        path) — so proving disjointness still buys a strictly cheaper
        partition step.  A partition wider than the memory budget spills
        its placement buffer.
        """
        context = self._context
        fast = self._use_fast_partition(axis_position, state_index)
        refined, slices = self._encoded.partition_slices(
            rows, start, end, axis_position, state_index, exclusive=fast
        )
        placements = len(refined)
        context.cost.charge_cpu(vector_lanes(end - start))
        if not fast:
            context.cost.charge_cpu(2 * placements)
        if placements > context.budget.capacity_entries:
            context.charge_spill(placements)
        context.bump("buc_partition_calls")
        context.bump("buc_placements", placements)
        if obs.enabled():
            # The bucketing is a counting sort over the code domain —
            # record it under the sort counters so the trace still
            # accounts for every ordering pass the kernel performs.
            obs.count("x3_sorts_total", kind="counting")
            obs.count("x3_sorted_items_total", placements, kind="counting")
        return refined, slices

    # ------------------------------------------------------------------
    def _recurse(
        self,
        rows: List[FactRow],
        start_axis: int,
        inst: List[Tuple[int, int]],
        key: List[str],
    ) -> None:
        """One recursion node = one group of one cuboid.

        ``inst`` holds (axis position, state index) for the instantiated
        axes (ascending positions); ``key`` the chosen values.
        """
        point = self._point_of(inst)
        if point in self._wanted and rows:
            state = self._fn.new()
            for row in rows:
                state = self._fn.add(state, row.measure)
            self._cuboids[point][tuple(key)] = self._fn.finalize(state)
            self._context.cost.charge_cpu(len(rows) + 1)
        if not rows:
            return
        lattice = self._context.table.lattice
        # Iceberg pruning (Beyer & Ramakrishnan): COUNT is monotone under
        # refinement, so a partition below the support threshold cannot
        # contain any qualifying subgroup.
        min_support = self._context.min_support
        if min_support > 0 and len(rows) < min_support:
            return
        for axis_position in range(start_axis, self._axis_count):
            axis_states = lattice.axis_states[axis_position]
            for state_index in range(len(axis_states.states)):
                partitions = self._partition(rows, axis_position, state_index)
                for value in sorted(partitions):
                    self._recurse(
                        partitions[value],
                        axis_position + 1,
                        inst + [(axis_position, state_index)],
                        key + [value],
                    )

    def _point_of(self, inst: List[Tuple[int, int]]) -> LatticePoint:
        lattice = self._context.table.lattice
        point = [
            states.dropped_index for states in lattice.axis_states
        ]
        for axis_position, state_index in inst:
            point[axis_position] = state_index
        return tuple(point)

    # ------------------------------------------------------------------
    def _partition(
        self, rows: List[FactRow], axis_position: int, state_index: int
    ) -> Dict[str, List[FactRow]]:
        """Partition facts by their axis values under one state.

        Facts with no value are excluded (the coverage gap).  The cost is
        a sort of the placement list (the paper partitions by sorting)
        plus per-placement CPU.
        """
        context = self._context
        fast = self._use_fast_partition(axis_position, state_index)
        placements: List[Tuple[str, FactRow]] = []
        for row in rows:
            values = row.values_under(axis_position, state_index)
            if not values:
                continue
            if fast:
                # Exclusive placement: disjointness assumed/guaranteed.
                placements.append((values[0], row))
                context.cost.charge_cpu()
            else:
                # Safe replication into every matching partition, plus
                # identity bookkeeping per copy.
                for value in values:
                    placements.append((value, row))
                    context.cost.charge_cpu(2)
        placements = sorted_with_cost(
            placements,
            context.cost,
            budget=context.budget,
            key=lambda placement: placement[0],
        )
        partitions: Dict[str, List[FactRow]] = {}
        for value, row in placements:
            partitions.setdefault(value, []).append(row)
        context.bump("buc_partition_calls")
        context.bump("buc_placements", len(placements))
        return partitions

    def _use_fast_partition(
        self, axis_position: int, state_index: int
    ) -> bool:
        if self.use_oracle:
            return self._context.oracle.axis_disjoint(
                axis_position, state_index
            )
        return self.exploit_disjointness


class BucOptAlgorithm(BucAlgorithm):
    """BUCOPT: assumes disjointness globally (wrong when it fails)."""

    name = "BUCOPT"
    requires = ("disjointness",)
    exploit_disjointness = True
    use_oracle = False


class BucCustAlgorithm(BucAlgorithm):
    """BUCCUST: exploits disjointness exactly where the oracle proves it."""

    name = "BUCCUST"
    exploit_disjointness = False
    use_oracle = True
