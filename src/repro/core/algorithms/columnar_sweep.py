"""COLUMNAR: vectorized single-pass multi-cuboid sweep over encoded columns.

The counter algorithm (Sec. 3.3) already computes every requested cuboid
from one base scan, but it re-derives the per-axis value lists and hashes
a *string-tuple* key per (row, point, combination).  This kernel runs the
same combinatorial incrementing over the dictionary-encoded columns of
:class:`~repro.core.columnar.ColumnarFactTable` and shares work across
cuboids:

- the requested lattice points are arranged in a **prefix trie** keyed by
  their per-axis states, so two points that keep axis 0 in the same state
  share the column combine for axis 0 (one pass, many cuboids);
- a trie edge extends a whole **group-id column** at once with a
  mixed-radix multiply-add (``gid * radix + code``) — one list
  comprehension over an ``array('q')`` state view, no per-row dict or
  tuple work;
- a row with no value under a kept state carries ``None`` — the coverage
  gap of Sec. 2 — and drops out of every cuboid below that edge, exactly
  the ``key_combinations`` contract;
- a row with several distinct values fans out into a tuple of group ids
  (the Sec. 3.3 cross product); the codes are distinct by construction,
  so a fact still counts once per group;
- at a leaf, integer group ids index a counter dict (COUNT and SUM use
  C-speed fast paths); ids decode back to string group keys with the
  reversed mixed-radix divmod.

Aggregation folds measures in base-row order — the same fold order as
NAIVE and COUNTER — so finalized floats are **bit-identical** to the dict
engine, which is what the differential battery asserts.

Cost model: one sequential scan of the *encoded* pages (dictionary codes
pack ~8x denser than the row form), the encode itself charged at full
CPU rate every run, and column combines / counter updates charged at one
op per :data:`VECTOR_LANES` rows (batched integer ops on flat buffers
versus per-row hash probes).  Memory behaviour mirrors COUNTER: when the
cells overflow the budget the sweep degrades to multi-pass partitioned
execution, re-reading the encoded table per extra pass.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple, cast

from repro import obs
from repro.core.algorithms.base import CubeAlgorithm, ExecutionContext
from repro.core.bindings import GroupKey
from repro.core.columnar import (
    VECTOR_LANES,
    ColumnarFactTable,
    KeptAxis,
    RowGroups,
    extend_group_ids,
    fold_group_ids,
    make_group_decoder,
    vector_lanes,
)
from repro.core.groupby import Cuboid
from repro.core.lattice import LatticePoint

__all__ = ["ColumnarSweepAlgorithm", "VECTOR_LANES"]


class ColumnarSweepAlgorithm(CubeAlgorithm):
    name = "COLUMNAR"

    def _compute(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, Cuboid], int]:
        table = context.table
        with obs.span(
            "columnar.encode", category="columnar", facts=len(table.rows)
        ):
            encoded = table.columnar()
        n_rows = encoded.n_rows

        # One sequential scan of the encoded table; the encode work is
        # charged every run so modeled cost never depends on whether the
        # memoized encoding was warm.
        context.charge_encoded_scan(encoded.encoded_pages)
        context.cost.charge_cpu(encoded.encoded_entries)
        context.cost.charge_cpu(vector_lanes(n_rows))

        sweep = _Sweep(context, encoded, table.aggregate.fn)
        with obs.span(
            "columnar.sweep",
            category="columnar",
            points=len(points),
            facts=n_rows,
        ):
            sweep.descend(0, [0] * n_rows, False, list(points), [])

        total_cells = sweep.total_cells
        passes = max(
            1, -(-total_cells // context.budget.capacity_entries)
        )
        context.bump("columnar_cells", total_cells)
        context.bump("columnar_increments", sweep.increments)
        context.bump("columnar_nodes", sweep.nodes)
        context.bump("columnar_passes", passes)
        context.budget.acquire(
            min(total_cells, context.budget.capacity_entries)
        )
        for _ in range(passes - 1):
            context.bump("columnar_scans")
            context.cost.charge_read(encoded.encoded_pages)
            context.cost.charge_cpu(vector_lanes(n_rows))
            context.charge_spill(context.budget.capacity_entries)
        obs.count("x3_columnar_rows_total", n_rows)
        obs.count("x3_columnar_cells_total", total_cells)
        obs.count("x3_columnar_trie_nodes_total", sweep.nodes)
        obs.count("x3_columnar_increments_total", sweep.increments)
        obs.count("x3_columnar_passes_total", passes)
        context.budget.release_all()
        return sweep.cuboids, passes


class _Sweep:
    """One sweep's mutable state (fresh per run; thread-safe by isolation)."""

    def __init__(
        self,
        context: ExecutionContext,
        encoded: ColumnarFactTable,
        fn: Any,
    ) -> None:
        self.context = context
        self.encoded = encoded
        self.fn = fn
        self.fn_name = fn.name
        self.cuboids: Dict[LatticePoint, Cuboid] = {}
        self.total_cells = 0
        self.increments = 0
        self.nodes = 0

    # ------------------------------------------------------------------
    # the prefix trie over requested points
    # ------------------------------------------------------------------
    def descend(
        self,
        position: int,
        prefix: List[RowGroups],
        has_multi: bool,
        points: List[LatticePoint],
        kept: List[KeptAxis],
    ) -> None:
        lattice = self.context.lattice
        if position == lattice.axis_count:
            # All points in this bucket are the same tuple.
            self.cuboids[points[0]] = self._leaf(prefix, has_multi, kept)
            return
        states = lattice.axis_states[position]
        buckets: Dict[int, List[LatticePoint]] = {}
        for point in points:
            buckets.setdefault(point[position], []).append(point)
        for state in sorted(buckets):
            subset = buckets[state]
            if states.is_dropped(state):
                # Dropped axis: the group-id column passes through
                # unchanged (LND keeps every fact, adds no key part).
                self.descend(position + 1, prefix, has_multi, subset, kept)
                continue
            column = self.encoded.columns[position]
            view = self.encoded.state_view(position, state)
            extended, extended_multi = extend_group_ids(
                prefix, has_multi, view, column.radix
            )
            self.nodes += 1
            self.context.cost.charge_cpu(vector_lanes(len(prefix)))
            self.descend(
                position + 1,
                extended,
                extended_multi,
                subset,
                kept + [(column.dictionary, column.radix)],
            )

    # ------------------------------------------------------------------
    # leaf: aggregate one cuboid from the group-id column
    # ------------------------------------------------------------------
    def _leaf(
        self,
        prefix: List[RowGroups],
        has_multi: bool,
        kept: List[KeptAxis],
    ) -> Cuboid:
        fn = self.fn
        cells, increments = fold_group_ids(
            fn, prefix, has_multi, self.encoded.measures
        )
        self.increments += increments
        self.total_cells += len(cells)
        self.context.cost.charge_cpu(vector_lanes(increments))
        self.context.cost.charge_cpu(len(cells))  # finalize, scalar

        finalize = fn.finalize
        # The sweep never emits null digits (radix == len(dictionary)),
        # so every decoded key is a full string tuple.
        decode = make_group_decoder(kept)
        return {
            cast(GroupKey, decode(gid)): finalize(state)
            for gid, state in cells.items()
        }
