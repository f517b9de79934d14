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
  mixed-radix multiply-add (``gid * radix + code``) — list
  comprehensions over a state view, no per-row branch on what a cell
  holds.  The column is long-form: two flat lists ``(rows, gids)``, one
  entry per (base row, group) pair in base-row order
  (:func:`~repro.core.columnar.extend_group_ids`);
- a row with no value under a kept state — the coverage gap of Sec. 2 —
  loses its entries at that edge, so it is in no cuboid below it
  (the ``key_combinations`` contract) and costs nothing below it
  either;
- a row with several distinct values gets one entry per value (the
  Sec. 3.3 cross product); the codes are distinct by construction, so a
  fact still counts once per group;
- while no row has been dropped or fanned out, ``rows`` is ``None``
  (entry ``k`` is row ``k``) and the dense single-valued path reads the
  views and the measure column directly;
- at a leaf, integer group ids index a counter dict (COUNT and SUM use
  C-speed fast paths); ids decode back to string group keys with the
  reversed mixed-radix divmod.

The trie walk (:func:`sweep_trie`) takes its leaf as an argument:
the algorithm's leaf aggregates a cuboid, :func:`census`'s only counts
the distinct group ids (the cell census of Sec. 3.6's space budgets).
A leaf that reads no measure — the census, a COUNT cube — needs only
``gids``, so the edges of the last axis skip building ``rows``.

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

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, cast

from repro import obs
from repro.core.algorithms.base import (
    CubeAlgorithm,
    ExecutionContext,
    encode,
)
from repro.core.bindings import FactTable, GroupKey
from repro.core.columnar import (
    VECTOR_LANES,
    ColumnarFactTable,
    KeptAxis,
    count_group_ids,
    extend_group_ids,
    fold_group_ids,
    make_group_decoder,
    vector_lanes,
)
from repro.core.groupby import Cuboid
from repro.core.lattice import LatticePoint

__all__ = ["ColumnarSweepAlgorithm", "VECTOR_LANES", "census", "sweep_trie"]

#: What the trie walk hands a leaf: the lattice point, its group-id
#: column ``(rows, gids)`` and the kept axes (for decoding ids back to
#: keys).
Leaf = Callable[
    [LatticePoint, Optional[Sequence[int]], List[int], List[KeptAxis]], None
]


def sweep_trie(
    encoded: ColumnarFactTable,
    points: Sequence[LatticePoint],
    leaf: Leaf,
    reads_measures: bool = True,
) -> int:
    """Walk the prefix trie of ``points`` over the encoded columns.

    One :func:`extend_group_ids` per trie edge, shared by every point
    below it; ``leaf`` is called once per distinct point with the
    finished group-id column.  A leaf that reads no measure passes
    ``reads_measures=False``: the edges of the last axis — most of the
    trie — then build only ``gids``, and the ``rows`` such a leaf is
    handed is not to be read.  Returns the number of edges extended
    (each one batched pass over the rows).
    """
    lattice = encoded.lattice
    last = lattice.axis_count - 1
    nodes = 0

    def descend(
        position: int,
        rows: Optional[Sequence[int]],
        gids: List[int],
        subset: List[LatticePoint],
        kept: List[KeptAxis],
    ) -> None:
        nonlocal nodes
        if position == lattice.axis_count:
            # All points in this bucket are the same tuple.
            leaf(subset[0], rows, gids, kept)
            return
        states = lattice.axis_states[position]
        buckets: Dict[int, List[LatticePoint]] = {}
        for point in subset:
            buckets.setdefault(point[position], []).append(point)
        for state in sorted(buckets):
            if states.is_dropped(state):
                # Dropped axis: the group-id column passes through
                # unchanged (LND keeps every fact, adds no key part).
                descend(position + 1, rows, gids, buckets[state], kept)
                continue
            column = encoded.columns[position]
            extended_rows, extended = extend_group_ids(
                rows,
                gids,
                encoded.state_view(position, state),
                column.radix,
                keep_rows=reads_measures or position < last,
            )
            nodes += 1
            descend(
                position + 1,
                extended_rows,
                extended,
                buckets[state],
                kept + [(column.dictionary, column.radix)],
            )

    with obs.span(
        "columnar.sweep",
        category="columnar",
        points=len(points),
        facts=encoded.n_rows,
    ):
        descend(0, None, [0] * encoded.n_rows, list(points), [])
    return nodes


def census(
    table: FactTable, points: Sequence[LatticePoint]
) -> Dict[LatticePoint, int]:
    """Cell count of the cuboid at each of ``points``: the sweep with a
    count-only leaf — no measure fold, no key decode, no cuboid held."""
    sizes: Dict[LatticePoint, int] = {}

    def leaf(
        point: LatticePoint,
        rows: Optional[Sequence[int]],
        gids: List[int],
        kept: List[KeptAxis],
    ) -> None:
        sizes[point] = count_group_ids(gids)

    sweep_trie(encode(table), points, leaf, reads_measures=False)
    return sizes


class ColumnarSweepAlgorithm(CubeAlgorithm):
    name = "COLUMNAR"
    encodings = ("columnar",)

    def _compute(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, Cuboid], int]:
        encoded = context.encode()
        n_rows = encoded.n_rows

        # One sequential scan of the encoded table.
        context.charge_encoded_scan(encoded.encoded_pages)
        context.cost.charge_cpu(vector_lanes(n_rows))

        fn = context.table.aggregate.fn
        sweep = _Sweep(context, encoded.measures, fn)
        nodes = sweep_trie(
            encoded, points, sweep.leaf, reads_measures=fn.name != "COUNT"
        )
        # Every trie edge is one batched pass over the rows.
        context.cost.charge_cpu(nodes * vector_lanes(n_rows))

        total_cells = sweep.total_cells
        passes = max(
            1, -(-total_cells // context.budget.capacity_entries)
        )
        context.bump("columnar_cells", total_cells)
        context.bump("columnar_increments", sweep.increments)
        context.bump("columnar_nodes", nodes)
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
        obs.count("x3_columnar_trie_nodes_total", nodes)
        obs.count("x3_columnar_increments_total", sweep.increments)
        obs.count("x3_columnar_passes_total", passes)
        context.budget.release_all()
        return sweep.cuboids, passes


class _Sweep:
    """One sweep's aggregating leaf and its tallies (fresh per run;
    thread-safe by isolation)."""

    def __init__(
        self,
        context: ExecutionContext,
        measures: Any,
        fn: Any,
    ) -> None:
        self.context = context
        self.measures = measures
        self.fn = fn
        self.cuboids: Dict[LatticePoint, Cuboid] = {}
        self.total_cells = 0
        self.increments = 0

    def leaf(
        self,
        point: LatticePoint,
        rows: Optional[Sequence[int]],
        gids: List[int],
        kept: List[KeptAxis],
    ) -> None:
        """Aggregate one cuboid from its group-id column."""
        fn = self.fn
        cells, increments = fold_group_ids(fn, rows, gids, self.measures)
        self.increments += increments
        self.total_cells += len(cells)
        self.context.cost.charge_cpu(vector_lanes(increments))
        self.context.cost.charge_cpu(len(cells))  # finalize, scalar

        finalize = fn.finalize
        # The sweep never emits null digits (radix == len(dictionary)),
        # so every decoded key is a full string tuple.
        decode = make_group_decoder(kept)
        self.cuboids[point] = {
            cast(GroupKey, decode(gid)): finalize(state)
            for gid, state in cells.items()
        }
