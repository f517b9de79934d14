"""The counter kernel: a single-pass multi-cuboid sweep over encoded columns.

The counter algorithm (Sec. 3.3) computes every requested cuboid from one
base scan by combinatorial incrementing.  This kernel does that over the
dictionary-encoded columns of :class:`~repro.core.columnar.ColumnarFactTable`
and shares work across cuboids:

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
  C-speed fast paths); the ids are re-ranked into the sorted axis
  dictionaries and packed, one kept axis at a time
  (:func:`~repro.core.packed.from_group_ids`: a list comprehension of
  mixed-radix digits per axis), with no group key built.

The trie walk (:func:`sweep_trie`) takes its leaf as an argument:
the algorithm's leaf aggregates a cuboid, :func:`census`'s only counts
the distinct group ids (the cell census of Sec. 3.6's space budgets).
A leaf that reads no measure — the census, a COUNT cube — needs only
``gids``, so the edges of the last axis skip building ``rows``.

Aggregation folds measures in base-row order — NAIVE's fold order — so
finalized floats are **bit-identical** to it, which is what the
differential battery asserts.

Two algorithms run this kernel and differ only in their price list
(``scan`` / ``leaf_ops`` / ``settle`` / ``rescan``).  COLUMNAR charges
what it does: one scan of the *encoded* pages (dictionary codes pack ~8x
denser than the row form), the encode itself at full CPU rate every run,
and column combines / counter updates at one op per :data:`VECTOR_LANES`
rows.  COUNTER (:mod:`~repro.core.algorithms.counter`) charges Sec.
3.3's row-form loop.  When the cells overflow the budget, either
degrades to multi-pass execution, one re-read of the base data per
extra pass.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.algorithms.base import (
    CubeAlgorithm,
    ExecutionContext,
    encode,
)
from repro.core.bindings import FactTable
from repro.core.columnar import (
    VECTOR_LANES,
    ColumnarFactTable,
    KeptAxis,
    count_group_ids,
    extend_group_ids,
    fold_group_ids,
    vector_lanes,
)
from repro.core.lattice import LatticePoint
from repro.core.packed import PackedCuboid, from_group_ids

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
    """The sweep at COLUMNAR's prices; a subclass swaps the price list."""

    name = "COLUMNAR"
    encodings = ("columnar",)

    def _compute(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, PackedCuboid], int]:
        encoded = self.scan(context)
        fn = context.table.aggregate.fn
        lattice = encoded.lattice
        cuboids: Dict[LatticePoint, PackedCuboid] = {}
        increments = cells = 0

        def leaf(
            point: LatticePoint,
            rows: Optional[Sequence[int]],
            gids: List[int],
            kept: List[KeptAxis],
        ) -> None:
            nonlocal increments, cells
            partials, added = fold_group_ids(fn, rows, gids, encoded.measures)
            increments += added
            cells += len(partials)
            context.cost.charge_cpu(self.leaf_ops(added, len(partials)))
            # The sweep never emits null digits (radix ==
            # len(dictionary)), so every key part is a dictionary value.
            ranked = [
                encoded.columns[position].wire_ranks
                for position in lattice.kept_axes(point)
            ]
            cuboids[point] = from_group_ids(
                tuple(axis for axis, _ in ranked),
                [ranks for _, ranks in ranked],
                partials.keys(),
                # A COUNT partial is its count, which the array stores
                # as the very double finalize would return.
                partials.values()
                if fn.name == "COUNT"
                else map(fn.finalize, partials.values()),
            )

        nodes = sweep_trie(
            encoded, points, leaf, reads_measures=fn.name != "COUNT"
        )
        capacity = context.budget.capacity_entries
        passes = max(1, -(-cells // capacity))
        self.settle(context, encoded, nodes, increments, cells, passes)
        context.budget.acquire(min(cells, capacity))
        for _ in range(passes - 1):
            self.rescan(context, encoded)
            context.charge_spill(capacity)
        context.budget.release_all()
        return cuboids, passes

    # The price list.
    def scan(self, context: ExecutionContext) -> ColumnarFactTable:
        """The first read of the base data: the encoded pages."""
        encoded = context.encode()
        context.charge_encoded_scan(encoded.encoded_pages)
        context.cost.charge_cpu(vector_lanes(encoded.n_rows))
        return encoded

    def leaf_ops(self, increments: int, cells: int) -> int:
        """One cuboid: batched counter updates, a scalar finalize."""
        return vector_lanes(increments) + cells

    def settle(
        self,
        context: ExecutionContext,
        encoded: ColumnarFactTable,
        nodes: int,
        increments: int,
        cells: int,
        passes: int,
    ) -> None:
        """The whole sweep: each trie edge is a batched pass."""
        n_rows = encoded.n_rows
        context.cost.charge_cpu(nodes * vector_lanes(n_rows))
        context.bump("columnar_cells", cells)
        context.bump("columnar_increments", increments)
        context.bump("columnar_nodes", nodes)
        context.bump("columnar_passes", passes)

    def rescan(
        self, context: ExecutionContext, encoded: ColumnarFactTable
    ) -> None:
        """The re-read each extra pass costs."""
        context.bump("columnar_scans")
        context.cost.charge_read(encoded.encoded_pages)
        context.cost.charge_cpu(vector_lanes(encoded.n_rows))
