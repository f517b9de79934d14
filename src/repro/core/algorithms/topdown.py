"""Top-down cube computation: TD, TDOPT, TDOPTALL, TDCUST (Sec. 3.5).

The family is XMLized from PartitionCube/MemoryCube [Ross & Srivastava]:
cuboids are produced by sorting and scanning, and coarser cuboids are —
when the summarizability properties allow — computed from finer *aggregate
rows* instead of the base data.

- ``TD`` (unoptimized, always correct): every cuboid is computed from the
  base fact table — a full scan plus an (external, when the table exceeds
  the memory budget) sort per lattice point, with identity tracking.  The
  exponential number of sorts is its meltdown mode.
- ``TDOPT`` (requires disjointness): cuboids with every axis kept are
  computed from base; every other cuboid is rolled up from the smallest
  already-computed finer cuboid by merging aggregate rows.  Coverage
  violations are absorbed by carrying "null value" groups (Sec. 3.5) in
  the intermediate cuboids, stripped at reporting time.  Non-disjoint
  facts are double-counted by the roll-up, so TDOPT is wrong when
  disjointness fails (Fig. 9).
- ``TDOPTALL`` (requires disjointness *and* total coverage): assumes full
  summarizability — only the all-rigid top cuboid touches the base;
  structurally-relaxed points are assumed identical to their rigid
  counterparts (relaxation adds nothing under total coverage of the rigid
  pattern) and everything else is a pure aggregate roll-up with no null
  bookkeeping.  Fastest of the family on dense cubes, and wrong when
  either property fails.
- ``TDCUST`` (Sec. 4.5, always correct): per lattice point, rolls up from
  a finer cuboid only when the property oracle proves the source cuboid
  disjoint; otherwise recomputes that point from base with the safe
  (identity-tracking) path.

Columnar execution (the default, ``ExecutionOptions(encoding="auto")``):
the family runs on the dictionary-encoded columns of
:class:`~repro.core.columnar.ColumnarFactTable`.  A from-base cuboid is
built by extending a mixed-radix **group-id column** one kept axis at a
time (:func:`~repro.core.columnar.extend_group_ids`, one modeled op per
:data:`~repro.core.columnar.VECTOR_LANES` rows) and folding measures in
base-row order, so TD's finalized floats are bit-identical to NAIVE;
the grouping is a counting sort over the bounded gid domain — charged
linearly, spilling its placement buffer past the memory budget instead
of paying the dict path's comparison sort.  The Sec. 3.5 "null
value" groups of TDOPT/TDCUST become a **null digit**: a kept axis with
no value contributes digit ``len(dictionary)`` with effective radix
``len(dictionary) + 1``, stripped at reporting exactly like
``strip_null_groups``.  A coarser-from-finer roll-up is group-id
remapping: decompose each source gid with reversed mixed-radix divmod,
keep the digits of the surviving axes, recombine — no string keys touched
(Sec. 3.5's sorted merge over aggregate rows, on integer ids).
``encoding="dict"`` pins the legacy :class:`FactRow` path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, cast

from repro import obs
from repro.core.aggregates import AggregateFunction
from repro.core.algorithms.base import CubeAlgorithm, ExecutionContext
from repro.core.bindings import GroupKey
from repro.core.columnar import (
    ColumnarFactTable,
    extend_group_ids,
    fold_group_ids,
    make_group_decoder,
    vector_lanes,
)
from repro.core.groupby import Cuboid, augmented_keys, strip_null_groups
from repro.core.lattice import CubeLattice, LatticePoint
from repro.timber.external_sort import charge_sort, sorted_with_cost

AugKey = Tuple[Optional[str], ...]
AugCuboid = Dict[AugKey, object]  # key -> aggregate partial state

#: gid -> aggregate partial state (a cuboid in encoded form).
GidCells = Dict[int, Any]
#: Per kept axis of an encoded cuboid: (axis position, dictionary,
#: radix).  ``radix == len(dictionary) + 1`` when the axis carries the
#: Sec. 3.5 null digit.
GidAxes = Tuple[Tuple[int, Tuple[str, ...], int], ...]


class TdAlgorithm(CubeAlgorithm):
    """TD: every cuboid from base, with identity tracking.  Always correct."""

    name = "TD"

    def _compute(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, Cuboid], int]:
        if context.use_columnar:
            return self._compute_columnar(context, points)
        table = context.table
        fn = table.aggregate.fn
        cuboids: Dict[LatticePoint, Cuboid] = {}
        for point in points:
            context.charge_base_scan()
            context.bump("td_base_sorts")
            placements: List[Tuple[Tuple[str, ...], float]] = []
            for row in table.rows:
                for key in table.key_combinations(row, point):
                    placements.append((key, row.measure))
                    # Identity tracking: the safe algorithm keeps fact ids
                    # alongside to guard against double counting.
                    context.cost.charge_cpu(2)
            placements = sorted_with_cost(
                placements,
                context.cost,
                budget=context.budget,
                key=lambda placement: placement[0],
            )
            cuboid: Cuboid = {}
            current_key: Optional[Tuple[str, ...]] = None
            state = fn.new()
            for key, measure in placements:
                if key != current_key:
                    if current_key is not None:
                        cuboid[current_key] = fn.finalize(state)
                    current_key = key
                    state = fn.new()
                state = fn.add(state, measure)
                context.cost.charge_cpu()
            if current_key is not None:
                cuboid[current_key] = fn.finalize(state)
            cuboids[point] = cuboid
        return cuboids, 1

    def _compute_columnar(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, Cuboid], int]:
        """Every cuboid from the encoded base: one gid build per point."""
        fn = context.table.aggregate.fn
        encoded = _encode_table(context)
        cuboids: Dict[LatticePoint, Cuboid] = {}
        with obs.span(
            "td.build",
            category="columnar",
            facts=encoded.n_rows,
            points=len(points),
        ):
            for point in points:
                cells, axes = _columnar_build(
                    context, encoded, point, fn,
                    augmented=False, identity_ops=1,
                )
                cuboids[point] = _decode_cells(
                    context, cells, axes, fn, strip=False
                )
        return cuboids, 1


class TdOptAlgorithm(CubeAlgorithm):
    """TDOPT: roll-up with null groups; needs disjointness."""

    name = "TDOPT"

    def _compute(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, Cuboid], int]:
        if context.use_columnar:
            return self._compute_columnar(context, points)
        table = context.table
        lattice = table.lattice
        fn = table.aggregate.fn
        wanted = set(points)
        computed: Dict[LatticePoint, AugCuboid] = {}
        cuboids: Dict[LatticePoint, Cuboid] = {}

        for point in lattice.topo_finer_first():
            kept = lattice.kept_axes(point)
            if len(kept) == lattice.axis_count:
                aug = self._from_base(context, point)
            else:
                source = _pick_source(lattice, computed, point)
                assert source is not None, "all-kept points precede drops"
                aug = _rollup(context, lattice, computed[source], source, point, fn)
            computed[point] = aug
            if point in wanted:
                cuboids[point] = strip_null_groups(
                    {key: fn.finalize(state) for key, state in aug.items()}
                )
                context.cost.charge_cpu(len(aug))
        return {point: cuboids[point] for point in points}, 1

    def _compute_columnar(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, Cuboid], int]:
        """All-kept points from base (null-digit augmented), the rest
        rolled up from the smallest finer encoded cuboid."""
        lattice = context.lattice
        fn = context.table.aggregate.fn
        wanted = set(points)
        encoded = _encode_table(context)
        computed: Dict[LatticePoint, Tuple[GidCells, GidAxes]] = {}
        cuboids: Dict[LatticePoint, Cuboid] = {}
        for point in lattice.topo_finer_first():
            kept = lattice.kept_axes(point)
            if len(kept) == lattice.axis_count:
                built = _columnar_build(
                    context, encoded, point, fn,
                    augmented=True, identity_ops=0,
                )
            else:
                source = _pick_source(
                    lattice, _encoded_sizes(computed), point
                )
                assert source is not None, "all-kept points precede drops"
                cells, axes = computed[source]
                built = _rollup_columnar(
                    context, cells, axes, point, lattice, fn
                )
            computed[point] = built
            if point in wanted:
                cuboids[point] = _decode_cells(
                    context, built[0], built[1], fn, strip=True
                )
        return {point: cuboids[point] for point in points}, 1

    def _from_base(
        self, context: ExecutionContext, point: LatticePoint
    ) -> AugCuboid:
        table = context.table
        fn = table.aggregate.fn
        context.charge_base_scan()
        placements: List[Tuple[AugKey, float]] = []
        for row in table.rows:
            for key in augmented_keys(table, row, point):
                placements.append((key, row.measure))
                context.cost.charge_cpu()
        placements = sorted_with_cost(
            placements,
            context.cost,
            budget=context.budget,
            key=lambda placement: _sortable(placement[0]),
        )
        aug: AugCuboid = {}
        for key, measure in placements:
            if key not in aug:
                aug[key] = fn.new()
            aug[key] = fn.add(aug[key], measure)
            context.cost.charge_cpu()
        return aug


class TdOptAllAlgorithm(CubeAlgorithm):
    """TDOPTALL: pure roll-up; needs disjointness *and* coverage."""

    name = "TDOPTALL"

    def _compute(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, Cuboid], int]:
        if context.use_columnar:
            return self._compute_columnar(context, points)
        table = context.table
        lattice = table.lattice
        fn = table.aggregate.fn
        computed: Dict[LatticePoint, AugCuboid] = {}
        top = lattice.top

        # One base pass for the all-rigid top cuboid (no null groups:
        # total coverage is assumed, facts lacking an axis are dropped —
        # the source of TDOPTALL's undercounting when coverage fails).
        context.charge_base_scan()
        placements: List[Tuple[Tuple[str, ...], float]] = []
        for row in table.rows:
            for key in table.key_combinations(row, top):
                placements.append((key, row.measure))
                context.cost.charge_cpu()
        placements = sorted_with_cost(
            placements,
            context.cost,
            budget=context.budget,
            key=lambda placement: placement[0],
        )
        top_aug: AugCuboid = {}
        for key, measure in placements:
            if key not in top_aug:
                top_aug[key] = fn.new()
            top_aug[key] = fn.add(top_aug[key], measure)
            context.cost.charge_cpu()
        computed[top] = top_aug

        for point in lattice.topo_finer_first():
            if point in computed:
                continue
            rigid_twin = _rigid_twin(lattice, point)
            if rigid_twin != point:
                # Full summarizability assumed: a structurally relaxed
                # point is taken to equal its rigid twin.
                source_cuboid = computed[rigid_twin]
                computed[point] = dict(source_cuboid)
                context.cost.charge_cpu(len(source_cuboid))
                continue
            source = _pick_source(lattice, computed, point)
            assert source is not None
            computed[point] = _rollup(
                context, lattice, computed[source], source, point, fn
            )

        cuboids: Dict[LatticePoint, Cuboid] = {}
        for point in points:
            aug = computed[point]
            cuboids[point] = {
                key: fn.finalize(state) for key, state in aug.items()
            }
            context.cost.charge_cpu(len(aug))
        return cuboids, 1

    def _compute_columnar(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, Cuboid], int]:
        """One base build (all-rigid top, no null digits), rigid twins
        copied cell-for-cell, everything else pure gid roll-up."""
        lattice = context.lattice
        fn = context.table.aggregate.fn
        encoded = _encode_table(context)
        computed: Dict[LatticePoint, Tuple[GidCells, GidAxes]] = {}
        top = lattice.top
        computed[top] = _columnar_build(
            context, encoded, top, fn, augmented=False, identity_ops=0
        )
        for point in lattice.topo_finer_first():
            if point in computed:
                continue
            rigid_twin = _rigid_twin(lattice, point)
            if rigid_twin != point:
                # Dictionaries and radices are per-axis and state
                # independent, so the twin's encoded cells transfer as-is.
                source_cells, source_axes = computed[rigid_twin]
                computed[point] = (dict(source_cells), source_axes)
                context.cost.charge_cpu(len(source_cells))
                continue
            source = _pick_source(lattice, _encoded_sizes(computed), point)
            assert source is not None
            cells, axes = computed[source]
            computed[point] = _rollup_columnar(
                context, cells, axes, point, lattice, fn
            )
        cuboids: Dict[LatticePoint, Cuboid] = {}
        for point in points:
            cells, axes = computed[point]
            cuboids[point] = _decode_cells(
                context, cells, axes, fn, strip=False
            )
        return cuboids, 1


class TdCustAlgorithm(CubeAlgorithm):
    """TDCUST: roll-up only where the oracle proves it safe.  Correct."""

    name = "TDCUST"

    def _compute(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, Cuboid], int]:
        if context.use_columnar:
            return self._compute_columnar(context, points)
        table = context.table
        lattice = table.lattice
        fn = table.aggregate.fn
        oracle = context.oracle
        computed: Dict[LatticePoint, AugCuboid] = {}
        cuboids: Dict[LatticePoint, Cuboid] = {}
        wanted = set(points)

        for point in lattice.topo_finer_first():
            source = _pick_source(
                lattice,
                {
                    candidate: aug
                    for candidate, aug in computed.items()
                    if oracle.disjoint(candidate)
                },
                point,
            )
            if source is not None:
                aug = _rollup(
                    context, lattice, computed[source], source, point, fn
                )
            else:
                aug = self._safe_from_base(context, point)
            computed[point] = aug
            if point in wanted:
                cuboids[point] = strip_null_groups(
                    {key: fn.finalize(state) for key, state in aug.items()}
                )
                context.cost.charge_cpu(len(aug))
        return {point: cuboids[point] for point in points}, 1

    def _compute_columnar(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, Cuboid], int]:
        """Roll up from oracle-proven-disjoint sources; otherwise rebuild
        the point from base with the safe identity-tracking build."""
        lattice = context.lattice
        fn = context.table.aggregate.fn
        oracle = context.oracle
        encoded = _encode_table(context)
        computed: Dict[LatticePoint, Tuple[GidCells, GidAxes]] = {}
        cuboids: Dict[LatticePoint, Cuboid] = {}
        wanted = set(points)
        for point in lattice.topo_finer_first():
            source = _pick_source(
                lattice,
                _encoded_sizes(
                    {
                        candidate: built
                        for candidate, built in computed.items()
                        if oracle.disjoint(candidate)
                    }
                ),
                point,
            )
            if source is not None:
                cells, axes = computed[source]
                built = _rollup_columnar(
                    context, cells, axes, point, lattice, fn
                )
            else:
                built = _columnar_build(
                    context, encoded, point, fn,
                    augmented=True, identity_ops=1,
                )
            computed[point] = built
            if point in wanted:
                cuboids[point] = _decode_cells(
                    context, built[0], built[1], fn, strip=True
                )
        return {point: cuboids[point] for point in points}, 1

    def _safe_from_base(
        self, context: ExecutionContext, point: LatticePoint
    ) -> AugCuboid:
        table = context.table
        fn = table.aggregate.fn
        context.charge_base_scan()
        placements: List[Tuple[AugKey, float]] = []
        for row in table.rows:
            for key in augmented_keys(table, row, point):
                placements.append((key, row.measure))
                # Safe path keeps identities, like TD.
                context.cost.charge_cpu(2)
        placements = sorted_with_cost(
            placements,
            context.cost,
            budget=context.budget,
            key=lambda placement: _sortable(placement[0]),
        )
        aug: AugCuboid = {}
        for key, measure in placements:
            if key not in aug:
                aug[key] = fn.new()
            aug[key] = fn.add(aug[key], measure)
            context.cost.charge_cpu()
        return aug


# ----------------------------------------------------------------------
# columnar helpers (shared by the whole family)
# ----------------------------------------------------------------------

def _encode_table(context: ExecutionContext) -> ColumnarFactTable:
    """Encode once per run, charging the encode at full CPU rate (the
    modeled cost never depends on whether the memoization was warm)."""
    table = context.table
    with obs.span(
        "td.encode", category="columnar", facts=len(table.rows)
    ):
        encoded = table.columnar()
    context.cost.charge_cpu(encoded.encoded_entries)
    return encoded


def _columnar_build(
    context: ExecutionContext,
    encoded: ColumnarFactTable,
    point: LatticePoint,
    fn: AggregateFunction,
    augmented: bool,
    identity_ops: int,
) -> Tuple[GidCells, GidAxes]:
    """One from-base cuboid build over the encoded columns.

    ``augmented`` selects the Sec. 3.5 null-digit behaviour (a kept axis
    with no value binds digit ``len(dictionary)``); otherwise gap rows
    drop out, the ``key_combinations`` contract.  ``identity_ops``
    models the safe path's per-placement identity tracking (TD, TDCUST's
    from-base) — zero for the roll-up variants that assume disjointness.
    """
    lattice = context.lattice
    n = encoded.n_rows
    context.charge_encoded_scan(encoded.encoded_pages)
    context.bump("td_base_sorts")
    rows: Optional[Sequence[int]] = None
    gids = [0] * n
    axes: List[Tuple[int, Tuple[str, ...], int]] = []
    for position, states in enumerate(lattice.axis_states):
        state = point[position]
        if states.is_dropped(state):
            continue
        column = encoded.columns[position]
        view = encoded.state_view(position, state)
        if augmented:
            radix = column.radix + 1
            missing: Optional[int] = column.radix
        else:
            radix = column.radix
            missing = None
        rows, gids = extend_group_ids(
            rows, gids, view, radix, missing_code=missing
        )
        context.cost.charge_cpu(vector_lanes(n))
        axes.append((position, column.dictionary, radix))
    cells, increments = fold_group_ids(fn, rows, gids, encoded.measures)
    # The dict path groups by comparison-sorting the placement column;
    # this kernel buckets bounded integer gids — a counting sort over
    # the code domain, charged linearly (one scalar placement op per
    # increment) and spilled when the placement buffer outgrows the
    # memory budget.
    context.cost.charge_cpu(increments)
    if increments > context.budget.capacity_entries:
        context.charge_spill(increments)
    if obs.enabled():
        obs.count("x3_sorts_total", kind="counting")
        obs.count("x3_sorted_items_total", increments, kind="counting")
    if identity_ops:
        context.cost.charge_cpu(identity_ops * increments)
    context.cost.charge_cpu(vector_lanes(increments))
    return cells, tuple(axes)


def _decode_cells(
    context: ExecutionContext,
    cells: GidCells,
    axes: GidAxes,
    fn: AggregateFunction,
    strip: bool,
) -> Cuboid:
    """Finalize an encoded cuboid into reporting form.

    ``strip`` drops groups whose decoded key contains a null digit —
    :func:`~repro.core.groupby.strip_null_groups` on integer ids.
    """
    decode = make_group_decoder(
        [(dictionary, radix) for _, dictionary, radix in axes]
    )
    out: Cuboid = {}
    for gid, state in cells.items():
        key = decode(gid)
        if strip and any(part is None for part in key):
            continue
        out[cast(GroupKey, key)] = fn.finalize(state)
    context.cost.charge_cpu(len(cells))
    return out


def _kept_positions(
    lattice: CubeLattice, point: LatticePoint
) -> List[int]:
    return [
        position
        for position, states in enumerate(lattice.axis_states)
        if not states.is_dropped(point[position])
    ]


def _rollup_columnar(
    context: ExecutionContext,
    source_cells: GidCells,
    source_axes: GidAxes,
    point: LatticePoint,
    lattice: CubeLattice,
    fn: AggregateFunction,
) -> Tuple[GidCells, GidAxes]:
    """Merge a finer encoded cuboid into a coarser one by gid remapping.

    Each source gid is decomposed with reversed mixed-radix divmod; the
    digits of the axes the destination keeps are recombined into the new
    gid (null digits ride along untouched).  Source gids are visited in
    sorted order — the integer mirror of the dict path's sorted merge —
    so the merge order is deterministic.
    """
    context.bump("td_rollups")
    destination = set(_kept_positions(lattice, point))
    keep = [
        index
        for index, (position, _, _) in enumerate(source_axes)
        if position in destination
    ]
    radices = [radix for _, _, radix in source_axes]
    gids = sorted(source_cells)
    charge_sort(len(gids), context.cost, context.budget)
    out: GidCells = {}
    merge = fn.merge
    for gid in gids:
        remaining = gid
        digits: List[int] = []
        for radix in reversed(radices):
            remaining, digit = divmod(remaining, radix)
            digits.append(digit)
        digits.reverse()
        new_gid = 0
        for index in keep:
            new_gid = new_gid * radices[index] + digits[index]
        state = source_cells[gid]
        if new_gid in out:
            out[new_gid] = merge(out[new_gid], state)
        else:
            out[new_gid] = state
        context.cost.charge_cpu()
    return out, tuple(source_axes[index] for index in keep)


def _encoded_sizes(
    computed: Dict[LatticePoint, Tuple[GidCells, GidAxes]]
) -> Dict[LatticePoint, AugCuboid]:
    """Adapt encoded cuboids for :func:`_pick_source` (which only needs
    membership and ``len``)."""
    return cast(
        Dict[LatticePoint, AugCuboid],
        {point: cells for point, (cells, _) in computed.items()},
    )


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def _sortable(key: AugKey) -> Tuple[Tuple[int, str], ...]:
    """Total order over keys containing None."""
    return tuple((0, "") if part is None else (1, part) for part in key)


def _rigid_twin(
    lattice: CubeLattice, point: LatticePoint
) -> LatticePoint:
    """The point with every kept axis forced to the rigid state."""
    twin: List[int] = []
    for states, index in zip(lattice.axis_states, point):
        if states.is_dropped(index):
            twin.append(index)
        else:
            twin.append(states.rigid_index)
    return tuple(twin)


def _pick_source(
    lattice: CubeLattice,
    computed: Dict[LatticePoint, AugCuboid],
    point: LatticePoint,
) -> Optional[LatticePoint]:
    """The smallest computed finer cuboid that derives ``point`` by
    dropping axes (kept axes must agree exactly on their states)."""
    best: Optional[LatticePoint] = None
    best_size = -1
    for candidate, aug in computed.items():
        if candidate == point:
            continue
        ok = True
        for position, states in enumerate(lattice.axis_states):
            if point[position] == states.dropped_index:
                continue
            if candidate[position] != point[position]:
                ok = False
                break
        if not ok:
            continue
        # The candidate must actually be finer: every axis dropped in the
        # candidate must be dropped in the point too.
        for position, states in enumerate(lattice.axis_states):
            if candidate[position] == states.dropped_index and point[
                position
            ] != states.dropped_index:
                ok = False
                break
        if ok and (best is None or len(aug) < best_size):
            best = candidate
            best_size = len(aug)
    return best


def _rollup(
    context: ExecutionContext,
    lattice: CubeLattice,
    source_aug: AugCuboid,
    source: LatticePoint,
    point: LatticePoint,
    fn: AggregateFunction,
) -> AugCuboid:
    """Merge a finer cuboid's aggregate rows into a coarser cuboid."""
    context.bump("td_rollups")
    src_kept = lattice.kept_axes(source)
    dst_kept = set(lattice.kept_axes(point))
    keep_positions = [
        index for index, axis in enumerate(src_kept) if axis in dst_kept
    ]
    rows = list(source_aug.items())
    rows = sorted_with_cost(
        rows,
        context.cost,
        budget=context.budget,
        key=lambda item: _sortable(item[0]),
    )
    out: AugCuboid = {}
    for key, state in rows:
        new_key = tuple(key[index] for index in keep_positions)
        if new_key in out:
            out[new_key] = fn.merge(out[new_key], state)
        else:
            out[new_key] = state
        context.cost.charge_cpu()
    return out
