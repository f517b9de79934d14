"""Top-down cube computation (Sec. 3.5): one walk, two kernels, four rules.

The family is XMLized from PartitionCube/MemoryCube [Ross & Srivastava]:
a cuboid is produced by sorting and scanning the base data or — where the
summarizability properties allow — by merging the *aggregate rows* of an
already computed finer cuboid.  That is one procedure,
:meth:`TopDownWalk._walk`: visit the lattice finer-first and ask the
variant's **source rule**, per point, "base, copy of the rigid twin, or
roll-up from which computed finer cuboid?".  A variant is that rule and
three constants:

========  =====================================  =========  ========  ========
variant   source rule                            augmented  identity  rolls up
                                                            ops
========  =====================================  =========  ========  ========
TD        always base; wanted points only        no         1         no
TDOPT     the smallest computed finer cuboid,    yes        0         yes
          else base (= every axis is kept)
TDOPTALL  a copy of the rigid twin for a         no         0         yes
          relaxed point, else as TDOPT (base
          = the all-rigid top only)
TDCUST    as TDOPT, among the cuboids the        yes        1         yes
          oracle proves disjoint
========  =====================================  =========  ========  ========

*Augmented*: a kept axis with no value binds a Sec. 3.5 "null value"
instead of excluding the fact, so coverage violations survive the
roll-ups; null groups are stripped at reporting.  TDOPTALL assumes total
coverage instead, and under-counts when it fails.  *Identity ops*: per
placement, a safe from-base build keeps fact identities to guard against
double counting; a roll-up cannot, which is why TDOPT and TDOPTALL
(``requires``) are wrong on non-disjoint data (Fig. 9) and TDCUST (Sec.
4.5) asks the oracle per lattice node.  *Rolls up*: every point is built
whatever ``points=`` asks for, and reporting is a charged pass over the
kept cuboid; TD's exponential number of base sorts — each scanned
straight into reporting form — is its meltdown mode.

The walk runs on one of two **kernels** (``ExecutionContext.use_columnar``
chooses) of three primitives — build-from-base, roll-up, report — that give
the same cuboids, the wrong ones included, each under its own modeled charges:

- :class:`_ColumnarKernel` (the default): a cuboid is ``{group id:
  partial state}`` over the dictionary-encoded columns of
  :class:`~repro.core.columnar.ColumnarFactTable`.  A build extends a
  mixed-radix **group-id column** one kept axis at a time
  (:func:`~repro.core.columnar.extend_group_ids`, one modeled op per
  :data:`~repro.core.columnar.VECTOR_LANES` rows) and folds measures in
  base-row order, so TD's finalized floats are bit-identical to NAIVE;
  the grouping is a counting sort over the bounded gid domain — charged
  linearly, spilling its placement buffer past the memory budget.  The
  null value is a **null digit**, ``len(dictionary)`` under radix
  ``len(dictionary) + 1``; a roll-up remaps group ids (reversed
  mixed-radix divmod, keep the surviving axes' digits, recombine).
- :class:`_DictKernel` (``encoding="dict"``): the legacy
  :class:`FactRow` path — ``{key tuple: partial state}``, a build is a
  comparison sort (external past the memory budget) of the placements, a
  roll-up a sorted merge of aggregate rows.  The ``[dict]`` duel series
  and the ``TD-dict`` ledger layer time it; it is the one object ROADMAP
  item 4(iii) deletes.

Both kernels report packed cuboids
(:class:`~repro.core.packed.PackedCuboid`).  The columnar one packs
straight from its group ids (:func:`~repro.core.packed.from_group_ids`),
dropping every cell with a null digit, and decodes no key tuple; the
dict one packs the ``strip_null_groups`` result.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Protocol,
    Sequence, Sized, Tuple, TypeVar,
)

from repro.core.aggregates import AggregateFunction
from repro.core.algorithms.base import CubeAlgorithm, ExecutionContext
from repro.core.bindings import FactRow, FactTable, GroupKey
from repro.core.columnar import (
    ColumnarFactTable,
    extend_group_ids,
    fold_group_ids,
    vector_lanes,
)
from repro.core.groupby import augmented_keys, strip_null_groups
from repro.core.lattice import CubeLattice, LatticePoint
from repro.core.packed import PackedCuboid, from_group_ids, pack

AugCuboid = Dict[GroupKey, object]  # (null-augmented) key -> partial state

#: gid -> aggregate partial state (a cuboid in encoded form).
GidCells = Dict[int, Any]
#: Per kept axis of an encoded cuboid: (axis position, dictionary,
#: radix).  ``radix == len(dictionary) + 1`` when the axis carries the
#: Sec. 3.5 null digit.
GidAxes = Tuple[Tuple[int, Tuple[str, ...], int], ...]

#: A kernel's computed cuboid; the source rules read only its ``len``.
Built = TypeVar("Built", bound=Sized)
Computed = Mapping[LatticePoint, Sized]


class Origin(NamedTuple):
    """Where the walk takes one cuboid from."""

    kind: str  # "base" | "twin" | "rollup"
    source: Optional[LatticePoint] = None


BASE = Origin("base")


# ----------------------------------------------------------------------
# the walk and its four rules
# ----------------------------------------------------------------------

class TopDownWalk(CubeAlgorithm):
    """The walk.  A variant declares its source rule and three constants."""

    encodings = ("columnar", "dict")
    #: Null-augmented keys (Sec. 3.5), stripped at reporting.
    augmented: bool
    #: Identity-tracking ops per placement of a from-base build.
    identity_ops: int
    #: Coarser cuboids come from finer ones: every point is built whether
    #: asked for or not (``points=`` only selects what is reported).
    rolls_up = True

    def source(
        self, context: ExecutionContext, computed: Computed, point: LatticePoint
    ) -> Origin:
        """The source rule; ``computed`` holds the cuboids built so far,
        finer points first.  By default the smallest finer one, else base:
        nothing is finer than a point that keeps every axis, so those —
        and only those — come from base."""
        return _finer_else_base(context.lattice, computed, point)

    def _compute(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, PackedCuboid], int]:
        if context.use_columnar:
            return self._walk(context, points, _ColumnarKernel(context, self))
        return self._walk(context, points, _DictKernel(context, self))

    def _walk(
        self,
        context: ExecutionContext,
        points: List[LatticePoint],
        kernel: "_Kernel[Built]",
    ) -> Tuple[Dict[LatticePoint, PackedCuboid], int]:
        wanted = set(points)
        computed: Dict[LatticePoint, Built] = {}
        cuboids: Dict[LatticePoint, PackedCuboid] = {}
        for point in context.lattice.topo_finer_first():
            if not self.rolls_up and point not in wanted:
                continue
            origin = self.source(context, computed, point)
            if origin.source is None:
                built = kernel.from_base(point)
            elif origin.kind == "twin":
                # Full summarizability assumed: a structurally relaxed
                # point is taken to equal its rigid twin.  Built cuboids
                # are never mutated, so the copy is only its charge.
                built = computed[origin.source]
                context.cost.charge_cpu(len(built))
            else:
                context.bump("td_rollups")
                built = kernel.rollup(
                    origin.source, computed[origin.source], point
                )
            if self.rolls_up:
                computed[point] = built
            if point in wanted:
                cuboids[point] = kernel.report(built)
        return {point: cuboids[point] for point in points}, 1


class TdAlgorithm(TopDownWalk):
    """TD: every cuboid from base, with identity tracking.  Always correct."""

    name = "TD"
    augmented = False
    identity_ops = 1
    rolls_up = False

    def source(
        self, context: ExecutionContext, computed: Computed, point: LatticePoint
    ) -> Origin:
        return BASE


class TdOptAlgorithm(TopDownWalk):
    """TDOPT: roll-up with null groups; needs disjointness."""

    name = "TDOPT"
    requires = ("disjointness",)
    augmented = True
    identity_ops = 0
    # source: the walk's default rule.


class TdOptAllAlgorithm(TopDownWalk):
    """TDOPTALL: pure roll-up; needs disjointness *and* coverage."""

    name = "TDOPTALL"
    requires = ("disjointness", "coverage")
    augmented = False
    identity_ops = 0

    def source(
        self, context: ExecutionContext, computed: Computed, point: LatticePoint
    ) -> Origin:
        twin = _rigid_twin(context.lattice, point)
        if twin != point:
            return Origin("twin", twin)
        # Only the all-rigid top has no finer rigid cuboid: one base build.
        return _finer_else_base(context.lattice, computed, point)


class TdCustAlgorithm(TopDownWalk):
    """TDCUST: roll-up only where the oracle proves it safe.  Correct."""

    name = "TDCUST"
    augmented = True
    identity_ops = 1

    def source(
        self, context: ExecutionContext, computed: Computed, point: LatticePoint
    ) -> Origin:
        proven = {
            candidate: built
            for candidate, built in computed.items()
            if context.oracle.disjoint(candidate)
        }
        return _finer_else_base(context.lattice, proven, point)


def _finer_else_base(
    lattice: CubeLattice, computed: Computed, point: LatticePoint
) -> Origin:
    source = _pick_source(lattice, computed, point)
    return BASE if source is None else Origin("rollup", source)


def _rigid_twin(
    lattice: CubeLattice, point: LatticePoint
) -> LatticePoint:
    """The point with every kept axis forced to the rigid state."""
    return tuple(
        index if states.is_dropped(index) else states.rigid_index
        for states, index in zip(lattice.axis_states, point)
    )


def _pick_source(
    lattice: CubeLattice, computed: Computed, point: LatticePoint
) -> Optional[LatticePoint]:
    """The smallest computed finer cuboid that derives ``point`` by
    dropping axes: it agrees exactly on every axis the point keeps (so it
    drops none of them).  The first built wins a tie."""
    kept = lattice.kept_axes(point)
    finer = [
        candidate
        for candidate in computed
        if candidate != point
        and all(candidate[position] == point[position] for position in kept)
    ]
    return min(finer, key=lambda candidate: len(computed[candidate]), default=None)


# ----------------------------------------------------------------------
# the two kernels
# ----------------------------------------------------------------------

class _Kernel(Protocol[Built]):
    """What the walk needs of a cuboid representation."""

    def from_base(self, point: LatticePoint) -> Built: ...

    def rollup(
        self, source: LatticePoint, built: Built, point: LatticePoint
    ) -> Built: ...

    def report(self, built: Built) -> PackedCuboid: ...


class _DictKernel:
    """The :class:`FactRow` kernel (``encoding="dict"``)."""

    def __init__(self, context: ExecutionContext, variant: TopDownWalk):
        self.context = context
        self.variant = variant
        self.fn = context.table.aggregate.fn

    def from_base(self, point: LatticePoint) -> AugCuboid:
        """Sort the placements of every fact, then scan the runs."""
        context, variant, fn = self.context, self.variant, self.fn
        table = context.table
        context.charge_base_scan()
        if not variant.rolls_up:
            # This kernel counts only the sorts of the variant that has
            # nothing but sorts (the columnar one counts every build).
            context.bump("td_base_sorts")
        keys_of: Callable[
            [FactTable, FactRow, LatticePoint], Sequence[GroupKey]
        ] = augmented_keys if variant.augmented else FactTable.key_combinations
        placements = [
            (key, row.measure)
            for row in table.rows
            for key in keys_of(table, row, point)
        ]
        context.cost.charge_cpu((1 + variant.identity_ops) * len(placements))
        placements = context.sort(
            placements, key=_null_first if variant.augmented else itemgetter(0)
        )
        aug: AugCuboid = {}
        for key, measure in placements:
            aug[key] = fn.add(aug[key] if key in aug else fn.new(), measure)
        context.cost.charge_cpu(len(placements))
        return aug

    def rollup(
        self, source: LatticePoint, built: AugCuboid, point: LatticePoint
    ) -> AugCuboid:
        """Merge a finer cuboid's aggregate rows into a coarser cuboid."""
        context, merge = self.context, self.fn.merge
        kept = set(context.lattice.kept_axes(point))
        keep = [
            index
            for index, axis in enumerate(context.lattice.kept_axes(source))
            if axis in kept
        ]
        rows = context.sort(list(built.items()), key=_null_first)
        out: AugCuboid = {}
        for key, state in rows:
            new_key = tuple(key[index] for index in keep)
            out[new_key] = merge(out[new_key], state) if new_key in out else state
        context.cost.charge_cpu(len(rows))
        return out

    def report(self, built: AugCuboid) -> PackedCuboid:
        finalize = self.fn.finalize
        cuboid = {key: finalize(state) for key, state in built.items()}
        if self.variant.rolls_up:
            # Without roll-ups the build's scan of the sorted runs already
            # finalized; with them reporting is a pass of its own.
            self.context.cost.charge_cpu(len(built))
        return pack(strip_null_groups(cuboid) if self.variant.augmented else cuboid)


def _sortable(key: GroupKey) -> Tuple[Tuple[int, str], ...]:
    """Total order over keys containing None."""
    return tuple((0, "") if part is None else (1, part) for part in key)


def _null_first(item: Tuple[GroupKey, object]) -> Tuple[Tuple[int, str], ...]:
    return _sortable(item[0])


@dataclass(frozen=True)
class _Encoded:
    """An encoded cuboid, sized by its cells."""

    cells: GidCells
    axes: GidAxes

    def __len__(self) -> int:
        return len(self.cells)


class _ColumnarKernel:
    """The group-id kernel over the encoded columns (the default)."""

    def __init__(self, context: ExecutionContext, variant: TopDownWalk):
        self.context = context
        self.variant = variant
        self.fn = context.table.aggregate.fn
        self.encoded = context.encode()

    def from_base(self, point: LatticePoint) -> _Encoded:
        return _Encoded(
            *_columnar_build(
                self.context, self.encoded, point, self.fn,
                augmented=self.variant.augmented,
                identity_ops=self.variant.identity_ops,
            )
        )

    def rollup(
        self, source: LatticePoint, built: _Encoded, point: LatticePoint
    ) -> _Encoded:
        return _Encoded(
            *_rollup_columnar(
                self.context, built.cells, built.axes, point,
                self.context.lattice, self.fn,
            )
        )

    def report(self, built: _Encoded) -> PackedCuboid:
        """Finalize and pack straight from the group ids; a group with a
        null digit is dropped, as ``strip_null_groups`` does.  No key
        tuple is decoded."""
        axes: List[Tuple[str, ...]] = []
        ranks: List[Tuple[Optional[int], ...]] = []
        for position, _, radix in built.axes:
            ordered, rank = self.encoded.columns[position].wire_ranks
            axes.append(ordered)
            # Past the dictionary, a digit is the null digit: dropped.
            ranks.append(rank + (None,) * (radix - len(rank)))
        out = from_group_ids(
            tuple(axes),
            ranks,
            built.cells.keys(),
            map(self.fn.finalize, built.cells.values()),
        )
        self.context.cost.charge_cpu(len(built))
        return out


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
    n = encoded.n_rows
    context.charge_encoded_scan(encoded.encoded_pages)
    context.bump("td_base_sorts")
    rows: Optional[Sequence[int]] = None
    gids = [0] * n
    axes: List[Tuple[int, Tuple[str, ...], int]] = []
    for position in context.lattice.kept_axes(point):
        column = encoded.columns[position]
        view = encoded.state_view(position, point[position])
        radix = column.radix + 1 if augmented else column.radix
        rows, gids = extend_group_ids(
            rows, gids, view, radix,
            missing_code=column.radix if augmented else None,
        )
        context.cost.charge_cpu(vector_lanes(n))
        axes.append((position, column.dictionary, radix))
    cells, increments = fold_group_ids(fn, rows, gids, encoded.measures)
    # The dict kernel groups by comparison-sorting the placement column;
    # this kernel buckets bounded integer gids — a counting sort over
    # the code domain, charged linearly (one scalar placement op per
    # increment) and spilled when the placement buffer outgrows the
    # memory budget.
    context.cost.charge_cpu(increments)
    if increments > context.budget.capacity_entries:
        context.charge_spill(increments)
    context.count_sort("counting", increments)
    context.cost.charge_cpu(identity_ops * increments)
    context.cost.charge_cpu(vector_lanes(increments))
    return cells, tuple(axes)


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
    sorted order — the integer mirror of the dict kernel's sorted merge —
    so the merge order is deterministic.
    """
    destination = set(lattice.kept_axes(point))
    keep = [
        index
        for index, (position, _, _) in enumerate(source_axes)
        if position in destination
    ]
    radices = [radix for _, _, radix in source_axes]
    gids = sorted(source_cells)
    context.charge_sort(len(gids))
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
        out[new_gid] = merge(out[new_gid], state) if new_gid in out else state
    context.cost.charge_cpu(len(gids))
    return out, tuple(source_axes[index] for index in keep)
