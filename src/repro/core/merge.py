"""The shared merge kernel: lossless combination of partial cube work.

Two distinct merge shapes show up in this codebase, and both live here
so every consumer agrees on their laws:

- **Disjoint point-map union** (:func:`merge_disjoint`): the parallel
  engine partitions the *lattice* — each worker computes whole cuboids
  for its own lattice points — so combining outcomes is a checked dict
  union where any overlap is a plan bug.
- **Aggregate-state merge** (:func:`merge_states` /
  :func:`finalize_states`): the cluster layer partitions the *facts* —
  each shard computes a partial aggregate state per group key over its
  slice — so combining answers folds the per-shard states with
  :meth:`AggregateFunction.merge` and finalizes once, at the very end.

The second shape is sound because facts are partitioned disjointly by
fact id even when the *grouping* is non-disjoint (a fact appearing in
several groups of one cuboid still lives on exactly one shard, so each
of its group contributions is counted exactly once across the cluster)
and merge is associative/commutative with ``new()`` as identity — the
laws ``tests/prop/test_hypothesis_aggregates.py`` pins down.

For the distributive aggregates the finalized cell value *is* a valid
partial state (:data:`STATE_EXACT_AGGREGATES`), which lets shards reuse
their finalized serving path; the algebraic AVG must ship its
``(sum, count)`` pair instead (finalized averages do not merge).

Shard states are packed cuboids (:class:`~repro.core.packed.PackedCuboid`)
and merge on their codes: each shard's codes are re-ranked into the
union of the shards' axis dictionaries, equal codes fold, and the result
is packed in wire order; :func:`finalize_states` maps the folded states
into its value array.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, Mapping, Sequence, Tuple

from repro.core.aggregates import AggregateFunction, get_function
from repro.core.lattice import LatticePoint
from repro.core.packed import Axes, PackedCuboid, as_codes
from repro.errors import CubeError

#: Aggregates whose finalized cell value is itself a mergeable partial
#: state (``finalize`` is the identity up to float coercion).  AVG is
#: excluded: an average cannot be merged without its support count.
STATE_EXACT_AGGREGATES = frozenset({"COUNT", "SUM", "MIN", "MAX"})


# ----------------------------------------------------------------------
# disjoint point-map union (the engine's shape)
# ----------------------------------------------------------------------
def merge_disjoint(
    point_maps: Iterable[Mapping[LatticePoint, PackedCuboid]],
) -> Dict[LatticePoint, PackedCuboid]:
    """Union per-partition ``point -> cuboid`` maps; overlap is an error.

    The engine's partition plan assigns every lattice point to exactly
    one partition, so two partitions reporting the same point means the
    plan (not the data) is broken — fail loudly instead of silently
    keeping one of the two cuboids.
    """
    merged: Dict[LatticePoint, PackedCuboid] = {}
    for point_map in point_maps:
        for point, cuboid in point_map.items():
            if point in merged:
                raise CubeError(
                    f"partition plan overlap: point {point} computed twice"
                )
            merged[point] = cuboid
    return merged


# ----------------------------------------------------------------------
# aggregate-state merge (the cluster's shape)
# ----------------------------------------------------------------------
def merge_states(
    fn: AggregateFunction, shard_states: Sequence[PackedCuboid]
) -> PackedCuboid:
    """Fold per-shard partial states with ``fn.merge``, on the codes.

    Keys missing from a shard simply contribute nothing (the shard holds
    no fact of that group); because ``merge`` is associative and
    commutative, the fold order cannot change the result.  A cell's
    states fold in shard order.  The result's dictionaries are the
    union of the shards'.
    """
    live = [states for states in shard_states if states]
    if not live:
        axes = shard_states[0].axes if shard_states else ()
        return PackedCuboid(axes, as_codes(axes, ()), [])
    axes: Axes = tuple(
        tuple(sorted({part for axis in column for part in axis}))
        for column in zip(*(states.axes for states in live))
    )
    merged: Dict[int, Any] = {}
    merge = fn.merge
    for states in live:
        for code, state in zip(states.recoded(axes), states.cells):
            merged[code] = merge(merged[code], state) if code in merged else state
    order = sorted(merged)
    return PackedCuboid(
        axes, as_codes(axes, order), [merged[code] for code in order]
    )


def finalize_states(fn: AggregateFunction, states: PackedCuboid) -> PackedCuboid:
    """Finalize a merged state cuboid into reported values — exactly
    once, after the last merge (AVG divides here and nowhere earlier),
    on the same dictionaries and codes."""
    return PackedCuboid(
        states.axes, states.codes, array("d", map(fn.finalize, states.cells))
    )


def states_from_finalized(
    aggregate_name: str, cuboid: PackedCuboid
) -> PackedCuboid:
    """Reinterpret a finalized cuboid as partial states.

    Only valid for :data:`STATE_EXACT_AGGREGATES`; shards use this to
    turn their (cache-served, ladder-resolved) finalized answers back
    into mergeable states without recomputing anything.  The cuboid
    already *is* its states and is returned itself — COUNT's too: its
    float counts below ``2**53`` add exactly.  :func:`merge_states` never
    writes to its inputs.
    """
    name = aggregate_name.upper()
    if name not in STATE_EXACT_AGGREGATES:
        raise CubeError(
            f"{name} states cannot be recovered from finalized values; "
            f"ship the partial states instead"
        )
    return cuboid


def avg_states(sums: PackedCuboid, counts: PackedCuboid) -> PackedCuboid:
    """AVG's ``(sum, count)`` partial states from a SUM and a COUNT
    cuboid over the same facts.  Both hold the same keys in wire order,
    so their cells pair up in stored order; the states share the SUM
    cuboid's dictionaries and codes."""
    if len(sums) != len(counts):
        raise CubeError(
            f"AVG states: {len(sums)} SUM cells but {len(counts)} COUNT cells"
        )
    pairs: Sequence[Tuple[float, float]] = list(zip(sums.cells, counts.cells))
    return PackedCuboid(sums.axes, sums.codes, pairs)


def merge_finalized(
    aggregate_name: str, shard_cuboids: Sequence[PackedCuboid]
) -> PackedCuboid:
    """Convenience: merge finalized shard cuboids of a state-exact
    aggregate (lifts to states, merges, finalizes)."""
    fn = get_function(aggregate_name)
    states = merge_states(
        fn,
        [
            states_from_finalized(aggregate_name, cuboid)
            for cuboid in shard_cuboids
        ],
    )
    return finalize_states(fn, states)
