"""Query-time roll-up, slicing and summarizability checking.

The paper's central warning is that a coarser XML cuboid can NOT, in
general, be derived from a finer one: coverage gaps lose facts and
non-disjointness double-counts them.  This module gives downstream users
a safe API over a computed :class:`~repro.core.cube.CubeResult`:

- :func:`derivable` — is cuboid ``target`` derivable from cuboid
  ``source`` by pure aggregation, given a property oracle?  (The Sec. 3
  analysis as a decision procedure.)
- :func:`rollup` — perform the aggregation when it is safe, raise
  :class:`~repro.errors.CubeError` when it is not (the paper's wrong
  numbers come from calling :func:`rollup_cuboid` directly).
- :func:`slice_cuboid` / :func:`dice_cuboid` — classic OLAP slice and
  dice over one cuboid.

Each of the three takes any cuboid mapping, packs it
(:func:`~repro.core.packed.pack`; a served cuboid already is), runs on
the codes and returns a :class:`~repro.core.packed.PackedCuboid`, in
stored (wire) order.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Mapping, Sequence, Tuple

from repro.core.aggregates import AggregateFunction, get_function
from repro.core.bindings import GroupKey
from repro.core.cube import CubeResult
from repro.core.lattice import CubeLattice, LatticePoint
from repro.core.merge import STATE_EXACT_AGGREGATES
from repro.core.packed import PackedCuboid, as_codes, pack
from repro.core.properties import PropertyOracle
from repro.errors import CubeError


def structural_drop_only(
    lattice: CubeLattice, source: LatticePoint, target: LatticePoint
) -> bool:
    """True when ``target`` is obtained from ``source`` purely by
    dropping axes (every kept axis keeps the same structural state).

    This is the only lattice direction roll-up can ever take: adding a
    structural relaxation introduces *new* matches that the source
    cuboid has never seen.
    """
    for position, states in enumerate(lattice.axis_states):
        if target[position] == states.dropped_index:
            if source[position] == states.dropped_index:
                continue
            # Fine: the axis is aggregated away.
            continue
        if source[position] != target[position]:
            return False
    return True


def derivable(
    lattice: CubeLattice,
    source: LatticePoint,
    target: LatticePoint,
    oracle: PropertyOracle,
) -> Tuple[bool, str]:
    """Can ``target`` be computed from ``source`` by aggregation alone?

    Returns (answer, reason).  Requirements:

    1. the move is drop-only (no new structural relaxations);
    2. the source cuboid is pairwise disjoint (otherwise facts in
       several source groups are double-counted);
    3. the source has total coverage on the axes being dropped... more
       precisely, every fact of the target participates in the source —
       guaranteed when the source's kept axes are all covered.
    """
    if source == target:
        return True, "identical points"
    if not structural_drop_only(lattice, source, target):
        return False, (
            "target relaxes structure; its groups contain matches the "
            "source cuboid never saw"
        )
    if not oracle.disjoint(source):
        return False, (
            "source cuboid is not pairwise disjoint; adding up its "
            "groups double-counts repeated sub-elements"
        )
    if not oracle.covered(source):
        return False, (
            "source cuboid lacks total coverage; facts with missing "
            "sub-elements never reached it"
        )
    return True, "drop-only move from a disjoint, covering cuboid"


def rollup_cuboid(
    lattice: CubeLattice,
    source_cuboid: Mapping[GroupKey, float],
    source: LatticePoint,
    target: LatticePoint,
    fn: AggregateFunction,
) -> PackedCuboid:
    """Aggregate raw source cells down to ``target`` (no soundness check).

    Each target cell folds its source cells from ``fn.new()`` with
    ``fn.merge``, which is exact only where a finalized cell is the
    aggregate's partial state (:data:`STATE_EXACT_AGGREGATES`), then
    finalizes.  The arithmetic core of :func:`rollup`, shared with the
    serving layer (:mod:`repro.serve`), which derives answers from
    *cached* cuboids rather than a full :class:`CubeResult`; callers are
    responsible for the :func:`derivable` check.

    The source rolls up on its codes: each cell's code keeps the digits
    of the target's axes (:meth:`PackedCuboid.projected`), and the
    cells fold by code in stored order.
    """
    source_kept = lattice.kept_axes(source)
    target_kept = set(lattice.kept_axes(target))
    keep = [
        index
        for index, axis in enumerate(source_kept)
        if axis in target_kept
    ]
    packed = pack(source_cuboid)
    if len(packed.axes) < len(source_kept):  # empty, packed without axes
        return pack({}, ((),) * len(keep))
    axes, projected = packed.projected(keep)
    empty = fn.new()
    states: Dict[int, Any] = {}
    for code, value in zip(projected, packed.cells):
        states[code] = fn.merge(states.get(code, empty), value)
    codes = sorted(states)
    return PackedCuboid(
        axes,
        as_codes(axes, codes),
        array("d", [fn.finalize(states[code]) for code in codes]),
    )


def rollup(
    cube: CubeResult,
    source: LatticePoint,
    target: LatticePoint,
    oracle: PropertyOracle,
) -> PackedCuboid:
    """Aggregate the source cuboid down to the target point.

    Raises :class:`CubeError` when the derivation is unsound.
    """
    if cube.aggregate not in STATE_EXACT_AGGREGATES:
        raise CubeError(
            f"roll-up over finalized cells needs a state-exact "
            f"aggregate; {cube.aggregate} requires partial states "
            "(recompute from the fact table instead)"
        )
    ok, reason = derivable(cube.lattice, source, target, oracle)
    if not ok:
        raise CubeError(
            f"cannot roll up {cube.lattice.describe(source)} -> "
            f"{cube.lattice.describe(target)}: {reason}"
        )
    return rollup_cuboid(
        cube.lattice, cube.cuboid(source), source, target,
        get_function(cube.aggregate),
    )


def slice_cuboid(
    cuboid: Mapping[GroupKey, float], axis_index: int, value: str
) -> PackedCuboid:
    """Fix one key component to a value and drop it from the keys."""
    packed = pack(cuboid)
    if axis_index < len(packed.axes):
        return packed.sliced(axis_index, value)
    if packed:
        raise CubeError(
            f"slice index {axis_index} out of range for key "
            f"{next(iter(packed))}"
        )
    return packed  # empty, with no axis to slice


def dice_cuboid(
    cuboid: Mapping[GroupKey, float], predicates: Mapping[int, Sequence[str]]
) -> PackedCuboid:
    """Keep only cells whose key components fall in the given sets."""
    return pack(cuboid).diced(predicates)
