"""Split the cube lattice into independent point sets.

Every cube algorithm in :mod:`repro.core.algorithms` accepts a ``points``
restriction and computes those cuboids from the base fact table alone, so
*any* disjoint cover of the requested points yields a correct parallel
plan.  The engine uses weighted LPT: points sorted by estimated cost,
greedily assigned to the lightest bin — the best load balance, ignoring
lattice edges.

The split is deterministic: same lattice, same points, same bin count
-> same partitions, independent of dict order or hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.lattice import CubeLattice, LatticePoint
from repro.errors import CubeError


@dataclass(frozen=True)
class Partition:
    """One independently-computable slice of the lattice."""

    index: int
    points: Tuple[LatticePoint, ...]
    weight: float


def point_weight(lattice: CubeLattice, point: LatticePoint) -> float:
    """Estimated relative cost of cubing one lattice point.

    Grouping cost grows with the number of kept axes (wider keys, larger
    cuboids); every point pays one base-table scan.  This only needs to
    *rank* points sensibly — the schedule, not the estimate, determines
    correctness.
    """
    return 1.0 + len(lattice.kept_axes(point))


def partition_points(
    lattice: CubeLattice,
    points: Sequence[LatticePoint],
    n_partitions: int,
) -> List[Partition]:
    """Disjoint cover of ``points`` in at most ``n_partitions`` slices.

    Empty bins are dropped, so the result may hold fewer partitions than
    requested (never more); the union of all partitions is exactly the
    input point set.
    """
    if n_partitions < 1:
        raise CubeError(f"need at least one partition, got {n_partitions}")
    weighted = sorted(
        points,
        key=lambda point: (-point_weight(lattice, point), point),
    )
    n_partitions = min(n_partitions, max(1, len(weighted)))
    bins: List[List[LatticePoint]] = [[] for _ in range(n_partitions)]
    loads = [0.0] * n_partitions
    for point in weighted:
        lightest = min(range(n_partitions), key=lambda i: (loads[i], i))
        bins[lightest].append(point)
        loads[lightest] += point_weight(lattice, point)
    filled = [(raw, load) for raw, load in zip(bins, loads) if raw]
    return [
        Partition(index=index, points=tuple(sorted(raw)), weight=load)
        for index, (raw, load) in enumerate(filled)
    ]


def partition_cut_edges(
    lattice: CubeLattice,
    partitions: List[List[LatticePoint]],
) -> int:
    """Lattice edges whose endpoints land in different partitions.

    The engine reports this as a partition-quality metric: roll-up reuse
    (TD's sorted-run sharing, BUC's prefix sharing) follows lattice edges,
    so a cut edge is reuse the partitioned run may repeat.
    """
    assignment: Dict[LatticePoint, int] = {}
    for index, points in enumerate(partitions):
        for point in points:
            assignment[point] = index
    cut = 0
    for point, home in assignment.items():
        for successor in lattice.successors(point):
            other = assignment.get(successor)
            if other is not None and other != home:
                cut += 1
    return cut
