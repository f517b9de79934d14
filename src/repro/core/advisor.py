"""The Sec. 4.6 algorithm advisor.

"In summary, summarizability together with cube characteristics
determine the choice of the algorithm.  The bottom-up algorithm is best
in average for a high dimensional cube.  The counter-based is best for
a low dimensional cube.  Only if the cube is dense and total coverage
is known to hold that we can efficiently use the top-down algorithm.
Knowing that disjointness holds does also improve the performance for
both the top-down and the bottom-up algorithms."

:func:`choose_algorithm` encodes that guidance (correctness gating
first, cube characteristics second); :func:`recommend_for_table`
estimates the characteristics from the table's statistics, the way the
Sec. 3.7 customised variants decide from what is known of the data
rather than from a pass over it: no cuboid is counted before the cube
is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.bindings import FactTable
from repro.core.properties import PropertyOracle


@dataclass(frozen=True)
class Recommendation:
    """The Sec. 4.6 decision, with its reasoning."""

    algorithm: str
    rationale: str


def choose_algorithm(
    oracle: PropertyOracle,
    dense: bool,
    n_axes: int,
    cube_cells_estimate: float,
    memory_entries: int,
) -> Recommendation:
    """The paper's closing guidance as a decision procedure."""
    disjoint = oracle.globally_disjoint()
    covered = oracle.globally_covered()
    if cube_cells_estimate <= memory_entries and n_axes <= 4:
        return Recommendation(
            "COLUMNAR",
            "low-dimensional cube that fits the counter budget: the "
            "single-pass counter strategy is optimal (Sec. 4.6), and the "
            "vectorized columnar sweep is its fastest implementation",
        )
    if dense and covered and disjoint:
        return Recommendation(
            "TDOPTALL",
            "dense cube with both summarizability properties: pure "
            "top-down roll-up wins (Fig. 8), running as columnar "
            "group-id remaps on the encoded columns",
        )
    if disjoint:
        return Recommendation(
            "BUCOPT",
            "disjointness holds: bottom-up with exclusive partitioning "
            "is safe and fastest for sparse/high-dimensional cubes "
            "(Figs. 4-7); the columnar kernel partitions by code-range "
            "slicing with vectorized gathers",
        )
    lattice = oracle.lattice
    partially_disjoint = any(
        oracle.axis_disjoint(position, states.rigid_index)
        for position, states in enumerate(lattice.axis_states)
    )
    if partially_disjoint:
        return Recommendation(
            "BUCCUST",
            "disjointness holds on some axes only: the customized "
            "bottom-up algorithm exploits it locally while staying "
            "correct (Sec. 4.5)",
        )
    return Recommendation(
        "BUC",
        "no summarizability property is safe to assume: the safe "
        "bottom-up algorithm is the best always-correct choice "
        "(Sec. 4.6: 'we may have no choice but to use' the safe ones)",
    )


def estimate_cells(table: FactTable) -> Tuple[float, float]:
    """Expected cells of the whole cube and of its top cuboid.

    A point has a key domain (the product of the kept axes'
    cardinalities) and expected placements: the facts times, per kept
    axis, the values a fact binds there on average (the Sec. 3.3 cross
    product; a coverage gap binds none).  Both are read off the
    encoding's statistics, one per (axis, structural state), and
    multiply out one axis at a time over the lattice.  Placements land
    in the domain as balls in bins, so a point expects
    ``domain * (1 - exp(-placements / domain))`` distinct keys.
    """
    encoded = table.columnar()
    n = encoded.n_rows
    # (domain, placements) per point so far; a dropped axis leaves both.
    points: List[Tuple[int, float]] = [(1, float(n))]
    top: Tuple[int, float] = (1, float(n))
    for position, states in enumerate(table.lattice.axis_states):
        factors = [(1, 1.0)]
        for state in range(len(states.states)):
            stats = encoded.statistics(position, state)
            factors.append((stats.cardinality, stats.values / n if n else 0.0))
        domain, share = factors[1 + states.rigid_index]
        top = (top[0] * domain, top[1] * share)
        points = [(d * fd, r * fr) for d, r in points for fd, fr in factors]
    return sum(_distinct(d, r) for d, r in points), _distinct(*top)


def _distinct(domain: int, placements: float) -> float:
    """Expected distinct bins hit by ``placements`` balls in ``domain``."""
    return domain * -math.expm1(-placements / domain) if domain else 0.0


def recommend_for_table(
    table: FactTable,
    oracle: PropertyOracle,
    memory_entries: int,
) -> Recommendation:
    """Estimate the cube characteristics from the table, then decide."""
    cells, top_cells = estimate_cells(table)
    return choose_algorithm(
        oracle,
        dense=top_cells < 0.5 * max(1, len(table)),
        n_axes=table.lattice.axis_count,
        cube_cells_estimate=cells,
        memory_entries=memory_entries,
    )
