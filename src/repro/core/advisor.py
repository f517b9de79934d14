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
derives the characteristics from a fact table.  The
:class:`~repro.core.estimate.CostEstimator` complements this with
quantitative predictions; the advisor stays rule-based because its
job includes *correctness* gating, which no cost model captures.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    cube_cells_estimate: int,
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


def recommend_for_table(
    table: FactTable,
    oracle: PropertyOracle,
    memory_entries: int,
) -> Recommendation:
    """Derive the cube characteristics from the table, then decide."""
    # Imported here: materialize -> cube -> algorithms -> AUTO -> advisor.
    from repro.core.materialize import cuboid_sizes

    lattice = table.lattice
    sizes = cuboid_sizes(table, lattice)
    cells = sum(sizes.values())
    dense = sizes[lattice.top] < 0.5 * max(1, len(table))
    return choose_algorithm(
        oracle,
        dense=dense,
        n_axes=lattice.axis_count,
        cube_cells_estimate=cells,
        memory_entries=memory_entries,
    )
