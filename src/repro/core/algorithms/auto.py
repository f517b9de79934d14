"""AUTO: the advisor as an algorithm.

``compute_cube(table, "AUTO", oracle=...)`` consults the Sec. 4.6
advisor (:mod:`repro.core.advisor`) with the given property oracle and
delegates to the chosen concrete algorithm.  The advisor estimates the
cube from the table's statistics; nothing is counted before the
delegate runs.  The result's ``algorithm`` field records the delegation
(e.g. ``AUTO->BUCOPT``) so runs stay auditable.

Because the advisor gates on correctness first, AUTO is always correct
*provided the oracle is truthful* — an optimistic oracle delegates to an
optimistic algorithm, exactly like running that algorithm directly.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.advisor import recommend_for_table
from repro.core.algorithms.base import (
    DEFAULT_MEMORY_ENTRIES,
    CubeAlgorithm,
    ExecutionContext,
)
from repro.core.lattice import LatticePoint
from repro.core.packed import PackedCuboid
from repro.core.properties import PropertyOracle


class AutoAlgorithm(CubeAlgorithm):
    name = "AUTO"

    def run(self, table, oracle=None, memory_entries=None, points=None,
            min_support=0.0, encoding="auto"):
        from repro.core.algorithms.registry import get_algorithm

        effective_oracle = oracle or PropertyOracle.from_flags(
            table.lattice, False, False
        )
        recommendation = recommend_for_table(
            table,
            effective_oracle,
            memory_entries or DEFAULT_MEMORY_ENTRIES,
        )
        result = get_algorithm(recommendation.algorithm).run(
            table,
            oracle=effective_oracle,
            memory_entries=memory_entries,
            points=points,
            min_support=min_support,
            encoding=encoding,
        )
        result.algorithm = f"AUTO->{result.algorithm}"
        return result

    def _compute(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, PackedCuboid], int]:  # pragma: no cover
        raise AssertionError("AUTO overrides run() directly")
