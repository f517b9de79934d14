"""The NAIVE oracle: canonical per-cuboid grouping.

Not in the paper's line-up — it exists as ground truth.  Every correct
algorithm must produce exactly its cuboids; the optimized variants are
*expected* to differ from it when their required property fails (and the
tests assert both directions).

Each point's cuboid is grouped by :func:`~repro.core.groupby.cuboid_from_rows`
(the canonical semantics, a dict) and packed as soon as it is finished,
with the table's dictionaries
(:meth:`~repro.core.bindings.FactTable.dictionaries`): the dict lives
only while its point is being grouped.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.algorithms.base import CubeAlgorithm, ExecutionContext
from repro.core.groupby import cuboid_from_rows
from repro.core.lattice import LatticePoint
from repro.core.packed import PackedCuboid, pack


class NaiveAlgorithm(CubeAlgorithm):
    name = "NAIVE"

    def _compute(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, PackedCuboid], int]:
        table = context.table
        fn = table.aggregate.fn
        dictionaries = table.dictionaries()
        cuboids: Dict[LatticePoint, PackedCuboid] = {}
        for point in points:
            context.charge_base_scan()
            cuboid = cuboid_from_rows(table, table.rows, point, fn)
            context.cost.charge_cpu(len(cuboid))
            context.bump("groups", len(cuboid))
            cuboids[point] = pack(
                cuboid,
                tuple(
                    dictionaries[axis]
                    for axis in table.lattice.kept_axes(point)
                ),
            )
        return cuboids, 1
