"""COUNTER: the counter-based algorithm (paper Sec. 3.3).

One scan of the base data; for every fact, for every lattice point, every
key combination of the fact's axis values increments a counter (the
"combinatorial number of counters incremented for a single sub-tree").
Counter-based computation does not depend on the summarizability
properties, so it is always correct.

Memory behaviour is the whole story (Sec. 4.6): when the counters fit the
budget, COUNTER is optimal; when they do not, it degrades to multi-pass
partitioned execution — each extra pass re-reads the base data — which is
the thrashing the paper observed at 6-7 axes ("at 6 axes, we had to do 2
passes, at 7 axes we needed 5 passes").

The increments run on the columnar sweep
(:mod:`~repro.core.algorithms.columnar_sweep`: same cuboids, key order
and floats); this module is the price list of the row-form loop ``for
row: for point: for key`` — row-form pages, one CPU op per increment
and per finalized cell, a row-form re-scan per extra pass.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.algorithms.base import ExecutionContext, encode
from repro.core.algorithms.columnar_sweep import ColumnarSweepAlgorithm
from repro.core.columnar import ColumnarFactTable
from repro.core.lattice import LatticePoint
from repro.core.packed import PackedCuboid


class CounterAlgorithm(ColumnarSweepAlgorithm):
    name = "COUNTER"

    def _compute(
        self, context: ExecutionContext, points: List[LatticePoint]
    ) -> Tuple[Dict[LatticePoint, PackedCuboid], int]:
        cuboids, passes = super()._compute(context, points)
        # One counter array per requested point, in the order asked for.
        return {point: cuboids[point] for point in points}, passes

    def scan(self, context: ExecutionContext) -> ColumnarFactTable:
        context.charge_base_scan()
        return encode(context.table)

    def leaf_ops(self, increments: int, cells: int) -> int:
        return increments + cells

    def settle(
        self,
        context: ExecutionContext,
        encoded: ColumnarFactTable,
        nodes: int,
        increments: int,
        cells: int,
        passes: int,
    ) -> None:
        context.bump("counter_cells", cells)
        context.bump("counter_passes", passes)

    def rescan(
        self, context: ExecutionContext, encoded: ColumnarFactTable
    ) -> None:
        context.charge_base_scan()
        context.cost.charge_cpu(encoded.n_rows)
