"""The X^3 cube operator: query model, lattice, extraction, algorithms.

Public surface re-exported here:

- :class:`~repro.core.axes.AxisSpec` — one ``X^3`` clause entry: a path
  binding plus its permitted relaxations;
- :class:`~repro.core.query.X3Query` — the full cube specification;
- :class:`~repro.core.lattice.CubeLattice` — the relaxed-cube lattice of
  Fig. 3;
- :func:`~repro.core.extract.extract_fact_table` — one evaluation of the
  most relaxed fully instantiated pattern, annotated per binding;
- :func:`~repro.core.cube.compute_cube` — run any registered algorithm;
- :mod:`repro.core.algorithms` — COUNTER, BUC(+OPT/CUST), TD(+OPT/OPTALL/
  CUST) and the NAIVE oracle.
"""

from repro.core.aggregates import AggregateSpec
from repro.core.axes import AxisSpec
from repro.core.bindings import AnnotatedValue, FactRow, FactTable
from repro.core.cube import (
    CostSnapshot,
    CubeResult,
    ExecutionOptions,
    compute_cube,
)
from repro.core.extract import extract_fact_table
from repro.core.lattice import CubeLattice, LatticePoint
from repro.core.query import X3Query

__all__ = [
    "AggregateSpec",
    "AxisSpec",
    "AnnotatedValue",
    "FactRow",
    "FactTable",
    "CostSnapshot",
    "CubeResult",
    "ExecutionOptions",
    "compute_cube",
    "CubeLattice",
    "LatticePoint",
    "X3Query",
]
