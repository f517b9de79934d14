"""Benchmark harness: regenerate every figure of the paper's evaluation.

- :mod:`repro.bench.harness` — run algorithms over a workload, collecting
  simulated seconds (the deterministic cost model) and wall-clock;
- :mod:`repro.bench.figures` — one experiment definition per paper figure
  (Figs. 4-10), each an axis sweep or a bar chart;
- :mod:`repro.bench.report` — ASCII series/table rendering of the same
  rows the paper plots;
- :mod:`repro.bench.runner` — what ``x3 bench`` runs, and the artifact
  scheme;
- :mod:`repro.bench.determinism` — the exact comparison of a fresh record
  with the committed one (``BENCH_figures.json``, ``BENCH_smoke.json``).
"""

from repro.bench.harness import AlgorithmRun, run_workload
from repro.bench.figures import FIGURES, FigureSpec, run_figure

__all__ = [
    "AlgorithmRun",
    "run_workload",
    "FIGURES",
    "FigureSpec",
    "run_figure",
]
