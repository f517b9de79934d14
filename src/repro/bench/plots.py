"""Write figure series as gnuplot-ready ``.dat`` files.

``x3 bench --dat DIR`` drops one file per figure::

    # fig5: Sparse cubes, 10^5 trees; coverage fails, disjointness holds
    # axes COUNTER BUC BUCOPT TD TDOPT
    2 0.036 0.044 0.043 0.322 0.152
    3 0.400 0.066 0.064 1.282 0.420
    ...

so the curves can be re-plotted next to the paper's with any tool.
"""

from __future__ import annotations

import os
from typing import List

from repro.bench.figures import FigureSpec, Sweep
from repro.bench.harness import AlgorithmRun


def figure_dat(spec: FigureSpec, runs: List[AlgorithmRun]) -> str:
    """Render one figure's series as a .dat text block."""
    sweep = Sweep(runs)
    lines = [
        f"# {spec.figure_id}: {spec.title}",
        "# axes " + " ".join(sweep.sim),
    ]
    for axis in sweep.axes:
        row = [str(axis)] + [
            f"{cells[axis]:.6f}" if axis in cells else "nan"
            for cells in sweep.sim.values()
        ]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def write_figure_dat(
    directory: str, spec: FigureSpec, runs: List[AlgorithmRun]
) -> str:
    """Write the figure's .dat file; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{spec.figure_id}.dat")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(figure_dat(spec, runs))
    return path
