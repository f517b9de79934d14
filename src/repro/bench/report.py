"""ASCII rendering of figure and smoke results for the terminal."""

from __future__ import annotations

import textwrap
from typing import List, Mapping, Optional

from repro.bench.figures import Claim, FigureSpec, Sweep, series_name
from repro.bench.harness import REPLAY_REQUESTS, REPLAY_SEED, AlgorithmRun


def format_figure(spec: FigureSpec, runs: List[AlgorithmRun]) -> str:
    """Render one figure's runs: a series table (axes sweep) or a bar
    chart (single-point figures like Fig. 10), then the figure's claims
    with their outcome on these runs."""
    lines = [f"== {spec.figure_id}: {spec.title}", ""]
    sweep = Sweep(runs)
    if len(sweep.axes) > 1:
        header = ["algorithm".ljust(10)] + [
            f"{axis:>10}" for axis in sweep.axes
        ]
        lines.append("   sim-seconds by # of axes")
        lines.append("   " + " ".join(header))
        for algorithm in spec.algorithms:
            cells = sweep.sim.get(algorithm, {})
            row = [algorithm.ljust(10)] + [
                f"{cells[axis]:>10.3f}" if axis in cells else " " * 10
                for axis in sweep.axes
            ]
            lines.append("   " + " ".join(row))
    else:
        lines.append("   sim-seconds (bar chart)")
        peak = max(run.simulated_seconds for run in runs) or 1.0
        for run in runs:
            bar = "#" * max(1, int(40 * run.simulated_seconds / peak))
            flag = "" if run.correct in (None, True) else "  [INCORRECT]"
            lines.append(
                f"   {series_name(run):<10} {run.simulated_seconds:>10.3f} "
                f"{bar}{flag}"
            )
    wrong = [run for run in runs if run.correct is False]
    if wrong and len(sweep.axes) > 1:
        names = sorted({run.algorithm for run in wrong})
        lines.append(
            f"   note: incorrect results (as the paper expects here): "
            f"{', '.join(names)}"
        )
    thrash = [run for run in runs if run.passes > 1]
    if thrash:
        worst = max(thrash, key=lambda run: run.passes)
        lines.append(
            f"   note: COUNTER multi-pass thrash up to {worst.passes} "
            f"passes at {worst.n_axes} axes"
        )
    lines.append("   claims:")
    for claim, outcome in spec.check(runs):
        lines.append(
            textwrap.fill(
                f"{claim_mark(claim, outcome)} {claim.text}",
                width=78,
                initial_indent="   ",
                subsequent_indent="     ",
            )
        )
    return "\n".join(lines)


def claim_mark(claim: Claim, outcome: Optional[bool]) -> str:
    """How a claim's outcome is reported: ✓ holds, ✗ does not."""
    if outcome is None:
        return "? (not evaluable on this sweep)"
    if outcome:
        return "✓"
    return "✗" if claim.reproduced else "✗ (known deviation)"


def format_smoke(
    runs: List[AlgorithmRun], replays: Mapping[str, Mapping[str, float]]
) -> str:
    """Render the smoke: serial vs parallel per algorithm, then the
    serving replays.

    ``work/path`` is modeled work over the schedule's critical path (how
    evenly the partitions load the workers); ``serial/wall`` is the
    serial twin's wall seconds over the row's own — the speedup this
    host measured, below 1.00x wherever the pool lost.
    """
    lines = [
        "== smoke: parallel engine vs serial, "
        f"{runs[0].workload if runs else '?'}",
        f"   {'algorithm':<10} {'workers':>7} {'engine':>8} "
        f"{'sim-s':>10} {'par-sim-s':>10} {'work/path':>9} {'wall-s':>10} "
        f"{'serial/wall':>11} {'ok':>4}",
    ]
    serial_wall = {
        run.algorithm: run.wall_seconds for run in runs if run.workers == 1
    }
    for run in runs:
        ok = "-" if run.correct is None else ("yes" if run.correct else "NO")
        wall_ratio = serial_wall[run.algorithm] / run.wall_seconds
        lines.append(
            f"   {run.algorithm:<10} {run.workers:>7} {run.engine:>8} "
            f"{run.simulated_seconds:>10.4f} {run.par_sim_seconds:>10.4f} "
            f"{run.work_over_path:>8.2f}x {run.wall_seconds:>10.4f} "
            f"{wall_ratio:>10.2f}x {ok:>4}"
        )
    lines += [
        "",
        f"== smoke: {REPLAY_REQUESTS}-request seed-{REPLAY_SEED} replays,"
        " modeled seconds",
        f"   {'replay':<18} {'total':>12} {'hit rate':>9} {'p95':>12}",
    ]
    for name, row in replays.items():
        lines.append(
            f"   {name:<18} {row['modeled_seconds']:>12.6f} "
            f"{row['hit_rate']:>9.2%} {row['modeled_p95_seconds']:>12.4e}"
        )
    ratio = (
        replays["api_x3ql"]["modeled_p95_seconds"]
        / replays["api_json"]["modeled_p95_seconds"]
    )
    lines.append(f"   X^3QL p95 / JSON p95 = {ratio:.4f}")
    return "\n".join(lines)
