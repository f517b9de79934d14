"""Rendering of figure and serving results: ASCII for the terminal,
plus a dependency-free HTML serving report for CI artifacts."""

from __future__ import annotations

import html
import textwrap
from typing import TYPE_CHECKING, List, Optional

from repro.bench.figures import Claim, FigureSpec, Sweep, series_name
from repro.bench.harness import AlgorithmRun

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serve -> bench)
    from repro.serve.server import CubeServer


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


def format_smoke(runs: List[AlgorithmRun]) -> str:
    """Render the smoke benchmark: serial vs parallel per algorithm."""
    lines = [
        "== smoke: parallel engine vs serial, "
        f"{runs[0].workload if runs else '?'}",
        f"   {'algorithm':<10} {'workers':>7} {'engine':>8} "
        f"{'sim-s':>10} {'par-sim-s':>10} {'speedup':>8} {'wall-s':>10} "
        f"{'ok':>4}",
    ]
    for run in runs:
        ok = "-" if run.correct is None else ("yes" if run.correct else "NO")
        lines.append(
            f"   {run.algorithm:<10} {run.workers:>7} {run.engine:>8} "
            f"{run.simulated_seconds:>10.4f} {run.par_sim_seconds:>10.4f} "
            f"{run.modeled_speedup:>7.2f}x {run.wall_seconds:>10.4f} "
            f"{ok:>4}"
        )
    return "\n".join(lines)


_HTML_STYLE = """
body { font-family: monospace; margin: 2em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.5em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.7em; text-align: right; }
th { background: #eee; } td.l, th.l { text-align: left; }
p.note { color: #666; }
""".strip()


def _html_table(headers: List[str], rows: List[List[str]]) -> List[str]:
    """One table; a header or cell starting with ``<`` is left-aligned."""

    def cell(tag: str, text: str) -> str:
        left = text.startswith("<")
        body = html.escape(text[1:] if left else text)
        attr = " class='l'" if left else ""
        return f"<{tag}{attr}>{body}</{tag}>"

    lines = ["<table>"]
    lines.append("<tr>" + "".join(cell("th", h) for h in headers) + "</tr>")
    for row in rows:
        lines.append("<tr>" + "".join(cell("td", c) for c in row) + "</tr>")
    lines.append("</table>")
    return lines


def format_serving_html(server: "CubeServer") -> str:
    """A standalone HTML serving report: the ``x3-top`` dashboard as
    tables (windows, ladder rungs, hottest points, cache residency).

    No chart libraries and no external assets — the file is attached
    as a CI artifact and has to render anywhere.
    """
    from repro.obs.live import WINDOW_QUANTILES
    from repro.serve.server import TIERS

    stats = server.stats()
    snapshots = server.telemetry.refresh_gauges()
    out: List[str] = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        "<title>x3 serving report</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        "<h1>x3 serving report</h1>",
        "<p>"
        + html.escape(
            f"version {stats.version}: {stats.requests} requests, "
            f"hit rate {stats.hit_rate:.0%}, modeled "
            f"{stats.modeled_cost_seconds:.4f}s vs cold "
            f"{stats.cold_cost_seconds:.4f}s "
            f"({stats.modeled_speedup:.1f}x), {stats.writes} writes"
        )
        + "</p>",
        "<h2>sliding windows</h2>",
    ]
    quantile_heads = [
        f"p{int(q * 100):02d} modeled" for q in WINDOW_QUANTILES
    ]
    out += _html_table(
        ["<window", "requests"]
        + quantile_heads
        + ["hit ratio", "churn", "SLO burn"],
        [
            [
                f"<{snap.window_seconds:g}s",
                str(snap.requests),
            ]
            + [
                f"{snap.modeled_quantiles[q]:.3e}" for q in WINDOW_QUANTILES
            ]
            + [
                f"{snap.hit_ratio:.0%}",
                str(snap.evictions),
                f"{snap.slo_burn_rate:.2f}",
            ]
            for snap in snapshots
        ],
    )
    out.append(
        "<p class='note'>modeled-latency quantiles (simulated seconds); "
        "SLO burn = violating fraction / error budget</p>"
    )
    out.append("<h2>sound-source ladder</h2>")
    out += _html_table(
        ["<rung", "requests"],
        [
            [f"<{tier}", str(stats.tiers.get(tier, 0))]
            for tier in TIERS
            if stats.tiers.get(tier, 0)
        ],
    )
    if snapshots and snapshots[0].top_points:
        out.append(
            "<h2>hottest lattice points "
            f"({snapshots[0].window_seconds:g}s window)</h2>"
        )
        out += _html_table(
            ["<point", "requests"],
            [
                [f"<{point}", str(count)]
                for point, count in snapshots[0].top_points
            ],
        )
    out.append(
        "<h2>cache residency "
        f"({stats.cache_used_cells}/{stats.cache_budget_cells} cells)</h2>"
    )
    entries = sorted(
        server.cache.entries(), key=lambda e: (-e.size, e.point)
    )
    out += _html_table(
        ["<point", "cells", "hits", "priority"],
        [
            [
                f"<{server.lattice.describe(entry.point)}",
                str(entry.size),
                str(entry.hits),
                f"{entry.priority:.4e}",
            ]
            for entry in entries
        ],
    )
    out.append("</body></html>")
    return "\n".join(out)
