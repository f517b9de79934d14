"""``x3 top`` — a live terminal dashboard over a cube-serving session.

Like ``top`` for the sound-source ladder: the tool replays the same
deterministic skewed workload as ``x3 serve`` against a
:class:`~repro.serve.server.CubeServer` and renders, per sliding
window, the latency quantiles (modeled and wall), hit ratio, eviction
churn and SLO burn rate, plus the tier breakdown, the hottest lattice
points and the cache residency table.

Two modes:

- one-shot (default): replay everything, print the final dashboard;
- ``--watch``: redraw the dashboard every ``--interval`` requests
  while the replay runs (ANSI clear between frames), ``top``-style.

``--html`` additionally writes the standalone HTML serving report
(:func:`format_serving_html`) and ``--jsonl`` dumps
the request log (one record per read or write, the JSONL ``x3 trace``
reads), so one command produces the artifacts CI attaches to a smoke
run.
"""

from __future__ import annotations

import sys
from html import escape
from typing import Callable, List, Optional

from repro.core.query import Query, QueryResult
from repro.obs.live import MAX_SAMPLES, WINDOW_QUANTILES, WindowSnapshot
from repro.serve.server import TIERS, CubeServer, ServeStats

#: ANSI "clear screen, cursor home" prefix used between watch frames.
CLEAR = "\x1b[2J\x1b[H"


def _bar(value: int, peak: int, width: int = 24) -> str:
    if peak <= 0 or value <= 0:
        return ""
    return "#" * max(1, int(width * value / peak))


def _cut_note(snap: WindowSnapshot) -> str:
    """What a window line adds when the sample cap cut the window."""
    if not snap.cut:
        return ""
    return (
        f" (last {snap.covered_seconds:.1f}s of {snap.window_seconds:g}s:"
        f" the telemetry keeps {MAX_SAMPLES} samples)"
    )


def _headline(stats: ServeStats) -> str:
    """The one-sentence summary both renderers open with."""
    return (
        f"version {stats.version}: {stats.requests} requests, "
        f"hit rate {stats.hit_rate:.0%}, modeled "
        f"{stats.modeled_cost_seconds:.4f}s vs cold "
        f"{stats.cold_cost_seconds:.4f}s "
        f"({stats.modeled_speedup:.1f}x), {stats.writes} writes"
    )


def render_dashboard(
    server: CubeServer,
    snapshots: Optional[List[WindowSnapshot]] = None,
    residency_rows: int = 10,
) -> str:
    """The full ``x3-top`` screen as a string (shared with tests and
    the HTML report)."""
    stats = server.stats()
    if snapshots is None:
        snapshots = server.telemetry.refresh_gauges()
    lines: List[str] = []
    lines.append(f"x3-top — cube serving @ {_headline(stats)}")
    lines.append("")
    header = (
        f"{'window':<8} {'req':>6} "
        + " ".join(f"{'p' + format(int(q * 100), '02d'):>9}" for q in WINDOW_QUANTILES)
        + f" {'hit%':>6} {'churn':>6} {'burn':>6}"
    )
    lines.append(header)
    for snap in snapshots:
        quantiles = " ".join(
            f"{snap.modeled_quantiles[q]:>9.2e}" for q in WINDOW_QUANTILES
        )
        lines.append(
            f"{format(snap.window_seconds, 'g') + 's':<8} "
            f"{snap.requests:>6} {quantiles} "
            f"{snap.hit_ratio:>6.0%} {snap.evictions:>6} "
            f"{snap.slo_burn_rate:>6.2f}" + _cut_note(snap)
        )
    lines.append("(modeled-latency quantiles; SLO burn = violating"
                 " fraction / error budget)")
    lines.append("")
    lines.append("ladder rungs")
    peak = max(stats.tiers.values(), default=0)
    for tier in TIERS:
        count = stats.tiers.get(tier, 0)
        if count:
            lines.append(
                f"  {tier:<12} {count:>6} {_bar(count, peak)}"
            )
    window = snapshots[0] if snapshots else None
    if window is not None and window.top_points:
        lines.append("")
        lines.append(
            f"hottest lattice points "
            f"({format(window.window_seconds, 'g')}s window)"
        )
        for point, count in window.top_points:
            lines.append(f"  {count:>6}  {point}")
    lines.append("")
    lines.append(
        f"cache residency: {stats.cache_used_cells}/"
        f"{stats.cache_budget_cells} cells, "
        f"{len(server.cache)} entries"
    )
    entries = sorted(
        server.cache.entries(), key=lambda e: (-e.size, e.point)
    )
    if entries:
        lines.append(
            f"  {'cells':>6} {'hits':>5} {'priority':>12}  point"
        )
        for entry in entries[:residency_rows]:
            lines.append(
                f"  {entry.size:>6} {entry.hits:>5} "
                f"{entry.priority:>12.4e}  "
                f"{server.lattice.describe(entry.point)}"
            )
        if len(entries) > residency_rows:
            lines.append(f"  ... {len(entries) - residency_rows} more")
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
        body = escape(text[1:] if left else text)
        attr = " class='l'" if left else ""
        return f"<{tag}{attr}>{body}</{tag}>"

    lines = ["<table>"]
    lines.append("<tr>" + "".join(cell("th", h) for h in headers) + "</tr>")
    for row in rows:
        lines.append("<tr>" + "".join(cell("td", c) for c in row) + "</tr>")
    lines.append("</table>")
    return lines


def format_serving_html(server: CubeServer) -> str:
    """A standalone HTML serving report: the ``x3-top`` dashboard as
    tables (windows, ladder rungs, hottest points, cache residency).

    No chart libraries and no external assets — the file is attached
    as a CI artifact and has to render anywhere.
    """
    stats = server.stats()
    snapshots = server.telemetry.refresh_gauges()
    out: List[str] = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        "<title>x3 serving report</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        "<h1>x3 serving report</h1>",
        f"<p>{escape(_headline(stats))}</p>",
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
                f"<{snap.window_seconds:g}s" + _cut_note(snap),
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


def watcher(
    server: CubeServer, interval: int
) -> Callable[[int, Query, QueryResult], None]:
    """The ``--watch`` replay hook: redraw every ``interval`` requests."""

    def redraw(index: int, query: Query, result: QueryResult) -> None:
        if (index + 1) % max(1, interval) == 0:
            sys.stdout.write(CLEAR + render_dashboard(server) + "\n")
            sys.stdout.flush()

    return redraw


def report(
    server: CubeServer,
    watch: bool,
    jsonl: Optional[str],
    html: Optional[str],
) -> None:
    """The final dashboard plus the ``--jsonl`` / ``--html`` artifacts."""
    if watch:
        sys.stdout.write(CLEAR)
    print(render_dashboard(server))
    if jsonl:
        written = server.events.write_jsonl(jsonl)
        print(f"wrote {written} records to {jsonl}")
    if html:
        with open(html, "w", encoding="utf-8") as handle:
            handle.write(format_serving_html(server))
        print(f"wrote HTML serving report to {html}")
