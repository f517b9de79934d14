"""What ``x3 serve`` and ``x3 serve explain`` print.

``x3 serve`` replays a deterministic, skewed request workload (biased
towards fine cuboids like real dashboards) against a
:class:`repro.serve.CubeServer` and reports the resolution-tier
breakdown, cache behaviour and modeled cost against cold recomputation;
with ``--cuboid`` it serves and prints those cuboids instead.

``x3 serve explain`` prints the sound-source ladder decision tree for
each query *without* executing it (DESIGN.md Sec. 5c); with
``--verify`` it then executes each query and fails when the rung trail
the request log recorded disagrees with the explanation.

The parser, the backend construction and the replay loop are shared
with every other tool (:mod:`repro.cli`, :mod:`repro.serve.replay`).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.core.bindings import FactTable, GroupKey
from repro.core.lattice import LatticePoint
from repro.core.query import Query, QueryExplanation, QueryResult
from repro.obs.events import rung_reasons
from repro.obs.span import Trace
from repro.serve.replay import replay
from repro.serve.server import TIERS, CubeServer


def print_cuboid(
    label: str, cuboid: Mapping[GroupKey, float], top: int
) -> None:
    """One cuboid, largest groups first (``x3 cube`` prints the same)."""
    print(f"-- {label} ({len(cuboid)} groups)")
    rows = sorted(cuboid.items(), key=lambda item: (-item[1], item[0]))
    for key, value in rows[:top]:
        parts = ", ".join(part if part is not None else "-" for part in key)
        print(f"   ({parts}): {value:g}")
    if len(rows) > top:
        print(f"   ... {len(rows) - top} more")


def serve_cuboid(server: CubeServer, description: str, top: int) -> None:
    result = server.query(Query(point=description))
    print_cuboid(result.point, result.as_cuboid(), top)


def rung_breakdown(profile: Trace) -> List[str]:
    """Per-rung lines from a ``--profile`` session's ``serve.request``
    spans: counts and both cost bases.  The session keeps every span,
    so no request is missing the way the request log's bounded ring
    would miss the oldest."""
    per_tier = {
        tier: {"requests": 0, "modeled": 0.0, "wall": 0.0}
        for tier in TIERS
    }
    for span in profile.spans_named("serve.request"):
        slot = per_tier[span.attrs["tier"]]
        slot["requests"] += 1
        slot["modeled"] += span.sim_seconds
        slot["wall"] += span.wall_seconds
    lines = [
        f"{'rung':<12} {'requests':>8} {'modeled_s':>10} {'wall_s':>10}"
    ]
    for tier in TIERS:
        slot = per_tier[tier]
        if not slot["requests"]:
            continue
        lines.append(
            f"{tier:<12} {slot['requests']:>8.0f} "
            f"{slot['modeled']:>10.4f} {slot['wall']:>10.4f}"
        )
    return lines


def report(
    server: CubeServer, table: FactTable, log_jsonl: Optional[str]
) -> None:
    """The ``x3 serve`` session summary."""
    stats = server.stats()
    print(
        f"{len(table)} facts, {table.lattice.size()} cuboids, "
        f"cache {stats.cache_used_cells}/{stats.cache_budget_cells} cells"
    )
    print(f"serve: {stats.summary()}")
    print(
        "tiers: "
        + ", ".join(f"{tier}={stats.tiers.get(tier, 0)}" for tier in TIERS)
    )
    cache = stats.cache
    print(
        f"cache: {cache['hits']} hits, {cache['misses']} misses, "
        f"{cache['evictions']} evictions, "
        f"{cache['rejections']} rejections"
    )
    if stats.singleflight_shared:
        print(
            f"single-flight: {stats.singleflight_shared} deduplicated"
            f" of {stats.singleflight_led} computes"
        )
    if log_jsonl:
        written = server.events.write_jsonl(log_jsonl)
        print(f"wrote {written} records to {log_jsonl}")


def explain(
    server: CubeServer, points: Sequence[LatticePoint], verify: bool
) -> int:
    """Print each query's ladder; with ``verify`` also execute it and
    return 1 when the ``serve.request`` record it left disagrees with
    its explanation: a different rung, or any rung's reason."""
    explained: List[QueryExplanation] = []
    mismatches = 0

    def show(index: int, query: Query) -> None:
        explained.append(server.explain_query(query))
        print(explained[-1].render())

    def check(index: int, query: Query, result: QueryResult) -> None:
        nonlocal mismatches
        expected = explained[index]
        recorded = server.events.named("serve.request")[-1].spans[0].attrs
        agrees = recorded["tier"] == expected.tier and recorded[
            "rungs"
        ] == rung_reasons(expected.rungs)
        mismatches += 0 if agrees else 1
        print(
            f"  executed -> {recorded['tier']} "
            f"({'agrees' if agrees else 'MISMATCH'})"
        )

    if not verify:
        for index, point in enumerate(points):
            show(index, Query(point=point))
        return 0
    replay(server, points, before=show, after=check)
    print(
        f"verified {len(points)} queries: "
        f"{len(points) - mismatches} agree, {mismatches} mismatch"
    )
    return 1 if mismatches else 0
