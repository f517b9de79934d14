"""The ``x3-serve`` command line tool: serve cube queries over XML files.

Usage::

    x3-serve --query query.xq data.xml
    x3-serve --query query.xq data.xml --requests 200 --cache-cells 2048
    x3-serve --query query.xq data.xml --view-cells 512 --warm
    x3-serve --query query.xq data.xml --cuboid '$n:LND, $y:rigid'
    x3-serve --query query.xq data.xml --log-jsonl events.jsonl
    x3-serve explain --query query.xq data.xml --cuboid '$n:LND, $y:rigid'
    x3-serve explain --query query.xq data.xml --requests 100 --verify

Without ``--cuboid`` the tool replays a deterministic, skewed request
workload (``--requests`` samples over the lattice, biased towards fine
cuboids like real dashboards) against a :class:`repro.serve.CubeServer`
and reports the resolution-tier breakdown, cache behaviour and modeled
cost against cold recomputation.

The ``explain`` subcommand prints the sound-source ladder decision tree
for each query *without* executing it (DESIGN.md Sec. 5c); with
``--verify`` it then executes each query and fails when the recorded
rung in the request log disagrees with the explanation.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from repro.core.bindings import FactTable
from repro.core.cube import ENGINE_CHOICES, ExecutionOptions
from repro.core.extract import extract_fact_table
from repro.core.properties import PropertyOracle
from repro.core.query import Query
from repro.errors import InvalidQuery, X3Error
from repro.lang.compiler import parse_x3_query
from repro.serve.server import TIERS, CubeServer
from repro.xmlmodel.parser import parse_file


def add_workload_args(parser: argparse.ArgumentParser) -> None:
    """The arguments every serving tool shares (x3-serve, x3-top)."""
    parser.add_argument("files", nargs="+", help="XML input files")
    parser.add_argument(
        "--query", required=True, help="file holding the X^3 FLWOR text"
    )
    parser.add_argument(
        "--cache-cells",
        type=int,
        default=4096,
        help="cuboid cache budget in cells (default 4096; 0 disables)",
    )
    parser.add_argument(
        "--view-cells",
        type=int,
        default=0,
        help="materialized-view space budget in cells (default 0: no"
        " views)",
    )
    parser.add_argument(
        "--oracle",
        choices=("data", "none"),
        default="data",
        help="property oracle for sound roll-ups: 'data' measures the"
        " fact table, 'none' is pessimistic (no roll-up tier)",
    )
    parser.add_argument(
        "--warm",
        action="store_true",
        help="pre-fill the cache with the best-fitting cuboids",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=100,
        help="replayed requests (default 100)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="replay sampling seed (default 7)",
    )
    parser.add_argument(
        "--algorithm",
        default="NAIVE",
        help="recompute algorithm (default NAIVE)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="engine worker pool for recomputes (default 1)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help="execution engine for recomputes (default auto)",
    )


def load_table(args: argparse.Namespace) -> FactTable:
    """Parse the query and documents into a fact table (X3Error on
    bad input, propagated to the caller's error handling)."""
    with open(args.query, "r", encoding="utf-8") as handle:
        query = parse_x3_query(handle.read())
    docs = [parse_file(path) for path in args.files]
    return extract_fact_table(docs, query)


def build_server(
    args: argparse.Namespace, table, telemetry=None
) -> CubeServer:
    """A CubeServer configured from the shared workload arguments."""
    oracle = (
        PropertyOracle.from_data(table) if args.oracle == "data" else None
    )
    server = CubeServer(
        table,
        oracle,
        options=ExecutionOptions(
            algorithm=args.algorithm,
            workers=args.workers,
            engine=args.engine,
        ),
        cache_cells=args.cache_cells,
        view_cells=args.view_cells,
        telemetry=telemetry,
    )
    return server


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="x3-serve",
        description=(
            "Serve X^3 cube queries (cache + views + sound roll-up + "
            "engine recompute) over XML files."
        ),
    )
    add_workload_args(parser)
    parser.add_argument(
        "--cuboid",
        action="append",
        metavar="DESC",
        help="serve and print one cuboid instead of replaying, e.g."
        " '$n:LND, $y:rigid'; repeatable",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="rows shown per printed cuboid (default 10)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="trace the serving session and print a span summary plus"
        " the per-rung breakdown from the request log",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="with --profile: write a Chrome trace_event JSON file",
    )
    parser.add_argument(
        "--log-jsonl",
        metavar="PATH",
        help="write the structured request/write event log as JSON"
        " Lines",
    )
    return parser


def build_explain_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="x3-serve explain",
        description=(
            "Print the sound-source ladder decision tree for queries "
            "without executing them (DESIGN.md Sec. 5c)."
        ),
    )
    add_workload_args(parser)
    parser.add_argument(
        "--cuboid",
        action="append",
        metavar="DESC",
        help="explain one cuboid query instead of the replay mix;"
        " repeatable",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="execute each query after explaining it and fail when the"
        " rung recorded in the request log disagrees",
    )
    return parser


def sample_points(lattice, n: int, seed: int) -> List:
    """A deterministic skewed request mix: finer points drawn more often
    (dashboards hammer detailed cuboids), with a long tail over the rest.
    """
    points = lattice.topo_finer_first()
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(len(points))]
    return rng.choices(points, weights=weights, k=n)


def _print_cuboid(server: CubeServer, description: str, top: int) -> None:
    result = server.query(Query(point=description))
    cuboid = result.as_cuboid()
    print(f"-- {result.point} ({len(cuboid)} groups)")
    rows = sorted(cuboid.items(), key=lambda item: (-item[1], item[0]))
    for key, value in rows[:top]:
        label = ", ".join(part if part is not None else "-" for part in key)
        print(f"   ({label}): {value:g}")
    if len(rows) > top:
        print(f"   ... {len(rows) - top} more")


def rung_breakdown(server: CubeServer) -> List[str]:
    """Per-rung lines from the request log: counts and both cost bases
    (so ``--profile`` output matches trace/event semantics)."""
    per_tier = {
        tier: {"requests": 0, "modeled": 0.0, "wall": 0.0}
        for tier in TIERS
    }
    for event in server.events.requests():
        slot = per_tier[event.tier]
        slot["requests"] += 1
        slot["modeled"] += event.modeled_seconds
        slot["wall"] += event.wall_seconds
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


def explain_main(argv: List[str]) -> int:
    """The ``x3-serve explain`` subcommand."""
    args = build_explain_parser().parse_args(argv)
    try:
        table = load_table(args)
        server = build_server(args, table)
        if args.warm:
            server.warm()
        if args.cuboid:
            queries = [
                server.resolve_point(description)
                for description in args.cuboid
            ]
        else:
            queries = sample_points(
                table.lattice, args.requests, args.seed
            )
    except (OSError, X3Error) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    mismatches = 0
    for point in queries:
        query = Query(point=point)
        explanation = server.explain_query(query)
        print(explanation.render())
        if args.verify:
            result = server.query(query)
            agrees = result.tier == explanation.tier
            mismatches += 0 if agrees else 1
            print(
                f"  executed -> {result.tier} "
                f"({'agrees' if agrees else 'MISMATCH'})"
            )
    if args.verify:
        print(
            f"verified {len(queries)} queries: "
            f"{len(queries) - mismatches} agree, {mismatches} mismatch"
        )
        return 1 if mismatches else 0
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explain":
        return explain_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.trace_out and not args.profile:
        print("error: --trace-out requires --profile", file=sys.stderr)
        return 1
    from repro import obs

    session = obs.trace() if args.profile else None
    tracer = session.__enter__() if session is not None else None
    try:
        try:
            table = load_table(args)
        except (OSError, X3Error) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

        try:
            server = build_server(args, table)
            if args.warm:
                warmed = server.warm()
                print(
                    f"warmed {len(warmed)} cuboids "
                    f"({server.cache.used_cells} cells)"
                )
            if args.cuboid:
                for description in args.cuboid:
                    try:
                        _print_cuboid(server, description, args.top)
                    except InvalidQuery as error:
                        print(
                            f"error: unknown cuboid {error}",
                            file=sys.stderr,
                        )
                        return 1
            else:
                for point in sample_points(
                    table.lattice, args.requests, args.seed
                ):
                    server.query(Query(point=point))
        except X3Error as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

        stats = server.stats()
        print(
            f"{len(table)} facts, {table.lattice.size()} cuboids, "
            f"cache {stats.cache_used_cells}/{stats.cache_budget_cells}"
            f" cells, {stats.view_points} views"
        )
        print(f"serve: {stats.summary()}")
        print(
            "tiers: "
            + ", ".join(
                f"{tier}={stats.tiers.get(tier, 0)}" for tier in TIERS
            )
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
        if args.log_jsonl:
            written = server.events.write_jsonl(args.log_jsonl)
            print(f"wrote {written} events to {args.log_jsonl}")
    finally:
        if session is not None:
            session.__exit__(None, None, None)

    if tracer is not None:
        print("rungs (from the request log):")
        for line in rung_breakdown(server):
            print(f"   {line}")
        report = tracer.trace()
        print("profile (top spans by wall time):")
        for line in report.summary(top=args.top).splitlines():
            print(f"   {line}")
        if args.trace_out:
            report.write_chrome(args.trace_out)
            print(f"wrote Chrome trace to {args.trace_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
