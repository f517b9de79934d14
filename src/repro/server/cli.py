"""The ``x3-server`` command line tool: the HTTP front door.

Usage::

    x3-server --query query.xq data.xml
    x3-server --query query.xq data.xml --port 8311 --serve-forever
    x3-server --query query.xq data.xml --backend cluster --shards 4
    x3-server --query query.xq data.xml --clients 8 --requests 25 \\
        --latency-jsonl latency.jsonl
    x3-server --query query.xq data.xml --auth-token s3cret=acme

Boots a :class:`~repro.server.http.X3HttpServer` over either a single
:class:`~repro.serve.CubeServer` or a sharded
:class:`~repro.cluster.ClusterCoordinator` — both behind the same
:class:`~repro.core.query.CubeBackend` API — registers the cube in the
catalog under ``--cube-name``, then either serves in the foreground
(``--serve-forever``) or drives itself with the deterministic
closed-loop load generator and reports the latency distribution,
admission stats and per-status counts before shutting down.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.cluster.coordinator import ClusterCoordinator
from repro.core.bindings import FactTable
from repro.core.cube import ENGINE_CHOICES, ExecutionOptions
from repro.core.properties import PropertyOracle
from repro.core.query import CubeBackend
from repro.errors import X3Error
from repro.obs.live import LiveTelemetry
from repro.obs.trace_store import TraceStore
from repro.serve.cli import load_table
from repro.serve.server import CubeServer
from repro.server.http import (
    AdmissionController,
    TenantAuth,
    X3Api,
    X3HttpServer,
)
from repro.server.loadgen import LoadGenerator
from repro.server.model import CubeCatalog, LogicalCube


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="x3-server",
        description=(
            "Serve X^3 cube queries over HTTP/JSON (aggregate, "
            "drilldown, slice, dice, explain, /metrics) from either a "
            "single CubeServer or a sharded cluster."
        ),
    )
    parser.add_argument("files", nargs="+", help="XML input files")
    parser.add_argument(
        "--query", required=True, help="file holding the X^3 FLWOR text"
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default 0: pick a free one and print it)",
    )
    parser.add_argument(
        "--cube-name",
        default="default",
        help="catalog name of the served cube (default 'default')",
    )
    parser.add_argument(
        "--backend",
        choices=("serve", "cluster"),
        default="serve",
        help="single CubeServer or a sharded ClusterCoordinator",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=4,
        help="shard count for --backend cluster (default 4)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="replicas per shard for --backend cluster (default 2)",
    )
    parser.add_argument(
        "--cache-cells",
        type=int,
        default=4096,
        help="cuboid cache budget in cells (per replica on a cluster)",
    )
    parser.add_argument(
        "--oracle",
        choices=("data", "none"),
        default="data",
        help="property oracle for sound roll-ups (default data)",
    )
    parser.add_argument(
        "--algorithm",
        default="NAIVE",
        help="recompute algorithm (default NAIVE)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help="execution engine for recomputes (default auto)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission budget: concurrent requests before 429s",
    )
    parser.add_argument(
        "--auth-token",
        action="append",
        metavar="TOKEN=TENANT",
        help="register a bearer token for a tenant; repeatable. With "
        "none registered the server is open (anonymous tenant)",
    )
    parser.add_argument(
        "--lang",
        metavar="STMT",
        help="boot, POST the X^3QL statement to /api/v1/query over "
        "the live socket, print the round-trip and exit (smoke mode)",
    )
    parser.add_argument(
        "--serve-forever",
        action="store_true",
        help="serve in the foreground instead of running the load "
        "generator and exiting",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=4,
        help="load-generator closed-loop clients (default 4)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=25,
        help="load-generator requests per client (default 25)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=17,
        help="load-generator base seed (default 17)",
    )
    parser.add_argument(
        "--latency-jsonl",
        metavar="PATH",
        help="write one JSON line per load-generator request",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable distributed tracing (traceparent propagation, "
        "GET /api/v1/traces, x3-trace explorer input)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="head sampling rate in [0, 1] (default 1.0; tail "
        "retention keeps error/slow traces regardless)",
    )
    parser.add_argument(
        "--trace-seed",
        type=int,
        default=0,
        help="seed for deterministic trace/span id generation",
    )
    parser.add_argument(
        "--trace-jsonl",
        metavar="PATH",
        help="dump the retained traces as canonical JSONL on exit "
        "(implies --trace)",
    )
    return parser


def parse_tokens(pairs: Optional[List[str]]) -> TenantAuth:
    tokens: Dict[str, str] = {}
    for pair in pairs or []:
        token, sep, tenant = pair.partition("=")
        if not sep or not token or not tenant:
            raise X3Error(
                f"bad --auth-token {pair!r}; expected TOKEN=TENANT"
            )
        tokens[token] = tenant
    return TenantAuth(tokens)


def build_backend(
    args: argparse.Namespace,
    table: FactTable,
    trace_store: Optional[TraceStore] = None,
) -> CubeBackend:
    oracle = (
        PropertyOracle.from_data(table) if args.oracle == "data" else None
    )
    options = ExecutionOptions(
        algorithm=args.algorithm, engine=args.engine
    )
    if args.backend == "cluster":
        return ClusterCoordinator(
            table,
            args.shards,
            args.replicas,
            oracle=oracle,
            options=options,
            cache_cells=args.cache_cells,
            hedge_deadline_seconds=None,
            trace_store=trace_store,
        )
    return CubeServer(
        table,
        oracle,
        options=options,
        cache_cells=args.cache_cells,
        trace_store=trace_store,
    )


def build_trace_store(
    args: argparse.Namespace,
) -> Optional[TraceStore]:
    if not (args.trace or args.trace_jsonl):
        return None
    return TraceStore(
        sample_rate=args.trace_sample, seed=args.trace_seed
    )


def run_lang_smoke(
    front: X3HttpServer, args: argparse.Namespace
) -> int:
    """POST ``--lang`` X^3QL text at the live socket and print the
    round-trip: the end-to-end smoke CI runs against the text front
    door (real HTTP, not the in-process API core)."""
    import json
    from urllib.error import HTTPError
    from urllib.request import Request, urlopen

    url = f"http://{front.host}:{front.port}/api/v1/query"
    request = Request(
        url,
        data=args.lang.encode("utf-8"),
        headers={"Content-Type": "text/plain"},
        method="POST",
    )
    token = next(iter(args.auth_token or []), None)
    if token:
        request.add_header(
            "Authorization", f"Bearer {token.partition('=')[0]}"
        )
    try:
        with urlopen(request, timeout=30.0) as reply:
            payload = json.loads(reply.read().decode("utf-8"))
            status = reply.status
    except HTTPError as error:
        payload = json.loads(error.read().decode("utf-8"))
        status = error.code
    print(f"lang: POST {url} -> {status}")
    print(json.dumps(payload, indent=1))
    return 0 if status == 200 else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        auth = parse_tokens(args.auth_token)
        table = load_table(args)
    except (OSError, X3Error) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    try:
        trace_store = build_trace_store(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    backend = build_backend(args, table, trace_store)
    catalog = CubeCatalog()
    catalog.register(
        LogicalCube.from_lattice(
            args.cube_name,
            table.lattice,
            measure=table.aggregate.function.upper(),
            description=f"{len(table)} facts over "
            f"{table.lattice.size()} cuboids ({args.backend})",
        ),
        backend,
    )
    api = X3Api(
        catalog,
        auth=auth,
        admission=AdmissionController(args.max_inflight),
        trace_store=trace_store,
    )
    telemetry = LiveTelemetry()

    try:
        front = X3HttpServer(api, host=args.host, port=args.port)
        print(
            f"x3-server on http://{front.host}:{front.port} "
            f"({args.backend} backend, cube {args.cube_name!r}, "
            f"{len(table)} facts, {table.lattice.size()} cuboids)"
        )
        if args.lang:
            front.start()
            try:
                return run_lang_smoke(front, args)
            finally:
                front.close()
        if args.serve_forever:
            try:
                front.serve_forever()
            except KeyboardInterrupt:
                pass
            return 0
        front.start()
        try:
            token = next(iter(args.auth_token or []), None)
            generator = LoadGenerator(
                front.host,
                front.port,
                args.cube_name,
                table.lattice,
                clients=args.clients,
                requests_per_client=args.requests,
                seed=args.seed,
                token=token.partition("=")[0] if token else None,
                telemetry=telemetry,
            )
            report = generator.run()
        finally:
            front.close()
        print(f"loadgen: {report.summary()}")
        admission = api.admission.stats()
        print(
            f"admission: {admission['admitted']} admitted, "
            f"{admission['rejected']} rejected, peak "
            f"{admission['peak_inflight']}/"
            f"{admission['max_inflight']} in flight"
        )
        window = telemetry.snapshot()
        print(
            f"window: {window.requests} requests, hit ratio "
            f"{window.hit_ratio:.2f}, modeled p95 "
            f"{window.modeled_quantiles[0.95] * 1e3:.3f}ms"
        )
        if args.latency_jsonl:
            written = report.write_jsonl(args.latency_jsonl)
            print(
                f"wrote {written} latency records to "
                f"{args.latency_jsonl}"
            )
        if trace_store is not None:
            stats = trace_store.stats()
            print(
                f"tracing: {stats['started']} started, "
                f"{stats['sampled']} sampled, "
                f"{stats['retained']} tail-retained, "
                f"{stats['stored']} stored"
            )
            if args.trace_jsonl:
                count = trace_store.write_jsonl(args.trace_jsonl)
                print(
                    f"wrote {count} traces to {args.trace_jsonl}"
                )
        failed = sum(
            count
            for status, count in report.statuses.items()
            if status not in (200, 429)
        )
        return 1 if failed else 0
    finally:
        backend.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
