"""What ``x3 server`` runs once its backend is built: the HTTP front
door.

Boots a :class:`~repro.server.http.X3HttpServer` over the catalog
``x3`` registered (a single :class:`~repro.serve.CubeServer` or a
sharded :class:`~repro.cluster.ClusterCoordinator` — both behind the
same :class:`~repro.core.query.CubeBackend` API), then either serves in
the foreground (``--serve-forever``), round-trips one X^3QL statement
(``--lang``) or drives itself with the deterministic closed-loop load
generator and reports the latency distribution, admission stats and
per-status counts before shutting down.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional

from repro.core.bindings import FactTable
from repro.errors import X3Error
from repro.obs.live import LiveTelemetry
from repro.obs.trace_cli import report_store
from repro.obs.trace_store import TraceStore
from repro.server.http import (
    AdmissionController,
    TenantAuth,
    X3Api,
    X3HttpServer,
)
from repro.server.loadgen import LoadGenerator
from repro.server.model import CubeCatalog


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


def run(
    args: argparse.Namespace,
    table: FactTable,
    catalog: CubeCatalog,
    auth: TenantAuth,
    trace_store: Optional[TraceStore],
) -> int:
    """Boot the front door over ``catalog`` and run the chosen mode."""
    api = X3Api(
        catalog,
        auth=auth,
        admission=AdmissionController(args.max_inflight),
        trace_store=trace_store,
    )
    telemetry = LiveTelemetry()
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
        report_store(trace_store, args.trace_jsonl)
    failed = sum(
        count
        for status, count in report.statuses.items()
        if status not in (200, 429)
    )
    return 1 if failed else 0
