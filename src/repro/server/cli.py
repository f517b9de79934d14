"""What ``x3 server`` runs once its backend is built: the HTTP front
door.

Boots a :class:`~repro.server.http.X3HttpServer` over the catalog
``x3`` registered (a single :class:`~repro.serve.CubeServer` or a
sharded :class:`~repro.cluster.ClusterCoordinator` — both behind the
same :class:`~repro.core.query.CubeBackend` API), then either serves in
the foreground (``--serve-forever``), round-trips one X^3QL statement
(``--lang``) or drives itself with the deterministic closed-loop load
generator and reports before shutting down: per-status counts and wall
quantiles from the clients; modeled quantiles from the backend's
request log, as ``x3 cluster`` reads them; admission stats; the
backend's own telemetry window where it keeps one (a single server);
and with ``--log-jsonl`` that request log, one record per served read.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional

from repro.core.bindings import FactTable
from repro.core.query import CubeBackend
from repro.errors import X3Error
from repro.obs.live import percentile
from repro.obs.trace_cli import report_store
from repro.obs.trace_store import TraceStore
from repro.serve.replay import coverage_note, logged_read_seconds
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


def run_load(
    front: X3HttpServer,
    api: X3Api,
    backend: CubeBackend,
    args: argparse.Namespace,
) -> int:
    """Drive the booted front door with the load generator and report:
    the clients' counts and wall p95, the modeled p95 of the reads the
    backend logged, admission, and the backend's telemetry window."""
    front.start()
    try:
        token = next(iter(args.auth_token or []), None)
        report = LoadGenerator(
            front.host,
            front.port,
            args.cube_name,
            backend.lattice,
            clients=args.clients,
            requests_per_client=args.requests,
            seed=args.seed,
            token=token.partition("=")[0] if token else None,
        ).run()
    finally:
        front.close()
    latencies = logged_read_seconds(backend)
    # The front door takes no writes: every record the log got is a read.
    reads = backend.events.finished
    print(
        f"loadgen: {report.summary()}; modeled p95 "
        f"{percentile(latencies, 0.95) * 1e3:.3f}ms, wall p95 "
        f"{report.wall_quantiles[0.95] * 1e3:.3f}ms"
        + coverage_note(backend, len(latencies), reads)
    )
    admission = api.admission.stats()
    print(
        f"admission: {admission['admitted']} admitted, "
        f"{admission['rejected']} rejected, peak "
        f"{admission['peak_inflight']}/"
        f"{admission['max_inflight']} in flight"
    )
    if backend.telemetry is not None:
        window = backend.telemetry.snapshot()
        print(
            f"window: {window.requests} requests, hit ratio "
            f"{window.hit_ratio:.2f}, modeled p95 "
            f"{window.modeled_quantiles[0.95] * 1e3:.3f}ms"
        )
    failed = sum(
        count
        for status, count in report.statuses.items()
        if status not in (200, 429)
    )
    return 1 if failed else 0


def run(
    args: argparse.Namespace,
    table: FactTable,
    catalog: CubeCatalog,
    auth: TenantAuth,
    trace_store: Optional[TraceStore],
) -> int:
    """Boot the front door over ``catalog``, run the chosen mode, then
    write the ``--log-jsonl`` / ``--trace-jsonl`` artifacts."""
    api = X3Api(
        catalog,
        auth=auth,
        admission=AdmissionController(args.max_inflight),
        trace_store=trace_store,
    )
    front = X3HttpServer(api, host=args.host, port=args.port)
    print(
        f"x3-server on http://{front.host}:{front.port} "
        f"({args.backend} backend, cube {args.cube_name!r}, "
        f"{len(table)} facts, {table.lattice.size()} cuboids)"
    )
    backend = catalog.get(args.cube_name).backend
    if args.lang:
        front.start()
        try:
            status = run_lang_smoke(front, args)
        finally:
            front.close()
    elif args.serve_forever:
        try:
            front.serve_forever()
        except KeyboardInterrupt:
            pass
        status = 0
    else:
        status = run_load(front, api, backend, args)
    if args.log_jsonl:
        written = backend.events.write_jsonl(args.log_jsonl)
        print(f"wrote {written} records to {args.log_jsonl}")
    if trace_store is not None:
        report_store(trace_store, args.trace_jsonl)
    return status
