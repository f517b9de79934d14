"""A deterministic closed-loop load generator for the HTTP front door.

``clients`` worker threads each run a *closed loop* against a live
:class:`~repro.server.http.X3HttpServer`: issue one request over a
persistent ``http.client`` connection, wait for the answer, record it,
issue the next.  The request mix is deterministic — client ``i`` draws
its point sequence from ``random.Random(seed + i)`` with the same
finer-biased weighting the serve replay uses — so the *modeled* latency
distribution the servers report is reproducible run to run; only the
wall-clock columns vary with the host.

Every response feeds three sinks:

- a :class:`LoadReport` with per-request records and latency quantiles
  on both time bases (only the modeled one repeats run to run);
- optionally a :class:`~repro.obs.live.LiveTelemetry` instance, each
  answer re-entering the standard serving-telemetry pipeline with the
  tier, point and seconds the response reported;
- optionally a JSON-Lines file (one record per request) for CI
  artifact upload.

429 responses (admission shed) are recorded, not retried: a closed
loop that retried rejected requests would hide the backpressure the
generator exists to measure.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.lattice import CubeLattice
from repro.obs.live import LiveTelemetry, percentile

#: Query-kind mix of one client loop, as (kind, weight) pairs — mostly
#: whole-cuboid reads with a tail of transformed reads, like dashboards.
KIND_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("aggregate", 6.0),
    ("slice", 2.0),
    ("dice", 1.0),
    ("explain", 1.0),
)


@dataclass(frozen=True)
class RequestRecord:
    """One request/response pair, as the generator saw it."""

    client: int
    index: int  #: position in this client's loop
    op: str
    point: str
    status: int
    wall_seconds: float
    modeled_seconds: float  #: server-reported; 0.0 for non-200s
    tier: str  #: server-reported resolving rung ("" for non-200s)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "client": self.client,
            "index": self.index,
            "op": self.op,
            "point": self.point,
            "status": self.status,
            "wall_seconds": self.wall_seconds,
            "modeled_seconds": self.modeled_seconds,
            "tier": self.tier,
        }


@dataclass(frozen=True)
class LoadReport:
    """The whole run, reduced: counts, errors, and latency quantiles."""

    clients: int
    requests: int
    statuses: Dict[int, int]
    modeled_quantiles: Dict[float, float]
    wall_quantiles: Dict[float, float]
    records: Tuple[RequestRecord, ...]

    @property
    def ok(self) -> int:
        return self.statuses.get(200, 0)

    @property
    def shed(self) -> int:
        return self.statuses.get(429, 0)

    def summary(self) -> str:
        status_text = ", ".join(
            f"{count}x{status}"
            for status, count in sorted(self.statuses.items())
        )
        return (
            f"{self.requests} requests from {self.clients} clients "
            f"({status_text}); modeled p95 "
            f"{self.modeled_quantiles[0.95] * 1e3:.3f}ms, wall p95 "
            f"{self.wall_quantiles[0.95] * 1e3:.3f}ms"
        )

    def write_jsonl(self, path: str) -> int:
        """One JSON line per request record; returns the line count."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record.to_dict()) + "\n")
        return len(self.records)


def sample_queries(
    lattice: CubeLattice, n: int, seed: int
) -> List[Tuple[str, str, Dict[str, Any]]]:
    """A deterministic request plan: ``n`` (op, point, body) triples.

    Points are drawn finer-biased exactly like the serve replay
    (dashboards hammer detailed cuboids); the op mix follows
    :data:`KIND_WEIGHTS`.  Slice/dice operands are drawn from the
    point's kept axes, falling back to ``aggregate`` at points with
    none (the apex has nothing to slice).
    """
    points = lattice.topo_finer_first()
    rng = random.Random(seed)
    point_weights = [1.0 / (rank + 1) for rank in range(len(points))]
    ops = [kind for kind, _ in KIND_WEIGHTS]
    op_weights = [weight for _, weight in KIND_WEIGHTS]
    plan: List[Tuple[str, str, Dict[str, Any]]] = []
    for _ in range(n):
        point = rng.choices(points, weights=point_weights, k=1)[0]
        op = rng.choices(ops, weights=op_weights, k=1)[0]
        described = lattice.describe(point)
        body: Dict[str, Any] = {"point": described}
        kept = lattice.kept_axes(point)
        if op in ("slice", "dice") and not kept:
            op = "aggregate"
        elif op == "slice":
            axis = lattice.axes[rng.choice(kept)].name
            body["axis"] = axis
            body["value"] = "__loadgen__"  # empty slice: cost, no rows
        elif op == "dice":
            axis = lattice.axes[rng.choice(kept)].name
            body["filters"] = {axis: ["__loadgen__"]}
        plan.append((op, described, body))
    return plan


class LoadGenerator:
    """Drive a live front door with concurrent closed-loop clients.

    Args:
        host: server host.
        port: server port.
        cube: catalog name of the cube to query.
        lattice: the cube's lattice (for the deterministic point mix).
        clients: concurrent closed loops.
        requests_per_client: loop length per client.
        seed: base seed; client ``i`` uses ``seed + i``.
        token: bearer token sent with every request (when set).
        telemetry: optional live-telemetry sink each 200 feeds.
        clock: wall-time source (injectable for tests).
    """

    def __init__(
        self,
        host: str,
        port: int,
        cube: str,
        lattice: CubeLattice,
        *,
        clients: int = 4,
        requests_per_client: int = 25,
        seed: int = 17,
        token: Optional[str] = None,
        telemetry: Optional[LiveTelemetry] = None,
        timeout_seconds: float = 30.0,
    ) -> None:
        if clients <= 0 or requests_per_client <= 0:
            raise ValueError(
                "clients and requests_per_client must be positive"
            )
        self.host = host
        self.port = port
        self.cube = cube
        self.lattice = lattice
        self.clients = clients
        self.requests_per_client = requests_per_client
        self.seed = seed
        self.token = token
        self.telemetry = telemetry
        self.timeout_seconds = timeout_seconds

    # ------------------------------------------------------------------
    def run(self) -> LoadReport:
        """Run every client loop to completion and reduce the records."""
        results: List[List[RequestRecord]] = [
            [] for _ in range(self.clients)
        ]
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(client, results[client]),
                name=f"x3-loadgen-{client}",
            )
            for client in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = tuple(
            record for client in results for record in client
        )
        statuses: Dict[int, int] = {}
        for record in records:
            statuses[record.status] = statuses.get(record.status, 0) + 1
        modeled = [
            r.modeled_seconds for r in records if r.status == 200
        ]
        walls = [r.wall_seconds for r in records if r.status == 200]
        quantiles = (0.50, 0.95, 0.99)
        return LoadReport(
            clients=self.clients,
            requests=len(records),
            statuses=statuses,
            modeled_quantiles={
                q: percentile(modeled, q) for q in quantiles
            },
            wall_quantiles={q: percentile(walls, q) for q in quantiles},
            records=records,
        )

    # ------------------------------------------------------------------
    def _client_loop(
        self, client: int, out: List[RequestRecord]
    ) -> None:
        import time

        plan = sample_queries(
            self.lattice, self.requests_per_client, self.seed + client
        )
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_seconds
        )
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        try:
            for index, (op, point, body) in enumerate(plan):
                path = f"/api/v1/cubes/{self.cube}/{op}"
                started = time.monotonic()
                try:
                    connection.request(
                        "POST",
                        path,
                        body=json.dumps(body),
                        headers=headers,
                    )
                    response = connection.getresponse()
                    payload = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    # Connection-level failure: record and reconnect.
                    connection.close()
                    connection = http.client.HTTPConnection(
                        self.host,
                        self.port,
                        timeout=self.timeout_seconds,
                    )
                    out.append(
                        RequestRecord(
                            client=client,
                            index=index,
                            op=op,
                            point=point,
                            status=0,
                            wall_seconds=time.monotonic() - started,
                            modeled_seconds=0.0,
                            tier="",
                        )
                    )
                    continue
                wall = time.monotonic() - started
                record = self._record(
                    client, index, op, point, status, wall, payload
                )
                out.append(record)
                if (
                    self.telemetry is not None
                    and status == 200
                    and op != "explain"
                ):
                    self.telemetry.record(
                        record.tier or "recompute",
                        record.point,
                        record.modeled_seconds,
                        record.wall_seconds,
                    )
        finally:
            connection.close()

    def _record(
        self,
        client: int,
        index: int,
        op: str,
        point: str,
        status: int,
        wall: float,
        payload: bytes,
    ) -> RequestRecord:
        modeled = 0.0
        tier = ""
        if status == 200:
            try:
                decoded = json.loads(payload.decode("utf-8"))
                modeled = float(decoded.get("modeled_seconds", 0.0))
                tier = str(decoded.get("tier", ""))
            except (ValueError, UnicodeDecodeError):
                pass
        return RequestRecord(
            client=client,
            index=index,
            op=op,
            point=point,
            status=status,
            wall_seconds=wall,
            modeled_seconds=modeled,
            tier=tier,
        )
