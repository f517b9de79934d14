"""A deterministic closed-loop load generator for the HTTP front door.

``clients`` worker threads each run a *closed loop* against a live
:class:`~repro.server.http.X3HttpServer`: issue one request over a
persistent ``http.client`` connection, wait for the answer, issue the
next.  The request mix is deterministic — client ``i`` draws its point
sequence from ``random.Random(seed + i)`` with the same finer-biased
weighting the serve replay uses — so the *modeled* latency distribution
the backend logs is reproducible run to run; only the wall-clock
columns vary with the host.

The generator is a pure client: it keeps each request's status and
wall time, decodes no reply body and returns a :class:`LoadReport` of
per-status counts and wall-clock quantiles.  What a read cost on the
modeled time base is in the backend's request log
(:attr:`~repro.core.query.CubeBackend.events`, one record per served
read, none per ``explain``), which ``x3 server`` reads back.

429 responses (admission shed) are counted, not retried: a closed
loop that retried rejected requests would hide the backpressure the
generator exists to measure.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.lattice import CubeLattice
from repro.obs.live import percentile

#: Query-kind mix of one client loop, as (kind, weight) pairs — mostly
#: whole-cuboid reads with a tail of transformed reads, like dashboards.
KIND_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("aggregate", 6.0),
    ("slice", 2.0),
    ("dice", 1.0),
    ("explain", 1.0),
)


@dataclass(frozen=True)
class LoadReport:
    """The whole run as the clients saw it: counts and wall quantiles."""

    clients: int
    requests: int
    statuses: Dict[int, int]  #: HTTP status -> replies (0: no reply)
    wall_quantiles: Dict[float, float]  #: over the 200 replies

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
            f"({status_text})"
        )


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
        timeout_seconds: socket timeout of each client connection.
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
        self.timeout_seconds = timeout_seconds

    # ------------------------------------------------------------------
    def run(self) -> LoadReport:
        """Run every client loop to completion and reduce the replies."""
        results: List[List[Tuple[int, float]]] = [
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
        replies = [reply for client in results for reply in client]
        statuses: Dict[int, int] = {}
        for status, _ in replies:
            statuses[status] = statuses.get(status, 0) + 1
        walls = [wall for status, wall in replies if status == 200]
        return LoadReport(
            clients=self.clients,
            requests=len(replies),
            statuses=statuses,
            wall_quantiles={
                q: percentile(walls, q) for q in (0.50, 0.95, 0.99)
            },
        )

    # ------------------------------------------------------------------
    def _client_loop(
        self, client: int, out: List[Tuple[int, float]]
    ) -> None:
        """One closed loop: ``(status, wall seconds)`` per request into
        ``out``; status 0 is a connection-level failure."""
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
            for op, _, body in plan:
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
                    response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    # Connection-level failure: count it and reconnect.
                    connection.close()
                    connection = http.client.HTTPConnection(
                        self.host,
                        self.port,
                        timeout=self.timeout_seconds,
                    )
                    status = 0
                out.append((status, time.monotonic() - started))
        finally:
            connection.close()
