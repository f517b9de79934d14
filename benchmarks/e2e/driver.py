"""The benchmark's one-client closed-loop driver.

``repro.server.loadgen.LoadGenerator`` has no writes, no X3QL text and
no single-connection mode, so the benchmark drives the program itself:
one thread issues an op, waits for the answer, issues the next — over
exactly one front door per workload:

========  ===========================================================
door      a read is
========  ===========================================================
serve     ``CubeServer.query(Query)`` in-process
api       ``X3Api.handle("POST", path, body, headers)`` in-process
http      the same request over one persistent loopback connection
cluster   ``ClusterCoordinator.query(Query)`` in-process
========  ===========================================================

Writes are ``backend.insert(rows)`` / ``backend.delete(rows)`` on every
door.  There is no generator thread pool and no second connection: the
only other threads are the program's own (the HTTP handler thread this
client keeps busy, the cluster's scatter pool).

``set_up`` is the program work from workload start to the first op; the
time it takes is ``setup_s``.  ``replay`` is one pass of the plan.
"""

from __future__ import annotations

import http.client
import json
import re
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster import ClusterCoordinator
from repro.core.bindings import FactTable, GroupKey
from repro.core.properties import PropertyOracle
from repro.core.query import QueryResult
from repro.obs.trace_store import TraceStore
from repro.serve import CubeServer
from repro.server.http import ApiResponse, X3Api, X3HttpServer
from repro.server.model import CubeCatalog, LogicalCube
from repro.warehouse import XmlWarehouse

from benchmarks.e2e.spans import SpanRecorder
from benchmarks.e2e.workloads import CUBE_NAME, Inputs, ReadOp, WriteOp

CLUSTER_SHARDS = 4
CLUSTER_REPLICAS = 2

_JSON_HEADERS = {"Content-Type": "application/json"}
_TEXT_HEADERS = {"Content-Type": "text/plain; charset=utf-8"}
_TIER = re.compile(r'"tier": "([a-z-]+)"')

#: One rendered op: span name, the public callable, its one argument.
Call = Tuple[str, Callable[[Any], Any], Any]


class Session:
    """The program, set up for one workload, behind its front door."""

    def __init__(
        self, inputs: Inputs, trace_store: Optional[TraceStore] = None
    ) -> None:
        self.inputs = inputs
        self.door = inputs.spec.door
        #: Attached to the server and the API when set (the ledger's
        #: ``obs.trace_store_overhead_ratio`` is the only user).
        self.trace_store = trace_store
        self.table: FactTable
        self.oracle: PropertyOracle
        self.backend: Any  # CubeServer | ClusterCoordinator
        self.api: Optional[X3Api] = None
        self.httpd: Optional[X3HttpServer] = None
        self.connection: Optional[http.client.HTTPConnection] = None
        #: Wall seconds of the cold ingest / of the whole set-up.
        self.ingest_s = 0.0
        self.setup_s = 0.0

    # ------------------------------------------------------------------
    # set-up: everything the program does before the first op
    # ------------------------------------------------------------------
    def set_up(self, spans: Optional[SpanRecorder] = None) -> "Session":
        """Cold ingest, backend construction, ``sizes()``/``warm()``,
        catalog + API + HTTP server start — timed as a whole
        (``setup_s``) and, for the ingest part, on its own
        (``ingest_s``).  With ``spans``, every step is also a span of
        request ``"setup"``."""
        inputs, spec = self.inputs, self.inputs.spec
        recorder = spans if spans is not None else SpanRecorder()
        started = time.perf_counter()

        def step(name: str, call: Callable[[], Any]) -> Any:
            with recorder.span(name, "setup"):
                return call()

        warehouse = XmlWarehouse()
        step("warehouse.add", lambda: warehouse.add(inputs.xml_text))
        cube_session = step(
            "warehouse.query", lambda: warehouse.query(inputs.x3_query)
        )
        self.ingest_s = time.perf_counter() - started
        self.table = cube_session.table
        self.oracle = PropertyOracle.from_flags(
            self.table.lattice, spec.disjoint, spec.coverage
        )
        if spec.door == "cluster":
            self.backend = step(
                "cluster.construct",
                lambda: ClusterCoordinator(
                    self.table,
                    CLUSTER_SHARDS,
                    CLUSTER_REPLICAS,
                    oracle=self.oracle,
                    cache_cells=inputs.cache_cells,
                    chaos=None,
                ),
            )
        else:
            server = step(
                "serve.construct",
                lambda: CubeServer(
                    self.table,
                    self.oracle,
                    cache_cells=inputs.cache_cells,
                    trace_store=self.trace_store,
                ),
            )
            self.backend = server
            step("serve.sizes", server.sizes)
            if spec.warm:
                step("serve.warm", server.warm)
        if spec.door in ("api", "http"):
            self.api = step("server.api.construct", self._build_api)
        if spec.door == "http":
            assert self.api is not None
            api = self.api
            self.httpd = step(
                "server.http.start", lambda: X3HttpServer(api).start()
            )
            self.connection = step("server.http.connect", self._connect)
        self.setup_s = time.perf_counter() - started
        return self

    def _build_api(self) -> X3Api:
        catalog = CubeCatalog()
        catalog.register(
            LogicalCube.from_lattice(
                CUBE_NAME, self.table.lattice, measure="COUNT"
            ),
            self.backend,
        )
        return X3Api(catalog, trace_store=self.trace_store)

    def _connect(self) -> http.client.HTTPConnection:
        assert self.httpd is not None
        connection = http.client.HTTPConnection(
            self.httpd.host, self.httpd.port, timeout=60.0
        )
        connection.connect()
        return connection

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.httpd is not None:
            self.httpd.close()
            self.httpd = None
        if self.door == "cluster":
            self.backend.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # rendering ops to the door's wire form (untimed)
    # ------------------------------------------------------------------
    def render(self, plan: Sequence[Any]) -> List[Call]:
        return [self._render(op) for op in plan]

    def _render(self, op: Any) -> Call:
        if isinstance(op, WriteOp):
            method = (
                self.backend.insert
                if op.op == "insert"
                else self.backend.delete
            )
            return (f"backend.{op.op}", method, list(op.rows))
        assert isinstance(op, ReadOp)
        if self.door == "serve":
            return ("serve.query", self.backend.query, op.query())
        if self.door == "cluster":
            return ("cluster.query", self.backend.query, op.query())
        request = render_request(op)
        if self.door == "api":
            return ("server.api.handle", self._handle, request)
        return ("server.http.roundtrip", self._roundtrip, request)

    def _handle(self, request: Tuple[str, bytes, Dict[str, str]]) -> Any:
        assert self.api is not None
        path, body, headers = request
        return self.api.handle("POST", path, body, headers)

    def _roundtrip(
        self, request: Tuple[str, bytes, Dict[str, str]]
    ) -> Tuple[int, bytes]:
        assert self.connection is not None
        path, body, headers = request
        self.connection.request("POST", path, body=body, headers=headers)
        response = self.connection.getresponse()
        return response.status, response.read()


def render_request(op: ReadOp) -> Tuple[str, bytes, Dict[str, str]]:
    """A read as an HTTP request: X3QL text on ``/api/v1/query`` or the
    JSON route of its kind."""
    if op.text:
        return (
            "/api/v1/query",
            render_x3ql(op).encode("utf-8"),
            _TEXT_HEADERS,
        )
    return (
        f"/api/v1/cubes/{CUBE_NAME}/{op.kind}",
        json.dumps(op.query().to_dict()).encode("utf-8"),
        _JSON_HEADERS,
    )


def render_x3ql(op: ReadOp) -> str:
    """A read as one X3QL navigation statement."""
    levels = []
    for part in op.described.split(", "):
        axis, _, label = part.partition(":")
        if label != "LND":  # unmentioned dimensions default to ``all``
            levels.append(f"{axis.lstrip('$')}:'{label}'")
    by = f" BY {', '.join(levels)}" if levels else ""
    axis = (op.axis or "").lstrip("$")
    if op.kind == "slice":
        return f"SLICE {CUBE_NAME} ON {axis} = '{op.values[0]}'{by}"
    if op.kind == "dice":
        allowed = ", ".join(f"'{value}'" for value in op.values)
        return f"DICE {CUBE_NAME}{by} WHERE {axis} IN ({allowed})"
    if op.kind == "cell":
        assert op.key is not None
        parts = ", ".join(
            "NULL" if part is None else f"'{part}'" for part in op.key
        )
        return f"CELL {CUBE_NAME} KEY ({parts}){by}"
    return f"ROLLUP {CUBE_NAME}{by}"


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One replay of the plan, slot by slot."""

    latencies: List[float]  #: wall seconds around the public call
    replies: List[Any]  #: the exception instance where the call raised
    call_spans: List[int]  #: span id of each call (traced passes only)
    wall: float = 0.0  #: first op issued → last reply, the loop included


def replay(
    calls: Sequence[Call],
    spans: Optional[SpanRecorder] = None,
    pass_index: int = 0,
) -> Pass:
    """Issue every op of one pass, one at a time, each timed around the
    public call alone.

    With ``spans``, each op also leaves a request span and, under it,
    the span of the call into the program."""
    clock = time.perf_counter
    done = Pass([], [], [])
    pass_started = clock()
    for slot, (name, call, argument) in enumerate(calls):
        opened = clock() if spans is not None else 0.0
        started = clock()
        try:
            reply = call(argument)
        except Exception as error:  # counted as a failed op by the caller
            reply = error
        ended = clock()
        done.latencies.append(ended - started)
        done.replies.append(reply)
        if spans is not None:
            request = f"p{pass_index}.{slot}"
            root = spans.add("request", request, opened, clock())
            done.call_spans.append(
                spans.add(name, request, started, ended, parent=root)
            )
    done.wall = clock() - pass_started
    return done


# ----------------------------------------------------------------------
# reading replies (untimed bookkeeping)
# ----------------------------------------------------------------------
def outcome(reply: Any) -> Tuple[bool, str]:
    """``(ok, tier)`` of one reply on any door.  Writes return a version
    and have no tier."""
    if isinstance(reply, Exception):
        return False, ""
    if isinstance(reply, QueryResult):
        return True, reply.tier
    if isinstance(reply, ApiResponse):
        return reply.status == 200, _tier(reply.body)
    if isinstance(reply, tuple) and isinstance(reply[1], bytes):
        status, body = reply
        return status == 200, _tier(body[:400].decode("utf-8", "replace"))
    return True, ""  # a write's new version token


def _tier(body: str) -> str:
    found = _TIER.search(body, 0, 400)
    return found.group(1) if found else ""


def payload(reply: Any) -> Any:
    """The answer a read returned, in the reference's shape: a
    ``{key: value}`` mapping, or a cell value."""
    if isinstance(reply, QueryResult):
        return reply.payload
    body = reply.body if isinstance(reply, ApiResponse) else reply[1]
    decoded = json.loads(body)
    if "groups" in decoded:
        groups: Dict[GroupKey, float] = {
            tuple(group["key"]): group["value"]
            for group in decoded["groups"]
        }
        return groups
    return decoded.get("value")
