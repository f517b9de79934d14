"""The HTTP/JSON front door: stdlib transport over the CubeBackend API.

Layering, outermost first:

- :class:`X3HttpServer` — a ``ThreadingHTTPServer`` wrapper (one thread
  per connection, stdlib only) that owns a socket and delegates every
  request to the API core;
- :class:`X3Api` — the transport-independent core: route parsing, JSON
  decoding, auth, admission, error mapping.  ``handle()`` takes
  ``(method, path, body, headers)`` and returns an
  :class:`ApiResponse`, so tests (and the smoke replays) drive the complete
  request path without sockets;
- :class:`~repro.core.query.CubeBackend` — the only thing the API calls
  into.  A single :class:`~repro.serve.CubeServer` and a
  :class:`~repro.cluster.ClusterCoordinator` are interchangeable here.

Error taxonomy mapping (the 1:1 contract the errors module documents):
:class:`InvalidQuery` -> 400, unauthenticated -> 401,
:class:`UnknownCube` -> 404, :class:`StaleVersion` -> 409,
:class:`Overloaded` -> 429 (with ``Retry-After``).  The socket
transport adds 408 ``request_timeout`` for a body that does not arrive
within :data:`BODY_READ_TIMEOUT_S`, 411 ``length_required`` for a
``Transfer-Encoding`` body and 413 ``payload_too_large`` for a body over
:data:`MAX_BODY_BYTES`; what ``http.server`` refuses on its own (a
malformed request line, an over-long header line) is the same JSON
error envelope, never an HTML page.  Every response leaves in one
write on a ``TCP_NODELAY`` socket.

Admission control is a bounded concurrent-request budget
(:class:`AdmissionController`): the transport layer admits a request
before doing any work and releases on completion; when the budget is
exhausted the request is refused immediately with 429 rather than
queued without bound — load-shedding at the door, which is what keeps
tail latency bounded under overload.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core.query import CubeBackend, Query
from repro.errors import (
    InvalidQuery,
    Overloaded,
    QueryParseError,
    StaleVersion,
    UnknownCube,
    X3Error,
)
from repro.obs.live import SERVE_LATENCY_BUCKETS
from repro.obs.metrics import MetricsRegistry
from repro.obs.propagate import TRACEPARENT_HEADER
from repro.obs.trace_store import TraceStore
from repro.server.model import BoundCube, CubeCatalog

API_PREFIX = "/api/v1"

#: Largest request body the socket transport reads (1 MiB): a larger
#: declared ``Content-Length`` is refused with 413, its body unread.
MAX_BODY_BYTES = 1 << 20

#: Seconds a request body has to arrive in full once its headers have:
#: a slower body is answered with 408 and the connection closed.  Only
#: the body read is bounded; a keep-alive connection idles between
#: requests for as long as its client likes.
BODY_READ_TIMEOUT_S = 10.0

#: Backoff hint an overloaded server sends with its 429, in seconds.
RETRY_AFTER_SECONDS = 0.05

#: Route operation -> the Query kind it forces.
QUERY_OPS = {
    "aggregate": "aggregate",
    "drilldown": "drilldown",
    "cell": "cell",
    "slice": "slice",
    "dice": "dice",
}


class _Unauthorized(X3Error):
    """Missing or unknown bearer token (HTTP 401; internal)."""


@dataclass(frozen=True)
class ApiResponse:
    """One HTTP response, transport-agnostic."""

    status: int
    body: str
    content_type: str = "application/json"
    headers: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def json(
        cls,
        status: int,
        payload: Mapping[str, Any],
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> "ApiResponse":
        # No ``indent``: it forces the pure-Python encoder.  The default
        # ", " / ": " separators stay, so the wire differs from an
        # indented body only in whitespace.
        return cls(
            status=status,
            body=json.dumps(payload) + "\n",
            headers=headers,
        )

    @classmethod
    def error(
        cls,
        status: int,
        kind: str,
        message: str,
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> "ApiResponse":
        return cls.json(
            status,
            {"error": {"kind": kind, "message": message}},
            headers=headers,
        )


class AdmissionController:
    """A bounded concurrent-request budget (the backpressure valve).

    ``admit()`` either grants a slot for the duration of the request or
    raises :class:`Overloaded` immediately — no unbounded queueing, so
    an overloaded server sheds load with 429 + ``Retry-After`` instead
    of stacking latency.
    """

    def __init__(self, max_inflight: int = 64) -> None:
        if max_inflight <= 0:
            raise ValueError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        self.max_inflight = max_inflight
        self._lock = threading.Lock()
        self._inflight = 0
        self._admitted = 0
        self._rejected = 0
        self._peak = 0

    @contextmanager
    def admit(self) -> Iterator[None]:
        with self._lock:
            if self._inflight >= self.max_inflight:
                self._rejected += 1
                raise Overloaded(
                    f"admission queue full "
                    f"({self._inflight}/{self.max_inflight} in flight)",
                    retry_after_seconds=RETRY_AFTER_SECONDS,
                )
            self._inflight += 1
            self._admitted += 1
            self._peak = max(self._peak, self._inflight)
        try:
            yield
        finally:
            with self._lock:
                self._inflight -= 1

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "inflight": self._inflight,
                "admitted": self._admitted,
                "rejected": self._rejected,
                "peak_inflight": self._peak,
                "max_inflight": self.max_inflight,
            }


class TenantAuth:
    """Per-tenant bearer-token auth stub.

    With no tokens registered, auth is open and every request runs as
    the ``anonymous`` tenant (the single-user dev default).  With
    tokens, a request must carry ``Authorization: Bearer <token>`` for
    a known token; the resolved tenant labels the per-tenant request
    counters.
    """

    def __init__(self, tokens: Optional[Mapping[str, str]] = None) -> None:
        self._tokens = dict(tokens or {})

    @property
    def open(self) -> bool:
        return not self._tokens

    def authenticate(self, headers: Mapping[str, str]) -> str:
        if self.open:
            return "anonymous"
        header = ""
        for name, value in headers.items():
            if name.lower() == "authorization":
                header = value
                break
        scheme, _, token = header.partition(" ")
        if scheme.lower() != "bearer" or not token.strip():
            raise _Unauthorized(
                "missing bearer token (Authorization: Bearer <token>)"
            )
        tenant = self._tokens.get(token.strip())
        if tenant is None:
            raise _Unauthorized("unknown bearer token")
        return tenant


class X3Api:
    """The transport-independent HTTP API core.

    Args:
        catalog: the named-cube registry to serve.
        auth: tenant auth (default: open / anonymous).
        admission: the admission budget (default: 64 in flight).
        trace_store: optional distributed-tracing store.  When set,
            every request parses (or mints) a W3C ``traceparent``,
            binds the request root span around routing so backend spans
            nest under it, echoes the context in a ``traceparent``
            response header, and the store is served at
            ``GET /api/v1/traces[/{id}]``.

    :attr:`registry` is the front door's own metrics registry;
    ``/metrics`` exports it together with each distinct backend's
    telemetry registry, whose series are labelled ``cube="<name>"``
    (one ``# HELP`` / ``# TYPE`` per family).
    """

    def __init__(
        self,
        catalog: CubeCatalog,
        *,
        auth: Optional[TenantAuth] = None,
        admission: Optional[AdmissionController] = None,
        trace_store: Optional[TraceStore] = None,
    ) -> None:
        self.catalog = catalog
        self.auth = auth if auth is not None else TenantAuth()
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.registry = MetricsRegistry()
        self.trace_store = trace_store

    # ------------------------------------------------------------------
    # the single entry point
    # ------------------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> ApiResponse:
        """Serve one request; never raises (errors become responses).

        With a trace store attached, the request runs under a root span
        whose context comes from the incoming ``traceparent`` header
        when one parses (the upstream's sampling verdict is honored) or
        is freshly minted otherwise; the response always echoes the
        context back in a ``traceparent`` header.
        """
        headers = headers or {}
        store = self.trace_store
        if store is None:
            return self._handle(method, path, body, headers)
        traceparent = next(
            (
                value
                for name, value in headers.items()
                if name.lower() == TRACEPARENT_HEADER
            ),
            None,
        )
        with store.root(
            "http.request",
            category="http",
            traceparent=traceparent,
            method=method,
            path=path.split("?", 1)[0],
        ) as root:
            response = self._handle(method, path, body, headers)
            if root.enabled:
                root.annotate(status=response.status)
                if response.status >= 500:
                    root.set_status("error")
            return replace(
                response,
                headers=response.headers
                + ((TRACEPARENT_HEADER, root.traceparent),),
            )

    def _handle(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Mapping[str, str],
    ) -> ApiResponse:
        route = "unroutable"
        try:
            tenant = self.auth.authenticate(headers)
            route, response = self._route(method, path, body, tenant)
        except _Unauthorized as error:
            response = ApiResponse.error(401, "unauthorized", str(error))
        except Overloaded as error:
            response = ApiResponse.error(
                429,
                "overloaded",
                str(error),
                headers=(
                    (
                        "Retry-After",
                        f"{error.retry_after_seconds:.3f}",
                    ),
                ),
            )
        except QueryParseError as error:
            # X^3QL syntax errors: still a caller mistake (400), but a
            # distinct kind carrying the source position for editors.
            response = ApiResponse.json(
                400,
                {
                    "error": {
                        "kind": "parse_error",
                        "message": str(error),
                        "line": error.line,
                        "column": error.column,
                    }
                },
            )
        except InvalidQuery as error:
            response = ApiResponse.error(400, "invalid_query", str(error))
        except UnknownCube as error:
            response = ApiResponse.error(404, "unknown_cube", str(error))
        except StaleVersion as error:
            response = ApiResponse.error(409, "stale_version", str(error))
        except X3Error as error:
            response = ApiResponse.error(500, "internal", str(error))
        self.registry.counter(
            "x3_http_requests_total",
            route=route,
            status=str(response.status),
        ).inc()
        return response

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        tenant: str,
    ) -> Tuple[str, ApiResponse]:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            if method != "GET":
                return "metrics", self._method_not_allowed(method)
            return "metrics", self._metrics()
        if path == API_PREFIX + "/healthz":
            if method != "GET":
                return "healthz", self._method_not_allowed(method)
            return "healthz", self._healthz()
        if path == API_PREFIX + "/traces":
            if method != "GET":
                return "traces", self._method_not_allowed(method)
            return "traces", self._traces(None)
        if path.startswith(API_PREFIX + "/traces/"):
            if method != "GET":
                return "trace", self._method_not_allowed(method)
            trace_id = path[len(API_PREFIX + "/traces/"):]
            return "trace", self._traces(trace_id)
        if path == API_PREFIX + "/query":
            if method != "POST":
                return "query", self._method_not_allowed(method)
            with self.admission.admit():
                return "query", self._lang_query(body, tenant)
        if path == API_PREFIX + "/cubes":
            if method != "GET":
                return "cubes", self._method_not_allowed(method)
            return "cubes", ApiResponse.json(
                200, {"cubes": self.catalog.describe()}
            )
        if path.startswith(API_PREFIX + "/cubes/"):
            rest = path[len(API_PREFIX + "/cubes/"):]
            parts = rest.split("/")
            if len(parts) == 1:
                if method != "GET":
                    return "cube", self._method_not_allowed(method)
                bound = self.catalog.get(parts[0])
                return "cube", ApiResponse.json(200, bound.describe())
            if len(parts) == 2:
                name, op = parts
                if op in QUERY_OPS or op == "explain":
                    if method != "POST":
                        return op, self._method_not_allowed(method)
                    with self.admission.admit():
                        return op, self._query(name, op, body, tenant)
        return "unroutable", ApiResponse.error(
            404, "not_found", f"no route for {method} {path}"
        )

    @staticmethod
    def _method_not_allowed(method: str) -> ApiResponse:
        return ApiResponse.error(
            405, "method_not_allowed", f"method {method} not allowed"
        )

    # ------------------------------------------------------------------
    # the five query endpoints + explain
    # ------------------------------------------------------------------
    def _query(
        self, name: str, op: str, body: Optional[bytes], tenant: str
    ) -> ApiResponse:
        bound = self.catalog.get(name)
        payload = self._decode(body)
        query = self._build_query(bound, op, payload)
        if op == "explain":
            explanation = bound.backend.explain_query(query)
            return ApiResponse.json(200, explanation.to_dict())
        result = bound.backend.query(query)
        self.registry.counter(
            "x3_http_tenant_requests_total", tenant=tenant, cube=name
        ).inc()
        self.registry.histogram(
            "x3_http_query_modeled_seconds",
            buckets=SERVE_LATENCY_BUCKETS,
            kind=result.kind,
        ).observe(result.modeled_seconds)
        return ApiResponse.json(200, result.to_dict())

    @staticmethod
    def _decode(body: Optional[bytes]) -> Dict[str, Any]:
        if not body:
            return {}
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise InvalidQuery(f"request body is not JSON: {error}")
        if not isinstance(decoded, dict):
            raise InvalidQuery(
                f"request body must be a JSON object, got "
                f"{type(decoded).__name__}"
            )
        return decoded

    def _build_query(
        self, bound: BoundCube, op: str, payload: Dict[str, Any]
    ) -> Query:
        """The wire body to a :class:`Query`, resolving the logical
        model: ``group_by`` levels to a lattice point, dimension names
        in ``axis``/``filters`` to physical axes."""
        payload = dict(payload)
        group_by = payload.pop("group_by", None)
        if group_by is not None:
            if "point" in payload:
                raise InvalidQuery(
                    "pass either 'group_by' or 'point', not both"
                )
            if not isinstance(group_by, dict):
                raise InvalidQuery(
                    f"'group_by' must be an object of "
                    f"{{dimension: level}}, got "
                    f"{type(group_by).__name__}"
                )
            payload["point"] = bound.point_for(group_by)
        elif "point" not in payload:
            # No grouping at all: the apex (every dimension at "all").
            payload["point"] = bound.point_for({})
        kind = QUERY_OPS.get(op)
        if kind is not None:
            declared = payload.setdefault("kind", kind)
            if declared != kind:
                raise InvalidQuery(
                    f"body kind {declared!r} contradicts the "
                    f"/{op} endpoint"
                )
        axis = payload.get("axis")
        if isinstance(axis, str):
            payload["axis"] = bound.axis_for(axis)
        filters = payload.get("filters")
        if isinstance(filters, dict):
            payload["filters"] = {
                bound.axis_for(str(dim)): values
                for dim, values in filters.items()
            }
        return Query.from_dict(payload)

    # ------------------------------------------------------------------
    # the X^3QL text endpoint
    # ------------------------------------------------------------------
    def _lang_query(
        self, body: Optional[bytes], tenant: str
    ) -> ApiResponse:
        """``POST /api/v1/query``: one X^3QL statement as raw text (or
        JSON ``{"query": "..."}``), compiled against the catalog and
        answered by the cube's own backend.

        The response is the ordinary :class:`QueryResult` wire form
        plus the resolved ``cube`` and compiled ``query``, with the
        deterministic parse+compile cost folded into
        ``modeled_seconds`` (broken out as ``lang_modeled_seconds``).
        """
        # Imported lazily: repro.lang.compiler resolves names through
        # repro.server.model, so a module-level import would cycle
        # through this package's __init__.
        from repro.lang.compiler import CompiledDefinition, compile_text

        text = self._lang_text(body)
        compiled = compile_text(text, self.catalog)
        if isinstance(compiled, CompiledDefinition):
            # The FLWOR form defines a cube rather than querying one:
            # answer with the definition, not a cuboid.
            spec = compiled.spec
            return ApiResponse.json(
                200,
                {
                    "kind": "definition",
                    "fact_tag": spec.fact_tag,
                    "document": spec.document,
                    "axes": [axis.name for axis in spec.axes],
                    "lattice_points": spec.lattice().size(),
                    "flwor": spec.to_flwor(),
                    "lang_modeled_seconds": compiled.modeled_seconds,
                },
            )
        bound = self.catalog.get(compiled.cube)
        self.registry.counter(
            "x3_http_lang_statements_total",
            verb=compiled.statement.verb,
        ).inc()
        if compiled.explain:
            explanation = bound.backend.explain_query(compiled.query)
            payload = explanation.to_dict()
        else:
            result = bound.backend.query(compiled.query)
            self.registry.counter(
                "x3_http_tenant_requests_total",
                tenant=tenant,
                cube=compiled.cube,
            ).inc()
            self.registry.histogram(
                "x3_http_query_modeled_seconds",
                buckets=SERVE_LATENCY_BUCKETS,
                kind=result.kind,
            ).observe(result.modeled_seconds + compiled.modeled_seconds)
            payload = result.to_dict()
            payload["modeled_seconds"] = (
                result.modeled_seconds + compiled.modeled_seconds
            )
        payload["cube"] = compiled.cube
        payload["query"] = compiled.query.to_dict()
        payload["lang_modeled_seconds"] = compiled.modeled_seconds
        return ApiResponse.json(200, payload)

    @staticmethod
    def _lang_text(body: Optional[bytes]) -> str:
        """The request body to statement text: raw X^3QL, a JSON
        string, or a JSON object with a ``query`` field."""
        if not body:
            raise InvalidQuery(
                "POST /api/v1/query needs a body holding the "
                "statement text"
            )
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as error:
            raise QueryParseError(
                f"request body is not UTF-8: {error}"
            ) from None
        if text.lstrip()[:1] in ('{', '"'):
            try:
                decoded = json.loads(text)
            except json.JSONDecodeError:
                return text  # raw X^3QL, not JSON after all
            if isinstance(decoded, str):
                return decoded
            if isinstance(decoded, dict):
                query = decoded.get("query")
                if isinstance(query, str):
                    return query
                raise InvalidQuery(
                    "JSON body must carry the statement text in a "
                    "'query' string field"
                )
        return text

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def _distinct_backends(self) -> Iterator[Tuple[str, CubeBackend]]:
        """Every distinct backend once, under the first cube name that
        uses it (two cubes over one backend report it once)."""
        seen: Set[int] = set()
        for name in self.catalog.names():
            backend = self.catalog.get(name).backend
            if id(backend) not in seen:
                seen.add(id(backend))
                yield name, backend

    def _healthz(self) -> ApiResponse:
        """Per-backend shard/replica health."""
        backends = {
            name: backend.health()
            for name, backend in self._distinct_backends()
        }
        degraded = any(
            health["status"] != "ok" for health in backends.values()
        )
        return ApiResponse.json(
            200,
            {
                "status": "degraded" if degraded else "ok",
                "backends": backends,
            },
        )

    # ------------------------------------------------------------------
    # traces
    # ------------------------------------------------------------------
    def _traces(self, trace_id: Optional[str]) -> ApiResponse:
        store = self.trace_store
        if store is None:
            return ApiResponse.error(
                404,
                "not_found",
                "tracing is not enabled on this server",
            )
        if trace_id is not None:
            record = store.get(trace_id)
            if record is None:
                return ApiResponse.error(
                    404,
                    "not_found",
                    f"no retained trace {trace_id!r} (it may never "
                    f"have been sampled, or was ring-evicted)",
                )
            return ApiResponse.json(200, record.to_dict())
        exemplars = [
            {
                "cube": name,
                "tier": exemplar.tier,
                "bucket_le": exemplar.bucket_le,
                "trace_id": exemplar.trace_id,
                "modeled_seconds": exemplar.modeled_seconds,
            }
            for name, backend in self._distinct_backends()
            if backend.telemetry is not None
            for exemplar in backend.telemetry.exemplars()
        ]
        summaries = [
            {
                "trace_id": record.trace_id,
                "name": record.name,
                "status": record.status,
                "retained": record.retained,
                "sim_seconds": record.sim_seconds,
                "wall_seconds": record.wall_seconds,
                "spans": len(record.spans),
            }
            for record in store.traces()
        ]
        return ApiResponse.json(
            200,
            {
                "traces": summaries,
                "stats": store.stats(),
                "exemplars": exemplars,
            },
        )

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _metrics(self) -> ApiResponse:
        from repro.obs.export import prometheus_text

        if self.trace_store is not None:
            stats = self.trace_store.stats()
            self.registry.gauge("x3_trace_started_total").set(
                float(stats["started"])
            )
            self.registry.gauge("x3_trace_sampled_total").set(
                float(stats["sampled"])
            )
            self.registry.gauge("x3_trace_retained_total").set(
                float(stats["retained"])
            )
        labelled: List[Tuple[Dict[str, str], MetricsRegistry]] = []
        for name, backend in self._distinct_backends():
            telemetry = backend.telemetry
            if telemetry is not None:
                telemetry.refresh_gauges()
                labelled.append(({"cube": name}, telemetry.registry))
        return ApiResponse(
            status=200,
            body=prometheus_text(self.registry, labelled),
            content_type="text/plain; version=0.0.4",
        )


# ----------------------------------------------------------------------
# the socket transport
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """One connection; delegates everything to the owning API core.

    Every response, ``http.server``'s own refusals included, is one
    buffer (status line, headers, body) written once on a socket with
    Nagle's algorithm off: a response sent as two segments waits for
    the client's delayed ACK of the first.
    """

    server: "_Server"  # narrowed for mypy
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def __getattr__(self, name: str) -> Callable[[], None]:
        # ``http.server`` answers a method without a ``do_<METHOD>`` with
        # its own HTML 501: send every method to the API core instead,
        # which refuses a foreign one with its typed 405.
        if name.startswith("do_"):
            return self._dispatch
        raise AttributeError(name)

    def _dispatch(self) -> None:
        declared = (self.headers.get("Content-Length") or "0").strip()
        well_formed = declared.isascii() and declared.isdigit()
        encoding = self.headers.get("Transfer-Encoding")
        # A refused body is left unread, so nothing more can be read off
        # this connection: answer and hang up (sending ``Connection:
        # close`` makes the handler do so).
        hang_up = (("Connection", "close"),)
        if encoding is not None:
            response = ApiResponse.error(
                411,
                "length_required",
                f"Transfer-Encoding {encoding!r} is not supported: send "
                f"the body with a Content-Length",
                headers=hang_up,
            )
        elif not well_formed:
            response = ApiResponse.error(
                400,
                "invalid_query",
                f"Content-Length must be a non-negative integer, got "
                f"{declared!r}",
                headers=hang_up,
            )
        elif int(declared) > MAX_BODY_BYTES:
            response = ApiResponse.error(
                413,
                "payload_too_large",
                f"request body of {declared} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                headers=hang_up,
            )
        else:
            try:
                body = self._read_body(int(declared))
            except socket.timeout:
                response = ApiResponse.error(
                    408,
                    "request_timeout",
                    f"request body of {declared} bytes did not arrive "
                    f"within {BODY_READ_TIMEOUT_S:g} s",
                    headers=hang_up,
                )
            else:
                response = self.server.api.handle(
                    self.command, self.path, body, dict(self.headers.items())
                )
        self._respond(response)

    def send_error(
        self,
        code: int,
        message: Optional[str] = None,
        explain: Optional[str] = None,
    ) -> None:
        """What ``http.server`` refuses before :meth:`_dispatch` runs (a
        malformed request line, an over-long line, too many headers) as
        the API's typed JSON error, the status phrase in snake case as
        its kind, and hang up."""
        phrase = HTTPStatus(code).phrase
        detail = message or phrase
        if explain:
            detail = f"{detail}: {explain}"
        self._respond(
            ApiResponse.error(
                code,
                phrase.lower().replace("-", "_").replace(" ", "_"),
                detail,
                headers=(("Connection", "close"),),
            )
        )

    def _respond(self, response: ApiResponse) -> None:
        """Status line, headers and body as one buffer, in one write (the
        headers alone to a ``HEAD``)."""
        body = response.body.encode("utf-8")
        lines = [
            f"{self.protocol_version} {response.status} "
            f"{self.responses[response.status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(body)}",
        ]
        for name, value in response.headers:
            lines.append(f"{name}: {value}")
            if name.lower() == "connection" and value.lower() == "close":
                self.close_connection = True
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self.wfile.write(head if self.command == "HEAD" else head + body)

    def _read_body(self, length: int) -> Optional[bytes]:
        """The ``length``-byte body, all of it read within
        :data:`BODY_READ_TIMEOUT_S` or ``socket.timeout``.  The deadline
        covers the whole body, so a client dripping bytes cannot stretch
        it; a body cut short by the client hanging up is returned as far
        as it came.  The connection is blocking again afterwards."""
        if not length:
            return None
        deadline = time.monotonic() + BODY_READ_TIMEOUT_S
        chunks: List[bytes] = []
        try:
            while length:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise socket.timeout("request body deadline passed")
                self.connection.settimeout(left)
                chunk = self.rfile.read1(length)
                if not chunk:
                    break
                chunks.append(chunk)
                length -= len(chunk)
        finally:
            self.connection.settimeout(None)
        return b"".join(chunks)

    def log_message(self, format: str, *args: Any) -> None:
        """Silence the default stderr access log (metrics cover it)."""


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    api: X3Api


class X3HttpServer:
    """The socket front door: bind, serve in a daemon thread, close.

    Args:
        api: the API core to serve.
        host: bind address (default loopback).
        port: bind port; 0 (the default) picks a free one — read it
            back from :attr:`port`.
    """

    def __init__(
        self, api: X3Api, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.api = api
        self._httpd = _Server((host, port), _Handler)
        self._httpd.api = api
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    def start(self) -> "X3HttpServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="x3-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's foreground mode)."""
        self._httpd.serve_forever()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "X3HttpServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()
