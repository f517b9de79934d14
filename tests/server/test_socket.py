"""End-to-end tests over the real socket transport.

The centerpiece is the concurrency bit-identity test: reader threads
hammer the HTTP front door while a writer ingests delta batches, and
every answer must equal a serial NAIVE recomputation over the table
rows *at the version the response reports* — the serving contract of
``repro.serve``, preserved verbatim across the HTTP boundary.
"""

import http.client
import io
import json
import select
import socket
import threading
from types import SimpleNamespace

import pytest

from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.incremental import split_rows
from repro.serve import CubeServer
from repro.server import CubeCatalog, LogicalCube, X3Api, X3HttpServer
from repro.server import http as http_module
from repro.server.http import MAX_BODY_BYTES
from repro.testing import small_workload

READERS = 3
REQUESTS_PER_READER = 30
WRITE_BATCHES = 6


def reference_cuboid(table, rows, point):
    snapshot = FactTable(table.lattice, list(rows), table.aggregate)
    result = compute_cube(
        snapshot, ExecutionOptions(algorithm="NAIVE", points=(point,))
    )
    return result.cuboids[point]


def groups_to_cuboid(groups):
    return {
        tuple(
            None if part is None else str(part) for part in group["key"]
        ): group["value"]
        for group in groups
    }


def http_post(host, port, path, body):
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request(
            "POST",
            path,
            body=json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        connection.close()


@pytest.fixture()
def stack():
    workload = small_workload(n_facts=60)
    table = workload.fact_table()
    initial, delta = split_rows(table, 0.5)
    live = FactTable(table.lattice, list(initial), table.aggregate)
    server = CubeServer(live, workload.oracle(table))
    catalog = CubeCatalog()
    catalog.register(
        LogicalCube.from_lattice("cube", live.lattice), server
    )
    front = X3HttpServer(X3Api(catalog))
    front.start()
    yield front, server, live, initial, delta
    front.close()


class TestSocketBasics:
    def test_get_catalog_over_socket(self, stack):
        front, *_ = stack
        connection = http.client.HTTPConnection(
            front.host, front.port, timeout=30
        )
        try:
            connection.request("GET", "/api/v1/cubes")
            response = connection.getresponse()
            assert response.status == 200
            decoded = json.loads(response.read().decode())
            assert decoded["cubes"][0]["name"] == "cube"
            # Persistent connection: a second request reuses it.
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            assert response.status == 200
            assert b"x3_http_requests_total" in response.read()
        finally:
            connection.close()

    def test_errors_cross_the_socket(self, stack):
        front, *_ = stack
        status, decoded = http_post(
            front.host,
            front.port,
            "/api/v1/cubes/nope/aggregate",
            {},
        )
        assert status == 404
        assert decoded["error"]["kind"] == "unknown_cube"


def read_to_hang_up(connection):
    """(head, body) of the one response the server sends before it must
    hang up: read to EOF."""
    chunks = []
    while True:
        chunk = connection.recv(65536)
        if not chunk:
            break
        chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return head.decode("latin-1"), body


class TestHostileContentLength:
    @staticmethod
    def raw_exchange(front, request):
        with socket.create_connection(
            (front.host, front.port), timeout=10
        ) as connection:
            connection.sendall(request)
            return read_to_hang_up(connection)

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_rejected_with_a_typed_400_and_the_server_survives(
        self, stack, length
    ):
        front, *_ = stack
        head, body = self.raw_exchange(
            front,
            (
                "POST /api/v1/cubes/cube/aggregate HTTP/1.1\r\n"
                "Host: x3\r\n"
                f"Content-Length: {length}\r\n"
                "\r\n"
                "{}"
            ).encode("ascii"),
        )
        status_line, *header_lines = head.split("\r\n")
        assert status_line.split()[1] == "400"
        assert "connection: close" in [
            line.lower() for line in header_lines
        ]
        error = json.loads(body.decode())["error"]
        assert error["kind"] == "invalid_query"
        assert "Content-Length" in error["message"]
        assert length in error["message"]
        self.assert_next_connection_is_served(front)

    def test_oversized_body_is_a_typed_413_without_reading_it(self, stack):
        """A declared length over the cap is refused before any body is
        read: the request below sends no body at all, so a server that
        tried to read it would block instead of answering."""
        front, *_ = stack
        declared = MAX_BODY_BYTES + 1
        head, body = self.raw_exchange(
            front,
            (
                "POST /api/v1/cubes/cube/aggregate HTTP/1.1\r\n"
                "Host: x3\r\n"
                f"Content-Length: {declared}\r\n"
                "\r\n"
            ).encode("ascii"),
        )
        status_line, *header_lines = head.split("\r\n")
        assert status_line.split()[1] == "413"
        assert "connection: close" in [
            line.lower() for line in header_lines
        ]
        error = json.loads(body.decode())["error"]
        assert error["kind"] == "payload_too_large"
        assert str(declared) in error["message"]
        self.assert_next_connection_is_served(front)

    @staticmethod
    def assert_next_connection_is_served(front):
        status, decoded = http_post(
            front.host,
            front.port,
            "/api/v1/cubes/cube/aggregate",
            {"point": "$m1:rigid, $m2:rigid, $m3:rigid"},
        )
        assert status == 200, decoded


AGGREGATE_BODY = json.dumps(
    {"point": "$m1:rigid, $m2:rigid, $m3:rigid"}
).encode("ascii")


def aggregate_head(length):
    return (
        "POST /api/v1/cubes/cube/aggregate HTTP/1.1\r\n"
        "Host: x3\r\n"
        f"Content-Length: {length}\r\n"
        "\r\n"
    ).encode("ascii")


class TestSlowBody:
    """A body that does not arrive within ``BODY_READ_TIMEOUT_S`` is a
    typed 408 and a hang-up; an idle keep-alive connection is not."""

    TIMEOUT_S = 0.2

    @pytest.fixture(autouse=True)
    def short_timeout(self, monkeypatch):
        monkeypatch.setattr(http_module, "BODY_READ_TIMEOUT_S", self.TIMEOUT_S)

    def assert_timed_out(self, head, body):
        status_line, *header_lines = head.split("\r\n")
        assert status_line.split()[1] == "408"
        assert "connection: close" in [line.lower() for line in header_lines]
        error = json.loads(body.decode())["error"]
        assert error["kind"] == "request_timeout"
        assert "100 bytes" in error["message"]

    def test_a_short_body_is_a_typed_408(self, stack):
        front, *_ = stack
        head, body = TestHostileContentLength.raw_exchange(
            front, aggregate_head(100) + b"{" * 10
        )
        self.assert_timed_out(head, body)
        TestHostileContentLength.assert_next_connection_is_served(front)

    def test_the_deadline_covers_the_whole_body(self, stack):
        """A byte every half timeout never lets one read wait the timeout
        out, yet the body as a whole misses its deadline: the 408 comes
        while the bytes are still dripping in."""
        front, *_ = stack
        with socket.create_connection(
            (front.host, front.port), timeout=10
        ) as connection:
            connection.sendall(aggregate_head(100))
            answered_while_dripping = False
            for _ in range(10):
                readable, _, _ = select.select(
                    [connection], [], [], self.TIMEOUT_S / 2
                )
                if readable:
                    answered_while_dripping = True
                    break
                connection.sendall(b" ")
            head, body = read_to_hang_up(connection)
        assert answered_while_dripping
        self.assert_timed_out(head, body)

    def test_an_idle_keep_alive_connection_is_still_served(self, stack):
        front, *_ = stack
        connection = http.client.HTTPConnection(
            front.host, front.port, timeout=10
        )
        sockets = []
        try:
            for _ in range(2):
                connection.request(
                    "POST", "/api/v1/cubes/cube/aggregate", body=AGGREGATE_BODY
                )
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                sockets.append(connection.sock)
                threading.Event().wait(3 * self.TIMEOUT_S)
        finally:
            connection.close()
        # Both requests went over the one connection.
        assert sockets[0] is not None and sockets[0] is sockets[1]


class RecordingWriter:
    """A handler's ``wfile`` that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)

    def flush(self):
        pass


def socketless_exchange(api, request):
    """Every write the handler makes to answer the raw ``request``,
    with no socket: the handler's streams are in-memory stand-ins."""
    handler = http_module._Handler.__new__(http_module._Handler)
    handler.server = SimpleNamespace(api=api)
    handler.connection = SimpleNamespace(settimeout=lambda _: None)
    handler.client_address = ("127.0.0.1", 0)
    handler.rfile = io.BytesIO(request)
    handler.wfile = RecordingWriter()
    handler.handle_one_request()
    return handler.wfile.writes


class TestOneWritePerResponse:
    """Status line, headers and body leave as one buffer: a response
    split in two segments stalls on the client's delayed ACK."""

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (aggregate_head(len(AGGREGATE_BODY)) + AGGREGATE_BODY, 200),
            (aggregate_head("abc"), 400),
            (aggregate_head(MAX_BODY_BYTES + 1), 413),
        ],
        ids=["200", "400", "413"],
    )
    def test_exactly_one_write(self, stack, request_bytes, status):
        front, *_ = stack
        (written,) = socketless_exchange(front.api, request_bytes)
        head, _, body = written.partition(b"\r\n\r\n")
        assert head.split()[1] == str(status).encode("ascii")
        assert f"Content-Length: {len(body)}".encode("ascii") in head
        json.loads(body)

    def test_the_accepted_socket_has_nagle_off(self, stack, monkeypatch):
        front, *_ = stack
        seen = []
        setup = http_module._Handler.setup

        def recording_setup(handler):
            setup(handler)
            seen.append(
                handler.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            )

        monkeypatch.setattr(http_module._Handler, "setup", recording_setup)
        status, _ = http_post(
            front.host, front.port, "/api/v1/cubes/cube/aggregate", {}
        )
        assert status == 200
        assert len(seen) == 1 and seen[0] != 0


class TestTransportRefusalsAreTyped:
    """Whatever the transport answers is the API's JSON error envelope:
    no ``http.server`` HTML page, and one response per request."""

    @staticmethod
    def assert_one_typed_error(front, request, status, kind):
        """The server's whole answer to ``request`` (it must hang up) is
        one JSON error response: its headers and its error."""
        head, body = TestHostileContentLength.raw_exchange(front, request)
        assert b"<html" not in body.lower()
        status_line, *header_lines = head.split("\r\n")
        assert status_line.split()[:2] == ["HTTP/1.1", str(status)]
        headers = dict(
            line.lower().split(": ", 1) for line in header_lines
        )
        assert headers["content-type"] == "application/json"
        # Nothing after the one response: no second, HTML answer.
        assert len(body) == int(headers["content-length"])
        return headers, json.loads(body)["error"]

    def test_a_chunked_body_is_a_typed_411_left_unread(self, stack):
        """The chunked request used to be served as if bodiless (a 200
        for a query nobody asked), and its chunk bytes then parsed as
        the next request."""
        front, *_ = stack
        headers, error = self.assert_one_typed_error(
            front,
            (
                "POST /api/v1/cubes/cube/aggregate HTTP/1.1\r\n"
                "Host: x3\r\n"
                "Transfer-Encoding: chunked\r\n"
                "\r\n"
            ).encode("ascii")
            + b"%x\r\n" % len(AGGREGATE_BODY)
            + AGGREGATE_BODY
            + b"\r\n0\r\n\r\n",
            411,
            "length_required",
        )
        assert headers["connection"] == "close"
        assert "chunked" in error["message"]
        TestHostileContentLength.assert_next_connection_is_served(front)

    @pytest.mark.parametrize("method", ["PUT", "DELETE"])
    def test_a_foreign_method_is_the_apis_405(self, stack, method):
        front, *_ = stack
        _, error = self.assert_one_typed_error(
            front,
            (
                f"{method} /api/v1/cubes/cube/aggregate HTTP/1.1\r\n"
                "Host: x3\r\n"
                "Content-Length: 0\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii"),
            405,
            "method_not_allowed",
        )
        assert method in error["message"]

    def test_head_gets_headers_only_and_the_connection_lives_on(self, stack):
        """A ``HEAD`` reaches the API like any method; its answer has no
        body, so the next request on the connection parses cleanly."""
        front, *_ = stack
        connection = http.client.HTTPConnection(
            front.host, front.port, timeout=10
        )
        try:
            connection.request("HEAD", "/api/v1/cubes")
            response = connection.getresponse()
            assert response.status == 405
            assert response.getheader("Content-Type") == "application/json"
            assert int(response.getheader("Content-Length")) > 0
            assert response.read() == b""
            first = connection.sock
            connection.request("GET", "/api/v1/cubes")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["cubes"][0]["name"] == "cube"
            assert connection.sock is first
        finally:
            connection.close()

    def test_an_over_long_header_line_is_a_typed_431(self, stack):
        front, *_ = stack
        headers, _ = self.assert_one_typed_error(
            front,
            b"GET /api/v1/cubes HTTP/1.1\r\nX-Big: "
            + b"a" * 70_000
            + b"\r\n\r\n",
            431,
            "request_header_fields_too_large",
        )
        assert headers["connection"] == "close"
        TestHostileContentLength.assert_next_connection_is_served(front)

    def test_a_garbage_request_line_is_a_typed_400(self, stack):
        front, *_ = stack
        headers, error = self.assert_one_typed_error(
            front, b"\x16\x03garbage\r\n\r\n", 400, "bad_request"
        )
        assert headers["connection"] == "close"
        assert "garbage" in error["message"]
        TestHostileContentLength.assert_next_connection_is_served(front)


class TestConcurrentBitIdentity:
    def test_http_answers_equal_serial_naive_at_their_version(
        self, stack
    ):
        front, server, live, initial, delta = stack
        lattice = live.lattice
        batch_size = max(1, len(delta) // WRITE_BATCHES)
        batches = [
            delta[start:start + batch_size]
            for start in range(0, len(delta), batch_size)
        ]
        rows_at = {0: list(initial)}
        for version, batch in enumerate(batches, start=1):
            rows_at[version] = rows_at[version - 1] + list(batch)

        points = [
            lattice.describe(point)
            for point in lattice.topo_finer_first()[:4]
        ]
        observed = [[] for _ in range(READERS)]
        writer_done = threading.Event()

        def read(reader):
            for index in range(REQUESTS_PER_READER):
                status, decoded = http_post(
                    front.host,
                    front.port,
                    "/api/v1/cubes/cube/aggregate",
                    {"point": points[(reader + index) % len(points)]},
                )
                assert status == 200, decoded
                observed[reader].append(
                    (
                        decoded["point"],
                        tuple(decoded["version"]),
                        groups_to_cuboid(decoded["groups"]),
                    )
                )

        def write():
            for batch in batches:
                server.insert(batch)
                threading.Event().wait(0.002)
            writer_done.set()

        threads = [
            threading.Thread(target=read, args=(reader,))
            for reader in range(READERS)
        ] + [threading.Thread(target=write)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert writer_done.is_set()

        versions_seen = set()
        for reader_records in observed:
            assert len(reader_records) == REQUESTS_PER_READER
            for described, version, cuboid in reader_records:
                assert len(version) == 1
                versions_seen.add(version[0])
                point = lattice.point_by_description(described)
                expected = reference_cuboid(
                    live, rows_at[version[0]], point
                )
                assert cuboid == expected, (described, version)
        # The replay straddled the writes: answers from more than one
        # version actually got checked.
        assert len(versions_seen) > 1, versions_seen

    def test_read_version_fences_over_http(self, stack):
        front, server, live, initial, delta = stack
        point = live.lattice.describe(live.lattice.topo_finer_first()[0])
        status, decoded = http_post(
            front.host,
            front.port,
            "/api/v1/cubes/cube/aggregate",
            {"point": point, "read_version": [1]},
        )
        assert status == 409
        server.insert(delta)
        status, decoded = http_post(
            front.host,
            front.port,
            "/api/v1/cubes/cube/aggregate",
            {"point": point, "read_version": [1]},
        )
        assert status == 200
        assert decoded["version"] == [1]
