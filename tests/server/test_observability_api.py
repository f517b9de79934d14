"""Golden tests for the observability endpoints of the HTTP front door:
``/api/v1/healthz``, ``/api/v1/traces[/{id}]``, the ``traceparent``
request/response header, and the trace gauges on ``/metrics``."""

import json

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.core.extract import extract_fact_table
from repro.core.properties import PropertyOracle
from repro.datagen.publications import figure1_document, query1
from repro.obs.propagate import TRACEPARENT_HEADER
from repro.obs.trace_store import TraceStore
from repro.serve import CubeServer
from repro.server import CubeCatalog, LogicalCube, X3Api


def make_table():
    return extract_fact_table(figure1_document(), query1())


def make_api(backend, name="pubs", trace_store=None):
    catalog = CubeCatalog()
    catalog.register(
        LogicalCube.from_lattice(name, backend.lattice, measure="COUNT"),
        backend,
    )
    return X3Api(catalog, trace_store=trace_store)


@pytest.fixture()
def traced_api():
    table = make_table()
    store = TraceStore(seed=4)
    server = CubeServer(
        table, PropertyOracle.from_data(table), trace_store=store
    )
    return make_api(server, trace_store=store), store


def call(api, method, path, body=None, headers=None):
    encoded = (
        json.dumps(body).encode("utf-8") if body is not None else None
    )
    response = api.handle(method, path, encoded, headers)
    decoded = (
        json.loads(response.body)
        if response.content_type == "application/json"
        else response.body
    )
    return response, decoded


def aggregate(api, headers=None):
    return call(
        api,
        "POST",
        "/api/v1/cubes/pubs/aggregate",
        {"group_by": {}},
        headers,
    )


class TestHealthz:
    def test_single_server_golden(self):
        table = make_table()
        server = CubeServer(table, PropertyOracle.from_data(table))
        api = make_api(server)
        response, decoded = call(api, "GET", "/api/v1/healthz")
        assert response.status == 200
        assert decoded == {
            "status": "ok",
            "backends": {
                "pubs": {
                    "kind": "server",
                    "status": "ok",
                    "version": [0],
                }
            },
        }

    def test_cluster_reports_shard_and_replica_health(self):
        table = make_table()
        with ClusterCoordinator(
            table,
            2,
            2,
            oracle=PropertyOracle.from_data(table),
            hedge_deadline_seconds=None,
        ) as cluster:
            api = make_api(cluster)
            response, decoded = call(api, "GET", "/api/v1/healthz")
            assert response.status == 200
            assert decoded == {
                "status": "ok",
                "backends": {
                    "pubs": {
                        "kind": "cluster",
                        "status": "ok",
                        "shards": 2,
                        "replicas_per_shard": 2,
                        "healthy_replicas": 4,
                        "total_replicas": 4,
                        "lagging_replicas": 0,
                        "replica_health": [
                            [True, True],
                            [True, True],
                        ],
                        "version": [0, 0],
                    }
                },
            }

    def test_crashed_replica_degrades_the_report(self):
        table = make_table()
        with ClusterCoordinator(
            table,
            2,
            2,
            oracle=PropertyOracle.from_data(table),
            hedge_deadline_seconds=None,
        ) as cluster:
            cluster.shards[0][0].crash()
            api = make_api(cluster)
            response, decoded = call(api, "GET", "/api/v1/healthz")
            assert response.status == 200  # health is a report, not 503
            assert decoded["status"] == "degraded"
            backend = decoded["backends"]["pubs"]
            assert backend["status"] == "degraded"
            assert backend["healthy_replicas"] == 3
            assert backend["replica_health"][0] == [False, True]

    def test_whole_shard_down_reports_down(self):
        table = make_table()
        with ClusterCoordinator(
            table,
            2,
            2,
            oracle=PropertyOracle.from_data(table),
            hedge_deadline_seconds=None,
        ) as cluster:
            for replica in cluster.shards[1]:
                replica.crash()
            api = make_api(cluster)
            _, decoded = call(api, "GET", "/api/v1/healthz")
            assert decoded["backends"]["pubs"]["status"] == "down"
            assert decoded["status"] == "degraded"

    def test_body_is_pinned_for_both_backend_kinds(self):
        """Every key, in order, for a server and a cluster with one
        crashed and one lagging replica — the bodies ``X3Api`` served
        before each backend reported its own ``health()``."""
        table = make_table()
        server = CubeServer(table, None)
        with ClusterCoordinator(
            table, 2, 2, hedge_deadline_seconds=None
        ) as cluster:
            cluster.shards[0][0].crash()
            cluster.shards[1][1].apply("delete", [], defer=True)
            catalog = CubeCatalog()
            for name, backend in (
                ("sharded", cluster), ("single", server), ("alias", server)
            ):
                catalog.register(
                    LogicalCube.from_lattice(name, backend.lattice), backend
                )
            response = X3Api(catalog).handle("GET", "/api/v1/healthz")
        expected = {
            "status": "degraded",
            "backends": {
                # One entry per distinct backend, under the first cube
                # name (sorted) that uses it.
                "alias": {"kind": "server", "status": "ok", "version": [0]},
                "sharded": {
                    "kind": "cluster",
                    "status": "degraded",
                    "shards": 2,
                    "replicas_per_shard": 2,
                    "healthy_replicas": 3,
                    "total_replicas": 4,
                    "lagging_replicas": 1,
                    "replica_health": [[False, True], [True, True]],
                    "version": [0, 0],
                },
            },
        }
        assert response.body == json.dumps(expected) + "\n"

    def test_post_is_method_not_allowed(self):
        api = make_api(
            CubeServer(make_table(), None)
        )
        response, _ = call(api, "POST", "/api/v1/healthz")
        assert response.status == 405


class TestTraceparentHeader:
    def test_response_echoes_a_minted_context(self, traced_api):
        api, store = traced_api
        response, decoded = aggregate(api)
        assert response.status == 200
        header = dict(response.headers)[TRACEPARENT_HEADER]
        version, trace_hex, span_hex, flags = header.split("-")
        assert (version, flags) == ("00", "01")
        assert decoded["trace_id"] == trace_hex
        assert store.get(trace_hex) is not None

    def test_upstream_context_is_joined(self, traced_api):
        api, store = traced_api
        upstream_trace = "c" * 32
        upstream = f"00-{upstream_trace}-{'d' * 16}-01"
        response, decoded = aggregate(
            api, headers={"Traceparent": upstream}
        )
        assert decoded["trace_id"] == upstream_trace
        header = dict(response.headers)[TRACEPARENT_HEADER]
        assert header.split("-")[1] == upstream_trace
        record = store.get(upstream_trace)
        assert record is not None
        assert record.name == "http.request"

    def test_upstream_unsampled_verdict_is_honored(self, traced_api):
        api, store = traced_api
        upstream = f"00-{'c' * 32}-{'d' * 16}-00"
        response, decoded = aggregate(
            api, headers={TRACEPARENT_HEADER: upstream}
        )
        assert response.status == 200
        assert "trace_id" not in decoded
        assert dict(response.headers)[TRACEPARENT_HEADER].endswith("-00")
        assert store.traces() == ()

    def test_untraced_api_sends_no_header(self):
        api = make_api(CubeServer(make_table(), None))
        response, decoded = aggregate(api)
        assert TRACEPARENT_HEADER not in dict(response.headers)
        assert "trace_id" not in decoded


class TestTracesEndpoint:
    def test_list_carries_summaries_stats_and_exemplars(
        self, traced_api
    ):
        api, store = traced_api
        _, first = aggregate(api)
        response, decoded = call(api, "GET", "/api/v1/traces")
        assert response.status == 200
        # the list GET itself was traced too
        assert decoded["stats"]["started"] >= 2
        summaries = decoded["traces"]
        assert any(
            summary["trace_id"] == first["trace_id"]
            for summary in summaries
        )
        for summary in summaries:
            assert set(summary) == {
                "trace_id",
                "name",
                "status",
                "retained",
                "sim_seconds",
                "wall_seconds",
                "spans",
            }
        assert decoded["exemplars"]
        exemplar = decoded["exemplars"][0]
        assert exemplar["cube"] == "pubs"
        assert exemplar["trace_id"] == first["trace_id"]

    def test_get_single_trace_returns_the_span_tree(self, traced_api):
        api, _ = traced_api
        _, first = aggregate(api)
        response, decoded = call(
            api, "GET", f"/api/v1/traces/{first['trace_id']}"
        )
        assert response.status == 200
        assert decoded["trace_id"] == first["trace_id"]
        names = {span["name"] for span in decoded["spans"]}
        assert "http.request" in names
        assert "serve.request" in names
        roots = [
            span
            for span in decoded["spans"]
            if span["parent_id"] == ""
        ]
        assert len(roots) == 1
        assert roots[0]["name"] == "http.request"
        assert roots[0]["attrs"]["status"] == 200

    def test_unknown_trace_is_404(self, traced_api):
        api, _ = traced_api
        response, decoded = call(api, "GET", "/api/v1/traces/" + "f" * 32)
        assert response.status == 404
        assert decoded["error"]["kind"] == "not_found"
        assert "never have been sampled" in decoded["error"]["message"]

    def test_untraced_server_404s_the_endpoint(self):
        api = make_api(CubeServer(make_table(), None))
        response, decoded = call(api, "GET", "/api/v1/traces")
        assert response.status == 404
        assert decoded["error"]["kind"] == "not_found"


class TestTraceMetrics:
    def test_trace_gauges_exported_with_help_and_type(self, traced_api):
        api, _ = traced_api
        aggregate(api)
        response, text = call(api, "GET", "/metrics")
        assert response.status == 200
        for name in (
            "x3_trace_started_total",
            "x3_trace_sampled_total",
            "x3_trace_retained_total",
        ):
            assert f"# HELP {name} " in text
            assert f"# TYPE {name} gauge" in text
        # the aggregate plus the /metrics GET itself were both traced
        assert "x3_trace_started_total 2" in text
        assert "x3_trace_sampled_total 2" in text


class TestMetricsEndpoint:
    def test_two_cubes_one_family_header_and_distinct_series(self):
        """Each backend's telemetry registry names the same families; the
        scrape must still have one ``# HELP``/``# TYPE`` per family and
        no two samples with the same name and labels (a Prometheus
        parser rejects both), every backend series labelled by cube."""
        catalog = CubeCatalog()
        for name in ("pubs", "books"):
            table = make_table()
            server = CubeServer(table, PropertyOracle.from_data(table))
            catalog.register(
                LogicalCube.from_lattice(
                    name, server.lattice, measure="COUNT"
                ),
                server,
            )
        api = X3Api(catalog)
        for name in ("pubs", "books"):
            for _ in range(2):
                response, _ = call(
                    api,
                    "POST",
                    f"/api/v1/cubes/{name}/aggregate",
                    {"group_by": {}},
                )
                assert response.status == 200
        response, text = call(api, "GET", "/metrics")
        assert response.status == 200
        lines = text.splitlines()
        types = [line.split()[2] for line in lines if line[:6] == "# TYPE"]
        helps = [line.split()[2] for line in lines if line[:6] == "# HELP"]
        assert "x3_serve_requests_total" in types
        assert len(types) == len(set(types))
        assert sorted(helps) == sorted(types)
        samples = [line.split(" ")[0] for line in lines if line[0] != "#"]
        assert len(samples) == len(set(samples))
        for cube in ("pubs", "books"):
            assert any(
                sample.startswith("x3_serve_requests_total{")
                and f'cube="{cube}"' in sample
                for sample in samples
            )
        assert all(
            'cube="' in sample
            for sample in samples
            if sample.startswith("x3_serve_")
        )
