"""Tests for the deterministic closed-loop load generator."""

import pytest

from repro.core.extract import extract_fact_table
from repro.core.properties import PropertyOracle
from repro.datagen.publications import figure1_document, query1
from repro.obs.live import percentile
from repro.serve import CubeServer
from repro.serve.replay import logged_read_seconds
from repro.server import (
    CubeCatalog,
    LoadGenerator,
    LogicalCube,
    TenantAuth,
    X3Api,
    X3HttpServer,
)
from repro.server.loadgen import KIND_WEIGHTS, sample_queries


@pytest.fixture()
def table():
    return extract_fact_table(figure1_document(), query1())


def front_door(server, **api_kwargs):
    catalog = CubeCatalog()
    catalog.register(
        LogicalCube.from_lattice("pubs", server.lattice), server
    )
    return X3HttpServer(X3Api(catalog, **api_kwargs))


def drive(front, lattice, **options):
    return LoadGenerator(
        front.host, front.port, "pubs", lattice, **options
    ).run()


class TestSampleQueries:
    def test_deterministic_per_seed(self, table):
        first = sample_queries(table.lattice, 50, 11)
        again = sample_queries(table.lattice, 50, 11)
        other = sample_queries(table.lattice, 50, 12)
        assert first == again
        assert first != other

    def test_covers_the_kind_mix(self, table):
        plan = sample_queries(table.lattice, 200, 3)
        ops = {op for op, _, _ in plan}
        assert ops == {kind for kind, _ in KIND_WEIGHTS}

    def test_transform_ops_carry_operands(self, table):
        for op, _, body in sample_queries(table.lattice, 200, 5):
            if op == "slice":
                assert body["axis"].startswith("$")
                assert body["value"]
            elif op == "dice":
                assert body["filters"]


class TestLoadGenerator:
    def test_run_against_live_server(self, table):
        server = CubeServer(table, PropertyOracle.from_data(table))
        with front_door(server) as front:
            report = drive(
                front, table.lattice, clients=2, requests_per_client=10,
                seed=3,
            )
        assert report.requests == 20
        assert report.statuses == {200: 20}
        assert report.ok == 20 and report.shed == 0
        assert set(report.wall_quantiles) == {0.50, 0.95, 0.99}
        assert 0.0 < report.wall_quantiles[0.50]
        assert report.wall_quantiles[0.50] <= report.wall_quantiles[0.99]
        assert report.summary() == "20 requests from 2 clients (20x200)"
        # The backend holds the run's one record per served read, none
        # per explain, and one telemetry sample per read: nothing feeds
        # it a second time.
        reads = sum(
            op != "explain"
            for client in (0, 1)
            for op, _, _ in sample_queries(table.lattice, 10, 3 + client)
        )
        assert reads < 20
        assert len(server.events.named("serve.request")) == reads
        assert server.telemetry.snapshot().requests == reads

    def test_modeled_quantiles_reproducible_cold(self, table):
        """With a zero cache budget every request recomputes, so the
        modeled latency of each read depends only on its point — the
        quantiles of the backend's logged reads are identical run to
        run regardless of thread interleaving, and no read costs 0 s."""

        def one_run():
            server = CubeServer(
                table, PropertyOracle.from_data(table), cache_cells=0
            )
            with front_door(server) as front:
                report = drive(
                    front, table.lattice, clients=3, requests_per_client=8,
                    seed=7,
                )
            seconds = logged_read_seconds(server)
            assert seconds and min(seconds) > 0.0
            quantiles = {q: percentile(seconds, q) for q in (0.5, 0.95)}
            return report.statuses, quantiles

        first, second = one_run(), one_run()
        assert first == second
        assert first[0] == {200: 24}

    def test_sends_bearer_token(self, table):
        server = CubeServer(table, PropertyOracle.from_data(table))
        with front_door(server, auth=TenantAuth({"tok": "acme"})) as front:
            authed = drive(
                front, table.lattice, clients=1, requests_per_client=5,
                token="tok",
            )
            anonymous = drive(
                front, table.lattice, clients=1, requests_per_client=5
            )
        assert set(authed.statuses) == {200}
        assert set(anonymous.statuses) == {401}

    def test_unreachable_server_counts_status_zero(self, table):
        server = CubeServer(table, PropertyOracle.from_data(table))
        with front_door(server) as front:
            host, port = front.host, front.port
        report = LoadGenerator(
            host, port, "pubs", table.lattice, clients=1,
            requests_per_client=3,
        ).run()
        assert report.statuses == {0: 3}
        assert report.ok == 0
        assert report.wall_quantiles[0.95] == 0.0

    def test_rejects_nonpositive_shape(self, table):
        with pytest.raises(ValueError):
            LoadGenerator("h", 1, "c", table.lattice, clients=0)
        with pytest.raises(ValueError):
            LoadGenerator(
                "h", 1, "c", table.lattice, requests_per_client=0
            )
