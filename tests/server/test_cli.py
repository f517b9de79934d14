"""Unit tests for the x3-server CLI."""

import json

import pytest

from repro import cli
from repro.core.extract import extract_fact_table
from repro.core.query import Query
from repro.datagen.publications import (
    QUERY1_TEXT,
    figure1_document,
    query1,
    random_publications,
)
from repro.errors import X3Error
from repro.obs.live import percentile
from repro.serve import CubeServer
from repro.serve import server as server_module
from repro.server.cli import parse_tokens
from repro.server.loadgen import sample_queries
from repro.xmlmodel.serializer import serialize


def main(argv):
    return cli.main(["server", *argv])


@pytest.fixture()
def inputs(tmp_path):
    query_path = tmp_path / "query.xq"
    query_path.write_text(QUERY1_TEXT)
    data_path = tmp_path / "data.xml"
    data_path.write_text(serialize(figure1_document()))
    return str(query_path), str(data_path)


class TestLoadgenMode:
    def test_default_run_reports_and_exits_zero(self, inputs, capsys):
        query, data = inputs
        code = main(
            [
                "--query", query, data,
                "--clients", "2", "--requests", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "x3-server on http://127.0.0.1:" in out
        assert "serve backend" in out
        assert "loadgen: 16 requests from 2 clients" in out
        assert "16x200" in out
        assert "admission: 16 admitted, 0 rejected" in out
        assert "window:" in out

    def test_cluster_backend(self, inputs, capsys):
        query, data = inputs
        code = main(
            [
                "--query", query, data,
                "--backend", "cluster", "--shards", "2",
                "--replicas", "1",
                "--clients", "2", "--requests", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster backend" in out
        assert "modeled p95" in out
        # The cluster keeps no telemetry window: no line for one.
        assert "window:" not in out

    def test_log_jsonl_is_the_request_log(self, inputs, tmp_path, capsys):
        query, data = inputs
        target = tmp_path / "events.jsonl"
        code = main(
            [
                "--query", query, data,
                "--clients", "1", "--requests", "8", "--seed", "3",
                "--log-jsonl", str(target),
            ]
        )
        assert code == 0
        lattice = extract_fact_table(figure1_document(), query1()).lattice
        plan = sample_queries(lattice, 8, 3)
        reads = [point for op, point, _ in plan if op != "explain"]
        assert len(reads) < len(plan)  # the plan holds an explain
        assert f"wrote {len(reads)} records to {target}" in (
            capsys.readouterr().out
        )
        records = [
            json.loads(line) for line in target.read_text().splitlines()
        ]
        # One record per served read, in order, none per explain.
        assert [record["name"] for record in records] == [
            "serve.request"
        ] * len(reads)
        assert [
            record["spans"][0]["attrs"]["point"] for record in records
        ] == reads
        assert cli.main(["trace", "list", str(target)]) == 0
        assert f"{len(reads)} trace(s)" in capsys.readouterr().out

    def test_modeled_quantiles_cover_served_reads_only(
        self, tmp_path, capsys
    ):
        """With no cache every read recomputes, so each costs more
        than 0 s and depends only on its point.  The printed p95 is
        the one over the plan's reads; counting its ``explain`` replies
        as 0 s reads would print a lower one."""
        query_path = tmp_path / "query.xq"
        query_path.write_text(QUERY1_TEXT)
        data_path = tmp_path / "data.xml"
        data_path.write_text(serialize(random_publications(60, seed=7)))
        table = extract_fact_table(
            [random_publications(60, seed=7)], query1()
        )
        costs = CubeServer(table, cache_cells=0)
        plan = sample_queries(table.lattice, 20, 18)
        reads = [
            costs.query(Query(point=point)).modeled_seconds
            for op, point, _ in plan
            if op != "explain"
        ]
        zeros = [0.0] * (len(plan) - len(reads))
        expected = f"modeled p95 {percentile(reads, 0.95) * 1e3:.3f}ms"
        counted = f"modeled p95 {percentile(reads + zeros, 0.95) * 1e3:.3f}ms"
        assert min(reads) > 0.0 and expected != counted
        code = main(
            [
                "--query", str(query_path), str(data_path),
                "--cache-cells", "0",
                "--clients", "1", "--requests", "20", "--seed", "18",
            ]
        )
        assert code == 0
        (line,) = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("loadgen:")
        ]
        assert f"20 requests from 1 clients (20x200); {expected}" in line

    def test_loadgen_line_says_when_the_log_dropped_reads(
        self, inputs, capsys, monkeypatch
    ):
        monkeypatch.setattr(server_module, "LOG_CAPACITY", 4)
        query, data = inputs
        code = main(
            ["--query", query, data, "--clients", "1", "--requests", "8"]
        )
        assert code == 0
        assert (
            "(last 4 of 8 reads: the request log keeps 4 records)"
            in capsys.readouterr().out
        )

    def test_auth_token_drives_authenticated_loadgen(
        self, inputs, capsys
    ):
        query, data = inputs
        code = main(
            [
                "--query", query, data,
                "--auth-token", "s3cret=acme",
                "--clients", "1", "--requests", "5",
            ]
        )
        assert code == 0
        assert "5x200" in capsys.readouterr().out

    def test_custom_cube_name(self, inputs, capsys):
        query, data = inputs
        code = main(
            [
                "--query", query, data,
                "--cube-name", "pubs",
                "--clients", "1", "--requests", "4",
            ]
        )
        assert code == 0
        assert "cube 'pubs'" in capsys.readouterr().out


class TestLangMode:
    def test_round_trip_writes_the_artifacts(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        traces = tmp_path / "traces.jsonl"
        code = main(
            [
                "--demo", "--lang", "ROLLUP default BY n:detail",
                "--log-jsonl", str(events), "--trace-jsonl", str(traces),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "/api/v1/query -> 200" in out
        assert f"wrote 1 records to {events}" in out
        (record,) = [
            json.loads(line) for line in events.read_text().splitlines()
        ]
        assert record["name"] == "serve.request"
        assert traces.read_text().strip()


class TestErrors:
    def test_missing_query_file(self, inputs, capsys):
        _, data = inputs
        assert main(["--query", "/nope/query.xq", data]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_auth_token_format(self, inputs, capsys):
        query, data = inputs
        assert (
            main(["--query", query, data, "--auth-token", "nosep"]) == 1
        )
        assert "TOKEN=TENANT" in capsys.readouterr().err


class TestParseTokens:
    def test_empty_is_open(self):
        assert parse_tokens(None).open
        assert parse_tokens([]).open

    def test_pairs_register_tenants(self):
        auth = parse_tokens(["a=t1", "b=t2"])
        assert not auth.open
        assert auth.authenticate({"Authorization": "Bearer a"}) == "t1"

    def test_malformed_pair_raises(self):
        with pytest.raises(X3Error):
            parse_tokens(["="])
        with pytest.raises(X3Error):
            parse_tokens(["only-token="])
