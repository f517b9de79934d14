"""Unit tests for the x3-cluster CLI."""

import json

import pytest

from repro import cli
from repro.cluster.cli import parse_shards
from repro.datagen.publications import QUERY1_TEXT, figure1_document
from repro.errors import X3Error
from repro.obs.live import percentile
from repro.serve.replay import plan_writes
from repro.testing import small_workload
from repro.xmlmodel.serializer import serialize


def main(argv):
    return cli.main(["cluster", *argv])


@pytest.fixture()
def inputs(tmp_path):
    query_path = tmp_path / "query.xq"
    query_path.write_text(QUERY1_TEXT)
    data_path = tmp_path / "data.xml"
    data_path.write_text(serialize(figure1_document()))
    return str(query_path), str(data_path)


class TestHelpers:
    def test_parse_shards(self):
        assert parse_shards("1,2,4") == [1, 2, 4]
        assert parse_shards("8") == [8]

    @pytest.mark.parametrize("bad", ["", "0", "-1,2", "two"])
    def test_parse_shards_rejects(self, bad):
        with pytest.raises(X3Error):
            parse_shards(bad)

    def test_percentile(self):
        values = [float(n) for n in range(1, 101)]
        assert percentile(values, 0.50) == pytest.approx(50.0, abs=1.0)
        assert percentile(values, 0.95) == pytest.approx(95.0, abs=1.0)
        assert percentile([], 0.95) == 0.0

    def test_plan_writes_balanced_and_deterministic(self):
        rows = small_workload().fact_table().rows
        plan = plan_writes(rows, requests=60, writes=4)
        assert plan == plan_writes(rows, requests=60, writes=4)
        ops = [op for op, _ in plan.values()]
        assert ops.count("delete") == ops.count("insert")
        assert all(0 < position < 60 for position in plan)

    def test_plan_writes_empty(self):
        rows = small_workload().fact_table().rows
        assert plan_writes(rows, 50, 0) == {}
        assert plan_writes([], 50, 3) == {}


class TestReplay:
    def test_default_replay(self, inputs, capsys):
        query, data = inputs
        code = main(
            ["--query", query, data, "--requests", "30", "--shards", "1,2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 facts, 30 cuboids" in out
        assert "shards=1" in out and "shards=2" in out
        assert "throughput" in out and "p95" in out

    def test_replay_is_deterministic(self, inputs, capsys):
        query, data = inputs
        args = [
            "--query", query, data,
            "--requests", "25", "--shards", "2",
            "--chaos", "light", "--chaos-seed", "5",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_validate_against_serial_naive(self, inputs, capsys):
        query, data = inputs
        code = main(
            [
                "--query", query, data,
                "--requests", "40", "--shards", "2,4",
                "--writes", "2", "--chaos", "light",
                "--chaos-seed", "5", "--validate",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "validate: 40/40 answers match serial NAIVE" in out

    def test_chaos_summary_printed(self, inputs, capsys):
        query, data = inputs
        code = main(
            [
                "--query", query, data,
                "--requests", "30", "--shards", "2",
                "--chaos", "heavy", "--chaos-seed", "3",
            ]
        )
        assert code == 0
        assert "chaos[heavy seed=3]" in capsys.readouterr().out

    def test_log_jsonl(self, inputs, tmp_path, capsys):
        query, data = inputs
        log_path = tmp_path / "events.jsonl"
        code = main(
            [
                "--query", query, data,
                "--requests", "20", "--shards", "2",
                "--chaos", "light", "--log-jsonl", str(log_path),
            ]
        )
        assert code == 0
        lines = log_path.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        # One record per read, 20 reads and no writes.
        assert [r["name"] for r in records] == ["cluster.read"] * 20
        read = records[0]["spans"][0]["attrs"]
        assert len(read["versions"]) == 2
        # The chaos profile's decisions ride on the reads they degraded.
        kinds = {
            decision["kind"]
            for record in records
            for decision in record["spans"][0]["attrs"]["decisions"]
        }
        assert "failover" in kinds


class TestErrors:
    def test_bad_shards(self, inputs, capsys):
        query, data = inputs
        assert main(["--query", query, data, "--shards", "0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_query(self, inputs, capsys):
        _, data = inputs
        assert main(["--query", "/nonexistent.xq", data]) == 1
        assert "error" in capsys.readouterr().err
