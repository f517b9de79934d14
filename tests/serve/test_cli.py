"""Unit tests for the x3-serve CLI."""

import json

import pytest

from repro import cli
from repro.obs.request_log import RequestLog
from repro.serve import TIERS
from repro.datagen.publications import QUERY1_TEXT, figure1_document
from repro.xmlmodel.serializer import serialize


def main(argv):
    return cli.main(["serve", *argv])


@pytest.fixture()
def inputs(tmp_path):
    query_path = tmp_path / "query.xq"
    query_path.write_text(QUERY1_TEXT)
    data_path = tmp_path / "data.xml"
    data_path.write_text(serialize(figure1_document()))
    return str(query_path), str(data_path)


class TestReplay:
    def test_default_replay(self, inputs, capsys):
        query, data = inputs
        assert main(["--query", query, data, "--requests", "50"]) == 0
        out = capsys.readouterr().out
        assert "4 facts, 30 cuboids" in out
        assert "50 requests" in out
        assert "hit rate" in out
        assert "tiers: cache=" in out

    def test_replay_is_deterministic(self, inputs, capsys):
        query, data = inputs
        args = ["--query", query, data, "--requests", "40", "--seed", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_tiny_cache_recomputes_more(self, inputs, capsys):
        query, data = inputs
        assert (
            main(
                [
                    "--query", query, data,
                    "--requests", "40", "--cache-cells", "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cache=0," in out.split("tiers: ")[1]

    def test_warm(self, inputs, capsys):
        query, data = inputs
        code = main(
            ["--query", query, data, "--requests", "30", "--warm"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warmed" in out
        assert "views" not in out


class TestCuboidMode:
    def test_prints_requested_cuboid(self, inputs, capsys):
        query, data = inputs
        code = main(
            [
                "--query", query, data,
                "--cuboid", "$n:LND, $p:LND, $y:rigid",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(2003): 2" in out

    def test_unknown_cuboid(self, inputs, capsys):
        query, data = inputs
        assert (
            main(["--query", query, data, "--cuboid", "$n:warp"]) == 1
        )
        assert "error:" in capsys.readouterr().err


class TestProfile:
    def test_profile_summary_and_trace(self, inputs, tmp_path, capsys):
        query, data = inputs
        target = tmp_path / "trace.json"
        code = main(
            [
                "--query", query, data, "--requests", "10",
                "--profile", "--trace-out", str(target),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile (top spans by wall time):" in out
        assert "serve.request" in out
        document = json.loads(target.read_text())
        assert any(
            event["ph"] == "X" and event["name"] == "serve.request"
            for event in document["traceEvents"]
        )

    def test_trace_out_requires_profile(self, inputs, capsys):
        query, data = inputs
        code = main(
            ["--query", query, data, "--trace-out", "/tmp/never.json"]
        )
        assert code == 1
        assert "--profile" in capsys.readouterr().err


class TestErrors:
    def test_missing_query_file(self, inputs, capsys):
        _, data = inputs
        assert main(["--query", "/nope/query.xq", data]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_xml(self, tmp_path, inputs, capsys):
        query, _ = inputs
        broken = tmp_path / "broken.xml"
        broken.write_text("<a><b></a>")
        assert main(["--query", query, str(broken)]) == 1

    def test_unknown_algorithm(self, inputs, capsys):
        """``serve`` takes no ``--algorithm`` at all: a usage error."""
        query, data = inputs
        with pytest.raises(SystemExit) as exit_info:
            main(["--query", query, data, "--algorithm", "WARP"])
        assert exit_info.value.code == 2


class TestEventLogExport:
    def test_log_jsonl_writes_one_line_per_request(
        self, inputs, tmp_path, capsys
    ):
        query, data = inputs
        target = tmp_path / "events.jsonl"
        code = main(
            [
                "--query", query, data, "--requests", "25",
                "--log-jsonl", str(target),
            ]
        )
        assert code == 0
        assert f"wrote 25 records to {target}" in capsys.readouterr().out
        lines = target.read_text().splitlines()
        assert len(lines) == 25
        records = [json.loads(line) for line in lines]
        assert [record["seq"] for record in records] == list(range(25))
        assert all(record["name"] == "serve.request" for record in records)
        assert all(
            sorted(record["spans"][0]["attrs"]["rungs"]) == sorted(TIERS)
            for record in records
        )


class TestProfileRungBreakdown:
    def test_profile_prints_rung_table(self, inputs, capsys):
        query, data = inputs
        code = main(
            ["--query", query, data, "--requests", "20", "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rungs (from the profile's serve.request spans):" in out
        breakdown = out.split(
            "rungs (from the profile's serve.request spans):"
        )[1]
        assert "cache" in breakdown
        assert "recompute" in breakdown
        assert "modeled_s" in breakdown


    def test_profile_counts_every_request_past_the_log_capacity(
        self, capsys
    ):
        """5 000 requests overflow the request log's 4 096-record ring;
        the table still counts every one, expensive rows included."""
        assert main(["--demo", "--requests", "5000", "--profile"]) == 0
        out = capsys.readouterr().out
        tiers = dict(
            pair.split("=")
            for pair in out.split("tiers: ")[1].splitlines()[0].split(", ")
        )
        table = out.split("\nrungs (")[1].split("profile (top spans")[0]
        rows = {
            line.split()[0]: line.split()[1]
            for line in table.splitlines()[2:]
        }
        assert rows == {
            tier: count for tier, count in tiers.items() if count != "0"
        }
        assert sum(int(count) for count in rows.values()) == 5000
        assert "recompute" in rows


class TestExplainSubcommand:
    def test_explain_single_cuboid(self, inputs, capsys):
        query, data = inputs
        code = main(
            [
                "explain", "--query", query, data,
                "--cuboid", "$n:LND, $p:LND, $y:rigid",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "explain cuboid $n:LND, $p:LND, $y:rigid" in out
        assert "-> recompute" in out
        assert "1. cache       x not resident" in out
        assert "DESIGN.md Sec. 5c" in out

    def test_explain_replay_verify_agrees(self, inputs, capsys):
        query, data = inputs
        code = main(
            [
                "explain", "--query", query, data,
                "--requests", "100", "--verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verified 100 queries: 100 agree, 0 mismatch" in out
        assert "MISMATCH" not in out

    def test_explain_verify_reads_the_recorded_trail(
        self, inputs, capsys, monkeypatch
    ):
        """--verify compares the explanation with the request log's
        record, every rung's reason included: a record whose trail
        differs is a mismatch even though the served tier agrees."""
        add = RequestLog.add

        def tampered(store, name, *args, **attrs):
            if name == "serve.request":
                attrs["rungs"] = dict(attrs["rungs"], rollup="tampered")
            add(store, name, *args, **attrs)

        monkeypatch.setattr(RequestLog, "add", tampered)
        query, data = inputs
        code = main(
            [
                "explain", "--query", query, data,
                "--requests", "5", "--verify",
            ]
        )
        assert code == 1
        assert "verified 5 queries: 0 agree, 5 mismatch" in (
            capsys.readouterr().out
        )

    def test_explain_warm_sees_cache(self, inputs, capsys):
        query, data = inputs
        code = main(
            [
                "explain", "--query", query, data, "--warm",
                "--cuboid", "$n:rigid, $p:rigid, $y:rigid",
            ]
        )
        assert code == 0
        assert "-> cache" in capsys.readouterr().out

    def test_explain_unknown_cuboid(self, inputs, capsys):
        query, data = inputs
        code = main(
            ["explain", "--query", query, data, "--cuboid", "$n:warp"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_explain_missing_query_file(self, inputs, capsys):
        _, data = inputs
        code = main(["explain", "--query", "/nope/query.xq", data])
        assert code == 1
        assert "error:" in capsys.readouterr().err
