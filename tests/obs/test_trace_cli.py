"""Tests for the x3-trace explorer CLI (repro.obs.trace_cli)."""

import json

import pytest

from repro import cli, obs
from repro.obs import TraceSpan, chrome_trace_events
from repro.obs.trace_cli import (
    canonical_line,
    filter_traces,
    find_trace,
    load_traces,
    render_waterfall,
)
from repro.obs.trace_store import TraceStore


def main(argv):
    return cli.main(["trace", *argv])


@pytest.fixture
def trace_file(tmp_path):
    """A real store dump: three traces (ok / error / keyed fan-out)."""
    store = TraceStore(seed=21)
    with store.root("serve.query", category="serve") as root:
        with obs.span("serve.recompute", category="serve"):
            pass
        root.set_sim(0.002)
    with pytest.raises(RuntimeError):
        with store.root("cluster.query", category="cluster") as root:
            root.set_sim(0.009)
            raise RuntimeError("boom")
    with store.root("cluster.query", category="cluster") as root:
        for shard in range(3):
            with obs.span(
                "cluster.shard", key=f"s{shard}", shard=shard
            ):
                pass
        root.set_sim(0.004)
    path = tmp_path / "traces.jsonl"
    store.write_jsonl(str(path))
    return str(path)


class TestLoadAndFilter:
    def test_load_parses_every_line(self, trace_file):
        records = load_traces(trace_file)
        assert len(records) == 3
        assert all("trace_id" in record for record in records)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"trace_id": "a"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_traces(str(path))

    def test_load_rejects_non_trace_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"foo": 1}\n')
        with pytest.raises(ValueError, match="trace_id"):
            load_traces(str(path))

    def test_filter_by_status_name_retained(self, trace_file):
        records = load_traces(trace_file)
        assert len(filter_traces(records, status="error")) == 1
        assert len(filter_traces(records, name="cluster")) == 2
        retained = filter_traces(records, retained=True)
        assert [record["status"] for record in retained] == ["error"]

    def test_find_by_unique_prefix(self, trace_file):
        records = load_traces(trace_file)
        full = records[0]["trace_id"]
        assert find_trace(records, full[:8])["trace_id"] == full

    def test_find_unknown_prefix_raises(self, trace_file):
        with pytest.raises(ValueError, match="no trace"):
            find_trace(load_traces(trace_file), "zzzz")

    def test_find_ambiguous_prefix_raises(self, trace_file):
        with pytest.raises(ValueError, match="ambiguous"):
            find_trace(load_traces(trace_file), "")


class TestWaterfall:
    def test_renders_children_indented_under_the_root(self, trace_file):
        records = load_traces(trace_file)
        fanout = next(
            record
            for record in records
            if len(record["spans"]) == 4
        )
        text = render_waterfall(fanout)
        lines = text.split("\n")
        assert lines[0].startswith(f"trace {fanout['trace_id']}")
        assert "spans=4" in lines[0]
        shard_lines = [li for li in lines if "cluster.shard" in li]
        assert len(shard_lines) == 3
        root_line = next(
            li for li in lines[1:] if "cluster.query" in li
        )
        # children are indented deeper than the root
        root_indent = len(root_line.split("] ")[1]) - len(
            root_line.split("] ")[1].lstrip()
        )
        child_indent = len(shard_lines[0].split("] ")[1]) - len(
            shard_lines[0].split("] ")[1].lstrip()
        )
        assert child_indent > root_indent
        assert "shard=0" in text

    def test_error_status_flagged(self, trace_file):
        records = load_traces(trace_file)
        bad = next(r for r in records if r["status"] == "error")
        assert "[ERROR]" in render_waterfall(bad)

    def test_empty_trace_renders_header_only(self):
        text = render_waterfall(
            {"trace_id": "t", "name": "r", "status": "ok", "spans": []}
        )
        assert text.startswith("trace t")
        assert "\n" not in text


class TestChromeConversion:
    def test_span_records_carry_remapped_ids(self, trace_file):
        """(Named for the converter it used to pin.)  A dumped span
        loads back into the one record type with its ids as dumped."""
        records = load_traces(trace_file)
        fanout = next(r for r in records if len(r["spans"]) == 4)
        spans = [
            TraceSpan.from_dict(span, thread="lane")
            for span in fanout["spans"]
        ]
        assert [span.to_dict() for span in spans] == fanout["spans"]
        root = next(s for s in spans if s.parent_id == "")
        children = [s for s in spans if s.parent_id == root.span_id]
        assert len(children) == 3
        assert all(s.thread == "lane" for s in spans)

    def test_non_ok_status_lands_in_attrs(self, trace_file):
        records = load_traces(trace_file)
        bad = next(r for r in records if r["status"] == "error")
        events = chrome_trace_events(
            [TraceSpan.from_dict(span) for span in bad["spans"]]
        )
        assert any(
            event["args"].get("status") == "error"
            for event in events
            if event["ph"] == "X"
        )


class TestMain:
    def test_list_table(self, trace_file, capsys):
        assert main(["list", trace_file]) == 0
        out = capsys.readouterr().out
        assert "3 trace(s)" in out
        assert "serve.query" in out

    def test_list_jsonl_is_canonical_and_deterministic(
        self, trace_file, capsys
    ):
        assert main(["list", trace_file, "--jsonl"]) == 0
        first = capsys.readouterr().out
        assert main(["list", trace_file, "--jsonl"]) == 0
        second = capsys.readouterr().out
        assert first == second
        for line in first.strip().split("\n"):
            decoded = json.loads(line)
            assert canonical_line(decoded) == line

    def test_list_filters_compose(self, trace_file, capsys):
        assert (
            main(["list", trace_file, "--status", "ok", "--name", "serve"])
            == 0
        )
        out = capsys.readouterr().out
        assert "1 trace(s)" in out

    def test_list_no_matches(self, trace_file, capsys):
        assert main(["list", trace_file, "--status", "deadline"]) == 0
        assert "no matching traces" in capsys.readouterr().out

    def test_show_waterfall(self, trace_file, capsys):
        records = load_traces(trace_file)
        prefix = records[0]["trace_id"][:10]
        assert main(["show", trace_file, prefix]) == 0
        assert "serve.recompute" in capsys.readouterr().out

    def test_show_chrome_out(self, trace_file, tmp_path, capsys):
        records = load_traces(trace_file)
        fanout = next(r for r in records if len(r["spans"]) == 4)
        out_path = tmp_path / "chrome.json"
        assert (
            main(
                [
                    "show",
                    trace_file,
                    fanout["trace_id"][:10],
                    "--chrome-out",
                    str(out_path),
                ]
            )
            == 0
        )
        document = json.loads(out_path.read_text())
        names = {
            event["name"]
            for event in document["traceEvents"]
            if event["ph"] == "X"
        }
        assert "cluster.shard" in names
        lanes = {
            event["args"]["name"]
            for event in document["traceEvents"]
            if event["ph"] == "M"
        }
        assert lanes == {f"trace-{fanout['trace_id'][:8]}"}

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["list", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_prefix_is_an_error(self, trace_file, capsys):
        assert main(["show", trace_file, "zzzz"]) == 1
        assert "no trace" in capsys.readouterr().err


class TestRequestLogs:
    """``x3 trace`` reads the request logs the tools write — one format
    with the traces, one one-span record per read or write."""

    COMMANDS = {
        "serve": ["serve", "--demo", "--requests", "12", "--log-jsonl"],
        "top": ["top", "--demo", "--requests", "12", "--log-jsonl"],
        "cluster": [
            "cluster", "--demo", "--requests", "12", "--shards", "2",
            "--writes", "2", "--chaos", "light", "--trace",
            "--trace-seed", "5", "--log-jsonl",
        ],
        "server": [
            "server", "--demo", "--clients", "1", "--requests", "12",
            "--log-jsonl",
        ],
    }

    @pytest.fixture(params=sorted(COMMANDS))
    def request_log(self, request, tmp_path, capsys):
        path = tmp_path / f"{request.param}.jsonl"
        assert cli.main([*self.COMMANDS[request.param], str(path)]) == 0
        capsys.readouterr()
        return request.param, str(path)

    def test_list_reads_every_record(self, request_log, capsys):
        tool, path = request_log
        records = load_traces(path)
        assert [record["seq"] for record in records] == list(
            range(len(records))
        )
        assert all(len(record["spans"]) == 1 for record in records)
        reads = "cluster.read" if tool == "cluster" else "serve.request"
        assert sum(record["name"] == reads for record in records) == 12
        assert main(["list", path]) == 0
        out = capsys.readouterr().out
        assert out.count(reads) == 12
        assert f"{len(records)} trace(s)" in out
        assert main(["list", path, "--jsonl"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            canonical_line(record) for record in records
        ]

    def test_show_renders_a_record(self, request_log, capsys):
        tool, path = request_log
        records = load_traces(path)
        last = records[-1]
        # Unsampled records have no trace id; ``show`` takes the seq.
        key = last["trace_id"] or str(last["seq"])
        assert main(["show", path, key]) == 0
        out = capsys.readouterr().out
        assert f"name={last['name']}" in out
        assert "spans=1" in out
        if tool == "cluster":
            sampled = next(r for r in records if r["trace_id"])
            assert main(["show", path, sampled["trace_id"][:12]]) == 0
            assert "cluster.read (cluster)" in capsys.readouterr().out
        else:
            assert "serve.request (serve)" in out and "cells=" in out
