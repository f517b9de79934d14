"""Tests for the x3-top dashboard (repro.serve.top) and its HTML twin."""

import json

import pytest

from repro import cli
from repro.datagen.publications import QUERY1_TEXT, figure1_document
from repro.obs.export import prometheus_text
from repro.obs.live import MAX_SAMPLES, LiveTelemetry
from repro.serve import CubeServer
from repro.serve.replay import sample_points
from repro.serve.top import format_serving_html, render_dashboard
from repro.testing import small_workload
from repro.xmlmodel.serializer import serialize
from tests.conftest import cuboid_of


def main(argv):
    return cli.main(["top", *argv])


@pytest.fixture()
def inputs(tmp_path):
    query_path = tmp_path / "query.xq"
    query_path.write_text(QUERY1_TEXT)
    data_path = tmp_path / "data.xml"
    data_path.write_text(serialize(figure1_document()))
    return str(query_path), str(data_path)


def served_workload():
    workload = small_workload(n_facts=60, seed=5)
    table = workload.fact_table()
    server = CubeServer(table, workload.oracle(table), cache_cells=256)
    for point in sample_points(table.lattice, 50, seed=3):
        cuboid_of(server, point)
    return server


class TestRenderDashboard:
    def test_sections_present(self):
        server = served_workload()
        text = render_dashboard(server)
        assert text.startswith("x3-top — cube serving @ version 0")
        assert "window" in text and "p95" in text and "burn" in text
        assert "ladder rungs" in text
        assert "hottest lattice points" in text
        assert "cache residency" in text

    def test_tier_bars_reflect_stats(self):
        server = served_workload()
        text = render_dashboard(server)
        stats = server.stats()
        for tier, count in stats.tiers.items():
            if count:
                assert f"{tier:<12} {count:>6}" in text

    def test_a_window_the_sample_cap_cut_says_so(self):
        """70 000 requests in 100 s overflow the 300 s window's samples:
        its line names the span it covers, the whole 60 s line does
        not."""
        from tests.obs.test_live import FakeClock, TestSampleCap

        clock = FakeClock()
        table = small_workload(n_facts=60, seed=5).fact_table()
        server = CubeServer(table, telemetry=LiveTelemetry(clock=clock))
        TestSampleCap.flood(server.telemetry, clock, 70_000, 100.0)
        lines = render_dashboard(server).splitlines()
        short = next(line for line in lines if line.startswith("60s "))
        long = next(line for line in lines if line.startswith("300s "))
        assert "last" not in short
        assert long.endswith(
            f" (last 93.6s of 300s: the telemetry keeps {MAX_SAMPLES} samples)"
        )
        assert "(last 93.6s of 300s" in format_serving_html(server)

    def test_residency_rows_capped(self):
        server = served_workload()
        text = render_dashboard(server, residency_rows=2)
        resident = len(server.cache)
        if resident > 2:
            assert f"... {resident - 2} more" in text


class TestCliOneShot:
    def test_one_shot_report(self, inputs, capsys):
        query, data = inputs
        assert main(["--query", query, data, "--requests", "40"]) == 0
        out = capsys.readouterr().out
        assert "x3-top — cube serving" in out
        assert "ladder rungs" in out
        assert "60s" in out and "300s" in out

    def test_is_deterministic_in_modeled_terms(self, inputs, capsys):
        query, data = inputs
        args = ["--query", query, data, "--requests", "30", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        # Wall-clock columns differ run to run; the header line is
        # purely modeled and must match exactly.
        assert first.splitlines()[0] == second.splitlines()[0]

    def test_custom_windows_and_slo(self, inputs, capsys):
        query, data = inputs
        code = main(
            [
                "--query", query, data, "--requests", "20",
                "--windows", "10", "120", "--slo", "1e-9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "10s" in out and "120s" in out
        # Every request violates a 1ns SLO: the burn rate is pinned
        # at 1/error-budget = 100.
        assert "100.00" in out

    def test_jsonl_and_html_outputs(self, inputs, tmp_path, capsys):
        query, data = inputs
        events = tmp_path / "events.jsonl"
        report = tmp_path / "report.html"
        code = main(
            [
                "--query", query, data, "--requests", "30",
                "--jsonl", str(events), "--html", str(report),
            ]
        )
        assert code == 0
        lines = events.read_text().splitlines()
        assert len(lines) == 30
        assert json.loads(lines[0])["name"] == "serve.request"
        html_text = report.read_text()
        assert html_text.startswith("<!DOCTYPE html>")
        assert "x3 serving report" in html_text

    def test_bad_input_errors(self, inputs, capsys):
        _, data = inputs
        assert main(["--query", "/nope.xq", data]) == 1
        assert "error:" in capsys.readouterr().err


class TestServingHtml:
    def test_report_structure(self):
        server = served_workload()
        html_text = format_serving_html(server)
        assert "<h2>sliding windows</h2>" in html_text
        assert "<h2>sound-source ladder</h2>" in html_text
        assert "<h2>hottest lattice points" in html_text
        assert "<h2>cache residency" in html_text
        stats = server.stats()
        assert f"{stats.requests} requests" in html_text

    def test_values_are_escaped(self):
        server = served_workload()
        html_text = format_serving_html(server)
        # Lattice point descriptions contain '$' but never raw '<'.
        body = html_text.split("</style>")[1]
        assert "<script" not in body

    def test_no_external_assets(self):
        html_text = format_serving_html(served_workload())
        assert "http://" not in html_text
        assert "https://" not in html_text
        assert "src=" not in html_text


class TestServerPrometheus:
    def test_export_contains_documented_window_metrics(self):
        server = served_workload()
        server.telemetry.refresh_gauges()
        text = prometheus_text(server.telemetry.registry)
        for name in (
            "x3_serve_requests_total",
            "x3_serve_request_modeled_seconds",
            "x3_serve_window_modeled_latency_seconds",
            "x3_serve_window_hit_ratio",
            "x3_serve_window_slo_burn_rate",
        ):
            assert name in text, name
