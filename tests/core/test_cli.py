"""Unit tests for the x3-cube CLI."""

import re

import pytest

from repro import cli
from repro.datagen.publications import QUERY1_TEXT, figure1_document
from repro.xmlmodel.serializer import serialize


def main(argv):
    return cli.main(["cube", *argv])


@pytest.fixture()
def inputs(tmp_path):
    query_path = tmp_path / "query.xq"
    query_path.write_text(QUERY1_TEXT)
    data_path = tmp_path / "data.xml"
    data_path.write_text(serialize(figure1_document()))
    return str(query_path), str(data_path)


class TestHappyPath:
    def test_default_output(self, inputs, capsys):
        query, data = inputs
        assert main(["--query", query, data]) == 0
        out = capsys.readouterr().out
        assert "4 facts, 30 cuboids" in out
        assert "$n:rigid, $p:rigid, $y:rigid" in out
        assert "$n:LND, $p:LND, $y:LND" in out

    def test_specific_cuboid(self, inputs, capsys):
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

    def test_list_cuboids(self, inputs, capsys):
        query, data = inputs
        assert main(["--query", query, data, "--list-cuboids"]) == 0
        out = capsys.readouterr().out
        assert out.count("groups") == 30

    def test_properties_report(self, inputs, capsys):
        query, data = inputs
        assert main(["--query", query, data, "--properties"]) == 0
        out = capsys.readouterr().out
        assert "disjoint=False" in out

    def test_min_support(self, inputs, capsys):
        query, data = inputs
        code = main(
            [
                "--query", query, data, "--min-support", "2",
                "--cuboid", "$n:LND, $p:LND, $y:rigid",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(2003): 2" in out
        assert "(2004)" not in out  # below support, pruned

    def test_multiple_files(self, inputs, capsys):
        query, data = inputs
        assert main(["--query", query, data, data]) == 0
        assert "8 facts" in capsys.readouterr().out


class TestErrors:
    def test_missing_query_file(self, inputs, capsys):
        _, data = inputs
        assert main(["--query", "/nope/query.xq", data]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_query_text(self, tmp_path, inputs, capsys):
        _, data = inputs
        bad = tmp_path / "bad.xq"
        bad.write_text("this is not a query")
        assert main(["--query", str(bad), data]) == 1

    def test_bad_xml(self, tmp_path, inputs, capsys):
        query, _ = inputs
        broken = tmp_path / "broken.xml"
        broken.write_text("<a><b></a>")
        assert main(["--query", query, str(broken)]) == 1

    def test_unknown_algorithm(self, inputs, capsys):
        query, data = inputs
        assert main(["--query", query, data, "--algorithm", "WARP"]) == 1

    def test_unknown_cuboid(self, inputs, capsys):
        query, data = inputs
        assert (
            main(["--query", query, data, "--cuboid", "$n:warp"]) == 1
        )


class TestExport:
    def test_export_round_trips(self, inputs, tmp_path, capsys):
        from repro.core.export import cube_from_xml
        from repro.datagen.publications import query1

        query, data = inputs
        target = tmp_path / "cube.xml"
        assert main(["--query", query, data, "--export", str(target)]) == 0
        text = target.read_text()
        lattice = query1().lattice()
        cube = cube_from_xml(text, lattice)
        assert cube.total_cells() > 0
        year_point = lattice.point_by_description("$n:LND, $p:LND, $y:rigid")
        assert cube.cuboids[year_point][("2003",)] == 2.0


class TestProfile:
    def test_profile_prints_span_summary(self, inputs, capsys):
        """The totals line reads the run's own counts: the cost snapshot
        and the sorts among its phases."""
        from repro import ExecutionOptions, compute_cube, parse_x3_query
        from repro.core.extract import extract_fact_table

        query, data = inputs
        argv = ["--query", query, data, "--algorithm", "BUC", "--profile"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "profile (top spans by wall time):" in out
        assert "engine.run" in out
        assert "xml.parse" in out
        (totals,) = re.findall(r"^profile totals: (.*)$", out, re.MULTILINE)
        printed = {
            label: float(value)
            for label, value in (
                item.rsplit(" ", 1) for item in totals.split(", ")
            )
        }
        cube = compute_cube(
            extract_fact_table(
                [figure1_document()], parse_x3_query(QUERY1_TEXT)
            ),
            ExecutionOptions(algorithm="BUC"),
        )
        sorts = sum(
            value
            for phase, value in cube.phases.items()
            if phase.startswith("sorts_")
        )
        assert sorts > 0
        assert printed == {
            "cpu ops": cube.cost.cpu_ops,
            "page reads": cube.cost.page_reads,
            "page writes": cube.cost.page_writes,
            "sorts": sorts,
        }

    def test_profile_trace_out_writes_chrome_json(
        self, inputs, tmp_path, capsys
    ):
        import json

        query, data = inputs
        target = tmp_path / "trace.json"
        code = main(
            [
                "--query", query, data,
                "--profile", "--trace-out", str(target),
            ]
        )
        assert code == 0
        document = json.loads(target.read_text())
        categories = {
            e["cat"] for e in document["traceEvents"] if e["ph"] == "X"
        }
        assert {"parse", "engine"} <= categories

    def test_trace_out_without_profile_rejected(self, inputs, capsys):
        query, data = inputs
        target = "/tmp/never-written.json"
        code = main(["--query", query, data, "--trace-out", target])
        assert code == 1
        assert "--profile" in capsys.readouterr().err
