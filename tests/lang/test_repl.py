"""Tests for the ``x3-sql`` REPL (transport-free Repl + CLI modes)."""

import io
import json

import pytest

from repro import cli
from repro.core.extract import extract_fact_table
from repro.core.properties import PropertyOracle
from repro.datagen.publications import QUERY1_TEXT, figure1_document
from repro.lang import parse_x3_query
from repro.lang.repl import Repl, _table
from repro.serve import CubeServer
from repro.server.model import CubeCatalog, LogicalCube


def main(argv):
    return cli.main(["sql", *argv])


@pytest.fixture(scope="module")
def table():
    return extract_fact_table(
        [figure1_document()], parse_x3_query(QUERY1_TEXT)
    )


@pytest.fixture()
def repl(table):
    server = CubeServer(table, PropertyOracle.from_data(table))
    catalog = CubeCatalog()
    catalog.register(
        LogicalCube.from_lattice("pubs", server.lattice), server
    )
    out = io.StringIO()
    return Repl(catalog, out=out), out


class TestExecute:
    def test_rollup_prints_an_aligned_table(self, repl):
        shell, out = repl
        assert shell.execute("ROLLUP pubs BY n:detail, y:detail")
        text = out.getvalue()
        assert "n" in text.splitlines()[0]
        assert "value" in text.splitlines()[0]
        assert "John" in text
        assert "-- 4 rows" in text
        assert "tier" in text

    def test_cell_prints_the_value(self, repl):
        shell, out = repl
        assert shell.execute(
            "CELL pubs KEY ('John', '2003') BY n:detail, y:detail"
        )
        assert out.getvalue().splitlines()[0] == "1"
        assert "-- 1 cell" in out.getvalue()

    def test_missing_cell_prints_null(self, repl):
        shell, out = repl
        assert shell.execute(
            "CELL pubs KEY ('Nobody', '1999') BY n:detail, y:detail"
        )
        assert out.getvalue().splitlines()[0] == "NULL"

    def test_json_mode(self, repl):
        shell, out = repl
        shell.json_output = True
        assert shell.execute("ROLLUP pubs BY y:detail")
        payload = json.loads(out.getvalue())
        assert payload["kind"] == "aggregate"
        assert payload["point"] == "$n:LND, $p:LND, $y:rigid"

    def test_explain_statement(self, repl):
        shell, out = repl
        assert shell.execute("EXPLAIN ROLLUP pubs BY n:detail")
        payload = json.loads(out.getvalue())
        assert payload["kind"] == "aggregate"
        assert "rungs" in payload

    def test_flwor_definition(self, repl):
        shell, out = repl
        assert shell.execute(QUERY1_TEXT)
        text = out.getvalue()
        assert "for $b in doc" in text
        assert "30 lattice points" in text

    def test_several_statements_one_line(self, repl):
        shell, out = repl
        assert shell.execute("ROLLUP pubs; ROLLUP pubs BY y:detail")
        assert out.getvalue().count("-- ") == 2

    def test_parse_error_is_reported_not_raised(self, repl):
        shell, out = repl
        assert not shell.execute("ROLLUP")
        assert "error:" in out.getvalue()

    def test_compile_error_is_reported(self, repl):
        shell, out = repl
        assert not shell.execute("ROLLUP pubs BY bogus:detail")
        assert "no dimension" in out.getvalue()

    def test_unknown_cube_is_reported(self, repl):
        shell, out = repl
        assert not shell.execute("ROLLUP nope")
        assert "error:" in out.getvalue()

    def test_blank_input_is_fine(self, repl):
        shell, out = repl
        assert shell.execute("   \n  ")
        assert out.getvalue() == ""


class TestMeta:
    def test_quit_raises_eof(self, repl):
        shell, _ = repl
        for command in ("\\q", "\\quit", "\\exit"):
            with pytest.raises(EOFError):
                shell.execute(command)

    def test_help(self, repl):
        shell, out = repl
        assert shell.execute("\\help")
        assert "ROLLUP" in out.getvalue()
        assert "Meta commands" in out.getvalue()

    def test_cubes(self, repl):
        shell, out = repl
        assert shell.execute("\\cubes")
        assert "pubs" in out.getvalue()
        assert "30 lattice points" in out.getvalue()

    def test_json_toggle(self, repl):
        shell, out = repl
        assert shell.execute("\\json on")
        assert shell.json_output
        assert shell.execute("\\json off")
        assert not shell.json_output
        assert shell.execute("\\json")
        assert shell.json_output
        assert "json output" in out.getvalue()

    def test_explain_meta(self, repl):
        shell, out = repl
        assert shell.execute("\\explain ROLLUP pubs BY n:detail")
        payload = json.loads(out.getvalue())
        assert "rungs" in payload

    def test_explain_meta_definition(self, repl):
        shell, out = repl
        assert shell.execute("\\explain " + QUERY1_TEXT.strip())
        payload = json.loads(out.getvalue())
        assert payload["kind"] == "definition"

    def test_explain_meta_needs_an_argument(self, repl):
        shell, out = repl
        assert not shell.execute("\\explain")
        assert "usage" in out.getvalue()

    def test_explain_meta_reports_errors(self, repl):
        shell, out = repl
        assert not shell.execute("\\explain ROLLUP")
        assert "error:" in out.getvalue()

    def test_ast(self, repl):
        shell, out = repl
        assert shell.execute("\\ast ROLLUP pubs BY n:detail")
        assert "NavStatement" in out.getvalue()

    def test_unknown_meta(self, repl):
        shell, out = repl
        assert not shell.execute("\\frobnicate")
        assert "unknown meta command" in out.getvalue()


class TestTable:
    def test_alignment(self):
        text = _table(["a", "value"], [["x", "1"], ["longer", "23"]])
        lines = text.splitlines()
        assert lines[0] == "a      | value"
        assert lines[1] == "-------+------"
        assert lines[2] == "x      | 1"
        assert lines[3] == "longer | 23"

    def test_empty_rows(self):
        lines = _table(["a", "b"], []).splitlines()
        assert lines[0] == "a | b"


class TestMain:
    def test_demo_execute(self, capsys):
        assert main(
            ["--demo", "-c", "ROLLUP default BY n:detail, y:detail"]
        ) == 0
        captured = capsys.readouterr()
        assert "John" in captured.out

    def test_demo_execute_failure_exits_nonzero(self, capsys):
        assert main(["--demo", "-c", "ROLLUP nope"]) == 1
        assert "error:" in capsys.readouterr().out

    def test_demo_quit_command_stops(self, capsys):
        assert main(["--demo", "-c", "\\q", "-c", "ROLLUP default"]) == 0
        assert "-- " not in capsys.readouterr().out

    def test_demo_cluster_backend(self, capsys):
        assert main(
            [
                "--demo",
                "--backend",
                "cluster",
                "--shards",
                "2",
                "--json",
                "-c",
                "ROLLUP default BY y:detail",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tier"] == "scatter-gather"

    def test_demo_rejects_files(self, capsys):
        assert main(["--demo", "--query", "q.xq", "x.xml"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_files_require_query(self, capsys):
        assert main(["data.xml"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_stdin_mode(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("ROLLUP default BY y:detail;")
        )
        assert main(["--demo"]) == 0
        assert "-- " in capsys.readouterr().out

    def test_query_file_mode(self, tmp_path, capsys):
        from repro.xmlmodel.serializer import serialize

        query = tmp_path / "q.xq"
        query.write_text(QUERY1_TEXT)
        data = tmp_path / "d.xml"
        data.write_text(serialize(figure1_document()))
        assert main(
            [
                "--query",
                str(query),
                str(data),
                "--cube-name",
                "pubs",
                "-c",
                "ROLLUP pubs BY n:detail",
            ]
        ) == 0
        assert "Jane" in capsys.readouterr().out
