"""End-to-end CLI tests through real subprocesses (the installed
console-script entry points, exercised as a user would)."""

import subprocess
import sys

import pytest

from repro.datagen.publications import QUERY1_TEXT, figure1_document
from repro.xmlmodel.serializer import serialize


def run_module(module, *args):
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture()
def inputs(tmp_path):
    query_path = tmp_path / "query.xq"
    query_path.write_text(QUERY1_TEXT)
    data_path = tmp_path / "data.xml"
    data_path.write_text(serialize(figure1_document()))
    return str(query_path), str(data_path)


class TestX3CubeProcess:
    def test_basic_run(self, inputs):
        query, data = inputs
        proc = run_module("repro.cli", "cube", "--query", query, data)
        assert proc.returncode == 0, proc.stderr
        assert "4 facts, 30 cuboids" in proc.stdout

    def test_error_exit_code(self, inputs, tmp_path):
        query, _ = inputs
        broken = tmp_path / "broken.xml"
        broken.write_text("<a><b></a>")
        proc = run_module("repro.cli", "cube", "--query", query, str(broken))
        assert proc.returncode == 1
        assert "error:" in proc.stderr


class TestX3BenchProcess:
    def test_single_figure(self):
        proc = run_module(
            "repro.cli", "bench",
            "--figure", "fig4", "--scale", "0.25", "--axes", "2",
        )
        assert proc.returncode == 0, proc.stderr
        assert "fig4" in proc.stdout

    def test_no_args_usage(self):
        proc = run_module("repro.cli", "bench")
        assert proc.returncode == 2
        assert "usage" in proc.stdout
