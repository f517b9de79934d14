"""Unit tests for the x3-server CLI."""

import json

import pytest

from repro import cli
from repro.datagen.publications import QUERY1_TEXT, figure1_document
from repro.server.cli import parse_tokens
from repro.errors import X3Error
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
        assert "cluster backend" in capsys.readouterr().out

    def test_latency_jsonl_written(self, inputs, tmp_path, capsys):
        query, data = inputs
        target = tmp_path / "latency.jsonl"
        code = main(
            [
                "--query", query, data,
                "--clients", "1", "--requests", "6",
                "--latency-jsonl", str(target),
            ]
        )
        assert code == 0
        assert f"wrote 6 latency records to {target}" in (
            capsys.readouterr().out
        )
        lines = target.read_text().splitlines()
        assert len(lines) == 6
        assert all(
            json.loads(line)["status"] == 200 for line in lines
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
