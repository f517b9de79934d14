"""Unit tests for the ``x3 bench`` CLI."""

import json
import pathlib

import pytest

from repro import cli
from repro.bench.figures import FIGURES
from tests.bench.test_figure_claims import committed_runs, with_sim


def main(argv):
    return cli.main(["bench", *argv])


def parse(argv):
    return cli.build_parser().parse_args(["bench", *argv])


class TestParser:
    def test_figure_choices(self):
        args = parse(["--figure", "fig4"])
        assert args.figure == "fig4"

    def test_defaults(self):
        args = parse(["--all"])
        assert args.scale == 1.0
        assert args.memory is None
        assert not args.validate


class TestMain:
    def test_no_selection_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_single_figure_runs(self, capsys):
        code = main(["--figure", "fig4", "--scale", "0.25", "--axes", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "BUC" in out


class TestClaimGate:
    """Exit status follows the claims on a spec's own sweep only; the
    sweeps come from the committed artifact, so nothing is recomputed."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        from repro.bench import runner

        runs = dict(committed_runs())
        monkeypatch.setattr(
            runner,
            "run_figure",
            lambda figure_id, **_: (FIGURES[figure_id], runs[figure_id]),
        )
        return runs

    def test_committed_sweeps_pass_with_every_claim_marked(
        self, sweeps, capsys
    ):
        assert main(["--all", "--validate"]) == 0
        out = capsys.readouterr().out
        claims = sum(len(spec.claims) for spec in FIGURES.values())
        assert out.count("✓") + out.count("✗") == claims
        assert out.count("✗ (known deviation)") == 4
        assert "?" not in out

    def test_a_reproduced_claim_that_fails_exits_one(self, sweeps, capsys):
        sweeps["fig7"] = with_sim(sweeps["fig7"], "BUC", 9.9)
        assert main(["--figure", "fig7"]) == 1
        err = capsys.readouterr().err
        assert "claim gate FAILED: fig7: recorded reproduced=True" in err

    def test_a_deviation_that_holds_exits_one(self, sweeps, capsys):
        sweeps["fig10"] = with_sim(sweeps["fig10"], "COUNTER", 0.001)
        assert main(["--figure", "fig10"]) == 1
        err = capsys.readouterr().err
        assert "claim gate FAILED: fig10: recorded reproduced=False" in err

    def test_an_overridden_sweep_prints_but_does_not_enforce(
        self, sweeps, capsys
    ):
        sweeps["fig10"] = with_sim(sweeps["fig10"], "COUNTER", 0.001)
        assert main(["--figure", "fig10", "--memory", "500"]) == 0
        assert "✓ COUNTER wins" in capsys.readouterr().out


COMMITTED_SMOKE = pathlib.Path(__file__).resolve().parents[2] / "BENCH_smoke.json"


class TestSmokeRecord:
    """``x3 bench --smoke`` with no other flag regenerates the committed
    ``BENCH_smoke.json`` exactly (wall-clock keys aside); any other
    ``--engine`` / ``--workers`` writes a record nothing is compared with."""

    def regenerate(self, tmp_path, *flags):
        assert main(["--smoke", "--artifact-dir", str(tmp_path), *flags]) == 0
        return tmp_path / "BENCH_smoke.json"

    def test_default_invocation_reproduces_the_committed_record(
        self, tmp_path, capsys
    ):
        from repro.bench.determinism import diff_json

        fresh = self.regenerate(tmp_path)
        problem = diff_json(str(fresh), str(COMMITTED_SMOKE))
        assert problem is None, (
            f"fresh vs committed BENCH_smoke.json: {problem}\n"
            "a modeled number moved: if intended, commit the output of"
            " `x3 bench --smoke --artifact-dir .`"
        )
        out = capsys.readouterr().out
        assert "work/path" in out and "serial/wall" in out
        assert "speedup" not in out

    def test_the_gate_bites_and_names_the_number_that_moved(
        self, tmp_path, monkeypatch
    ):
        from repro.bench.determinism import diff_json
        from repro.lang import compiler

        monkeypatch.setattr(compiler, "LANG_SECONDS_PER_TOKEN", 6e-8)
        fresh = self.regenerate(tmp_path)
        problem = diff_json(str(fresh), str(COMMITTED_SMOKE))
        assert problem is not None
        assert problem.startswith("$.replays.api_x3ql.modeled_p95_seconds")

    def test_engine_flag_reaches_the_smoke(self, tmp_path):
        fresh = json.loads(
            self.regenerate(tmp_path, "--engine", "process").read_text()
        )
        committed = json.loads(COMMITTED_SMOKE.read_text())
        pools = {run["engine"] for run in fresh["runs"] if run["workers"] > 1}
        assert pools == {"process"}
        assert {run["engine"] for run in committed["runs"]} == {
            "serial", "thread"
        }
        assert fresh["replays"] == committed["replays"]

    def test_a_leaking_tracer_or_a_slow_text_door_fails_the_smoke(self):
        from repro.bench.harness import smoke_failures

        replays = json.loads(COMMITTED_SMOKE.read_text())["replays"]
        assert smoke_failures([], replays) == []
        leaked = dict(replays["serve_warm_traced"], modeled_seconds=1.0)
        failures = smoke_failures(
            [], {**replays, "serve_warm_traced": leaked}
        )
        assert len(failures) == 1 and "tracing leaked" in failures[0]
        slow = dict(
            replays["api_x3ql"],
            modeled_p95_seconds=1.2 * replays["api_json"]["modeled_p95_seconds"],
        )
        failures = smoke_failures([], {**replays, "api_x3ql": slow})
        assert len(failures) == 1 and "1.10x" in failures[0]


class TestScalingFlag:
    def test_scaling_runs(self, capsys, monkeypatch):
        from repro.bench import scaling as scaling_module

        original = scaling_module.run_scaling

        def tiny_scaling(**kwargs):
            return original(
                scales=(40, 80), n_axes=2,
                algorithms=("BUC",), memory_entries=2000,
            )

        monkeypatch.setattr(scaling_module, "run_scaling", tiny_scaling)
        assert main(["--scaling"]) == 0
        out = capsys.readouterr().out
        assert "scaling" in out
        assert "BUC" in out


class TestTraceOut:
    def test_figure_run_writes_chrome_trace(self, tmp_path, capsys):
        import json

        target = tmp_path / "trace.json"
        code = main(
            [
                "--figure", "fig4", "--scale", "0.25", "--axes", "2",
                "--trace-out", str(target),
            ]
        )
        assert code == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        document = json.loads(target.read_text())
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert events
        categories = {e["cat"] for e in events}
        assert "algorithm" in categories and "engine" in categories


class TestTraceValidation:
    def test_valid_trace_accepted(self, tmp_path, capsys):
        from repro.bench.runner import validate_trace_file

        target = tmp_path / "trace.json"
        target.write_text(
            '{"traceEvents": [{"ph": "X", "name": "s", "cat": "c",'
            ' "ts": 0, "dur": 1, "pid": 1, "tid": 1}]}'
        )
        assert validate_trace_file(str(target)) is None
        assert "smoke trace OK: 1 spans" in capsys.readouterr().out

    def test_malformed_json_rejected(self, tmp_path):
        from repro.bench.runner import validate_trace_file

        target = tmp_path / "trace.json"
        target.write_text("{not json")
        assert "not valid JSON" in validate_trace_file(str(target))

    def test_missing_file_rejected(self, tmp_path):
        from repro.bench.runner import validate_trace_file

        problem = validate_trace_file(str(tmp_path / "absent.json"))
        assert "cannot read" in problem

    def test_empty_trace_rejected(self, tmp_path):
        from repro.bench.runner import validate_trace_file

        target = tmp_path / "trace.json"
        target.write_text('{"traceEvents": []}')
        assert "no complete spans" in validate_trace_file(str(target))

    def test_wrong_shape_rejected(self, tmp_path):
        from repro.bench.runner import validate_trace_file

        target = tmp_path / "trace.json"
        target.write_text('{"spans": 3}')
        assert "traceEvents" in validate_trace_file(str(target))

    def test_smoke_with_trace_out_validates(self, tmp_path, capsys):
        target = tmp_path / "smoke-trace.json"
        assert main(["--smoke", "--trace-out", str(target)]) == 0
        out = capsys.readouterr().out
        assert "smoke trace OK" in out
