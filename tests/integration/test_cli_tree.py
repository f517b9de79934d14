"""The one ``x3`` parser tree: every option the eight old tools took
still parses except the engine flags the serving tools dropped and the
flags in :data:`DELETED`, every flag is one declaration, the old
console-script names dispatch through ``argv[0]``, and the bugs the
copies had drifted into are errors on every subcommand."""

import argparse

import pytest

from repro import cli
from repro.datagen.publications import QUERY1_TEXT, figure1_document
from repro.xmlmodel.serializer import serialize

#: Every option string (or positional dest) each tool's own parser
#: accepted at the commit before the fold.
OLD_OPTIONS = {
    "cube": "files --query --algorithm --cuboid --list-cuboids"
    " --min-support --top --workers --engine --properties --profile"
    " --trace-out --export",
    "serve": "files --query --cache-cells --view-cells --oracle --warm"
    " --requests --seed --algorithm --workers --engine --cuboid --top"
    " --profile --trace-out --log-jsonl",
    "serve explain": "files --query --cache-cells --view-cells --oracle"
    " --warm --requests --seed --algorithm --workers --engine --cuboid"
    " --verify",
    "top": "files --query --cache-cells --view-cells --oracle --warm"
    " --requests --seed --algorithm --workers --engine --watch"
    " --interval --slo --windows --top-k --html --jsonl",
    "cluster": "files --query --shards --replicas --requests --seed"
    " --writes --chaos --chaos-seed --hedge-deadline --cache-cells"
    " --oracle --algorithm --workers --engine --validate --log-jsonl"
    " --trace --trace-sample --trace-seed --trace-jsonl",
    "server": "files --query --host --port --cube-name --backend"
    " --shards --replicas --cache-cells --oracle --algorithm --engine"
    " --max-inflight --auth-token --lang --serve-forever --clients"
    " --requests --seed --latency-jsonl --trace --trace-sample"
    " --trace-seed --trace-jsonl",
    "sql": "files --query --demo --cube-name --backend --shards"
    " --replicas --cache-cells --oracle --algorithm --engine -c"
    " --execute --json",
    "bench": "--figure --all --scaling --scale --axes --memory"
    " --validate --workers --engine --smoke --artifact-dir --dat"
    " --trace-out",
}

#: What a subcommand gained by sharing a whole option group; each is
#: honoured by the shared code (tested in TestGainedFlags).
GAINED = {
    "cube": {"--demo"},
    "serve": {"--demo"},
    "serve explain": {"--demo"},
    "top": {"--demo", "--log-jsonl"},
    "cluster": {"--demo"},
    "server": {"--demo", "--log-jsonl"},
    "sql": set(),
    "bench": set(),
}

#: The engine flags: only ``cube`` and ``bench`` run a chosen engine.
#: A serving backend picks its kernel from the job's point count, so
#: the serving tools refuse all three (a usage error, exit 2).
ENGINE_FLAGS = ("--algorithm", "--workers", "--engine")
SERVING = sorted(set(OLD_OPTIONS) - {"cube", "bench"})

#: Deleted with what it configured: the serving ladder's view rung (the
#: Sec. 3.6 advisor's choice warms the cache instead, a library call);
#: the load generator's own per-request JSONL and top's second spelling
#: of the request log (both tools write it with ``--log-jsonl``).
DELETED = {"--view-cells", "--latency-jsonl", "--jsonl"}

TRACE_OPTIONS = {
    "list": {"file", "--status", "--name", "--retained", "--jsonl"},
    "show": {"file", "trace_id", "--chrome-out"},
}


def subparsers(parser):
    (action,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return action.choices


def declared(parser):
    """name -> Action for every option string / positional of a leaf."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        for name in action.option_strings or [action.dest]:
            found[name] = action
    return found


@pytest.fixture(scope="module")
def tree():
    return subparsers(cli.build_parser())


@pytest.fixture()
def inputs(tmp_path):
    query_path = tmp_path / "query.xq"
    query_path.write_text(QUERY1_TEXT)
    data_path = tmp_path / "data.xml"
    data_path.write_text(serialize(figure1_document()))
    return ["--query", str(query_path), str(data_path)]


class TestEveryOldOptionStillParses:
    @pytest.mark.parametrize("name", sorted(OLD_OPTIONS))
    def test_same_flags_plus_the_honoured_gains(self, tree, name):
        old = set(OLD_OPTIONS[name].split())
        dropped = DELETED | (set(ENGINE_FLAGS) if name in SERVING else set())
        assert set(declared(tree[name])) == (old | GAINED[name]) - dropped

    def test_trace_subcommands(self, tree):
        actions = subparsers(tree["trace"])
        assert {
            name: set(declared(sub)) for name, sub in actions.items()
        } == TRACE_OPTIONS

    def test_the_tree_is_the_eight_tools(self, tree):
        assert set(tree) == set(cli.SUBCOMMANDS) | {"serve explain"}


class TestGainedFlags:
    """A flag a subcommand did not have before must do something."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["cube", "--demo"], "4 facts, 30 cuboids"),
            (["serve", "--demo", "--requests", "5"], "4 facts, 30 cuboids"),
            (
                ["serve", "explain", "--demo", "--requests", "3"],
                "explain cuboid",
            ),
            (["top", "--demo", "--requests", "5"], "5 requests"),
            (
                ["cluster", "--demo", "--requests", "5", "--shards", "2"],
                "4 facts, 30 cuboids",
            ),
            (
                ["server", "--demo", "--clients", "1", "--requests", "3"],
                "4 facts, 30 cuboids",
            ),
        ],
    )
    def test_demo_loads_the_figure_1_workload(self, argv, expected, capsys):
        assert cli.main(argv) == 0
        assert expected in capsys.readouterr().out

    def test_demo_replaces_files_everywhere(self, inputs, capsys):
        assert cli.main(["cube", "--demo", *inputs]) == 1
        assert "--demo replaces" in capsys.readouterr().err


class TestDeclaredOnce:
    def test_a_shared_option_is_one_action_object(self, tree):
        seen = {}
        for name in OLD_OPTIONS:
            for option, action in declared(tree[name]).items():
                assert seen.setdefault(option, action) is action, (
                    f"{option} is declared again for {name}"
                )
        # 58 distinct flags, exactly 58 declarations (-c/--execute is
        # one action with two spellings).
        assert len({id(action) for action in seen.values()}) == 58

    def test_trace_is_apart(self, tree):
        # ``x3 trace`` reads a dump instead of loading data, and its
        # ``list --jsonl`` is a switch where ``--log-jsonl`` takes a
        # path; its two actions share their one positional.
        actions = subparsers(tree["trace"])
        assert (
            declared(actions["list"])["file"]
            is declared(actions["show"])["file"]
        )

    def test_a_subcommand_default_does_not_leak(self, inputs):
        parse = cli.build_parser().parse_args
        assert parse(["cube", *inputs]).algorithm == "BUC"
        for name in ("serve", "top", "cluster", "server", "sql"):
            assert not hasattr(parse([name, *inputs]), "algorithm")
        assert parse(["cluster", *inputs]).cache_cells == 2048
        assert parse(["cluster", *inputs]).shards == [1, 2, 4]
        assert parse(["serve", *inputs]).cache_cells == 4096
        assert parse(["sql", *inputs]).shards == [4]
        server = parse(["server", *inputs])
        assert (server.requests, server.seed) == (25, 17)
        serve = parse(["serve", *inputs])
        assert (serve.requests, serve.seed) == (100, 7)
        explicit = parse(["cluster", *inputs, "--cache-cells", "9"])
        assert explicit.cache_cells == 9


class TestServingTakesNoEngineFlags:
    """Serving answers every read exactly as serial NAIVE would, so no
    serving tool lets a user pick the kernel, a pool or its size — not
    even a valid one."""

    @pytest.mark.parametrize(
        "flag, value",
        [("--algorithm", "NAIVE"), ("--workers", "1"), ("--engine", "serial")],
    )
    @pytest.mark.parametrize("name", SERVING)
    def test_engine_flag_is_a_usage_error(
        self, name, flag, value, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*name.split(), "--demo", flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag}" in captured.err
        assert captured.out == ""


class TestArgvZeroDispatch:
    @pytest.mark.parametrize(
        "script, argv, status, expected",
        [
            ("x3-cube", ["--demo"], 0, "4 facts, 30 cuboids"),
            ("x3-serve", ["--demo", "--requests", "5"], 0, "serve: 5 req"),
            (
                "x3-serve",
                ["explain", "--demo", "--requests", "20", "--verify"],
                0,
                "verified 20 queries: 20 agree, 0 mismatch",
            ),
            ("x3-top", ["--demo", "--requests", "5"], 0, "x3-top —"),
            (
                "x3-cluster",
                ["--demo", "--requests", "5", "--shards", "2"],
                0,
                "shards=2 replicas=2",
            ),
            (
                "x3-server",
                ["--demo", "--clients", "1", "--requests", "3"],
                0,
                "loadgen: 3 requests",
            ),
            ("x3-sql", ["--demo", "-c", "\\cubes"], 0, "default: n->$n"),
            ("x3-bench", [], 2, "usage: x3 bench"),
            ("x3-trace", ["list", "/nonexistent.jsonl"], 1, ""),
        ],
    )
    def test_old_script_names_select_the_subcommand(
        self, script, argv, status, expected, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            "sys.argv", [f"/usr/local/bin/{script}", *argv]
        )
        assert cli.main() == status
        assert expected in capsys.readouterr().out

    def test_plain_x3_needs_a_subcommand(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["x3"])
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        assert exit_info.value.code == 2
        assert "{cube,serve,top," in capsys.readouterr().err


WITH_ENGINE = sorted(OLD_OPTIONS)
WITH_ALGORITHM = sorted(set(OLD_OPTIONS) - {"bench"})


class TestDriftBugs:
    """Mistakes only some of the copies caught (regressions: each of
    these was a traceback or a booted, broken server on some tool)."""

    @pytest.mark.parametrize("name", WITH_ENGINE)
    def test_unknown_engine_is_a_usage_error(self, name, inputs, capsys):
        argv = [*name.split(), *([] if name == "bench" else inputs)]
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--engine", "bogus"])
        assert exit_info.value.code == 2
        assert (
            "unrecognized arguments: --engine"
            if name in SERVING
            else "invalid choice: 'bogus'"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize("name", WITH_ALGORITHM)
    def test_unknown_algorithm_is_refused_up_front(
        self, name, inputs, capsys
    ):
        argv = [*name.split(), *inputs, "--algorithm", "NOPE"]
        if name in SERVING:
            with pytest.raises(SystemExit) as exit_info:
                cli.main(argv)
            assert exit_info.value.code == 2
        else:
            assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert (
            "unrecognized arguments: --algorithm"
            if name in SERVING
            else "error: unknown algorithm 'NOPE'"
        ) in captured.err
        assert captured.out == ""  # nothing was loaded, booted or served

    @pytest.mark.parametrize("name", ["cluster", "server"])
    def test_trace_sample_outside_the_unit_interval(
        self, name, inputs, capsys
    ):
        argv = [name, *inputs, "--trace", "--trace-sample", "2"]
        assert cli.main(argv) == 1
        assert (
            "error: sample rate must be in [0, 1]"
            in capsys.readouterr().err
        )

    def test_trace_out_without_profile_is_refused_before_any_work(
        self, inputs, capsys
    ):
        for name in ("cube", "serve"):
            argv = [name, *inputs, "--trace-out", "/tmp/never.json"]
            assert cli.main(argv) == 1
            captured = capsys.readouterr()
            assert "--trace-out requires --profile" in captured.err
            assert captured.out == ""
