"""The ``x3`` command line tool: every X^3 tool behind one parser tree.

    x3 cube    --query query.xq data.xml --algorithm BUC --cuboid DESC
    x3 serve   --query query.xq data.xml --requests 200 --warm
    x3 serve explain --query query.xq data.xml --requests 100 --verify
    x3 top     --query query.xq data.xml --watch
    x3 cluster --query query.xq data.xml --shards 1,2,4 --chaos light
    x3 server  --query query.xq data.xml --port 8311 --serve-forever
    x3 sql     --demo -c "ROLLUP default BY n:detail, y:detail"
    x3 bench   --figure fig5
    x3 trace   list traces.jsonl

Every tool starts the same way — documents + X^3 query -> fact table ->
a backend — so that preamble exists once: each flag is declared once
(in a shared option group, or at the one subcommand that owns it),
:func:`load_table` reads the input, :func:`build_backend` is the only
place a :class:`~repro.serve.CubeServer` or
:class:`~repro.cluster.ClusterCoordinator` is constructed from parsed
arguments, :func:`repro.serve.replay.replay` is the only replay loop,
and :func:`main` is the only place an error becomes ``error: ...`` and
exit status 1.  Each package keeps the function that prints its own
report.  The historical console scripts (``x3-cube``, ``x3-serve``, ...)
are aliases of this entry point: ``x3-serve explain ...`` is
``x3 serve explain ...``.  README "Command line" has the full table.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple, cast

from repro import obs
from repro.bench import runner as bench
from repro.bench.figures import FIGURES
from repro.cluster import cli as cluster
from repro.cluster.chaos import PROFILES
from repro.cluster.coordinator import ClusterCoordinator
from repro.core.algorithms.registry import get_algorithm
from repro.core.bindings import FactTable
from repro.core.cube import ENGINE_CHOICES, ExecutionOptions, compute_cube
from repro.core.extract import extract_fact_table
from repro.core.lattice import LatticePoint
from repro.core.properties import PropertyOracle
from repro.core.query import CubeBackend, X3Query, resolve_point_spec
from repro.errors import X3Error
from repro.lang import repl
from repro.lang.compiler import parse_x3_query
from repro.obs import trace_cli
from repro.obs.live import LiveTelemetry
from repro.obs.span import TraceSession
from repro.obs.trace_store import TraceStore
from repro.serve import cli as serve
from repro.serve import top
from repro.serve.replay import plan_writes, replay, sample_points
from repro.serve.server import CubeServer
from repro.server import cli as server
from repro.server.model import CubeCatalog, LogicalCube
from repro.xmlmodel.parser import parse_file

#: The subcommands; ``x3-<name>`` on ``argv[0]`` selects one.
SUBCOMMANDS = (
    "cube", "serve", "top", "cluster", "server", "sql", "bench", "trace"
)


# ----------------------------------------------------------------------
# the parser tree
# ----------------------------------------------------------------------
class _Parser(argparse.ArgumentParser):
    """Shared option groups hand the *same* ``Action`` objects to every
    subcommand, so a subcommand's own default must not be written into
    the action (stock ``set_defaults`` does, and the last writer would
    win for every tool).  It stays on the parser and is seeded into the
    namespace before parsing, where it beats the shared default."""

    def set_defaults(self, **kwargs: Any) -> None:
        self._defaults.update(kwargs)

    def parse_known_args(self, args: Any = None, namespace: Any = None) -> Any:
        if namespace is None:
            namespace = argparse.Namespace()
        for dest, value in self._defaults.items():
            if not hasattr(namespace, dest):
                setattr(namespace, dest, value)
        return super().parse_known_args(args, namespace)


def _algorithm(name: str) -> str:
    get_algorithm(name)  # CubeError on a name the registry lacks
    return name


def _option_groups() -> Dict[str, argparse.ArgumentParser]:
    """Every flag two or more subcommands share, declared once."""
    groups: Dict[str, argparse.ArgumentParser] = {}

    def group(name: str, title: str) -> Any:
        groups[name] = _Parser(add_help=False)
        return groups[name].add_argument_group(title).add_argument

    add = group("input", "input")
    add("files", nargs="*", help="XML input files")
    add("--query", help="file holding the X^3 FLWOR text")
    add(
        "--demo",
        action="store_true",
        help="use the paper's Figure-1 publication workload instead of"
        " files and --query",
    )

    add = group("engine", "engine")
    add(
        "--workers",
        type=int,
        default=1,
        help="worker pool size for the parallel engine (default 1:"
        " serial execution)",
    )
    add(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help="execution engine (default auto: serial for 1 worker,"
        " thread pool otherwise)",
    )

    add = group("cache", "backend")
    add(
        "--cache-cells",
        type=int,
        default=4096,
        help="cuboid cache budget in cells, per replica on a cluster"
        " (default 4096; 2048 for cluster; 0 disables)",
    )
    add(
        "--oracle",
        choices=("data", "none"),
        default="data",
        help="property oracle for sound roll-ups: 'data' measures the"
        " fact table, 'none' is pessimistic (no roll-up tier)",
    )
    add = group("warm", "backend")
    add(
        "--warm",
        action="store_true",
        help="pre-fill the cache with the best-fitting cuboids",
    )
    add = group("shards", "backend")
    add(
        "--shards",
        type=cluster.parse_shards,
        default=[4],
        metavar="N[,N...]",
        help="shard count of a cluster backend (default 4); cluster"
        " replays once per listed count (default 1,2,4)",
    )
    add(
        "--replicas",
        type=int,
        default=2,
        help="replicas per shard (default 2)",
    )
    add = group("catalog", "backend")
    add(
        "--backend",
        choices=("serve", "cluster"),
        default="serve",
        help="single CubeServer or a sharded ClusterCoordinator",
    )
    add(
        "--cube-name",
        default="default",
        help="catalog name of the served cube (default 'default')",
    )

    add = group("replay", "replay")
    add(
        "--requests",
        type=int,
        default=100,
        help="replayed requests (default 100); server: load-generator"
        " requests per client (default 25)",
    )
    add(
        "--seed",
        type=int,
        default=7,
        help="replay sampling seed (default 7; server: 17)",
    )

    add = group("tracing", "tracing")
    add(
        "--trace",
        action="store_true",
        help="trace every request (traceparent propagation, spans over"
        " coordinator, shards and replica engines; x3 trace input)",
    )
    add(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="head sampling rate in [0, 1] (default 1.0; tail "
        "retention keeps error/slow traces regardless)",
    )
    add(
        "--trace-seed",
        type=int,
        default=0,
        help="seed for deterministic trace/span id generation",
    )
    add(
        "--trace-jsonl",
        metavar="PATH",
        help="dump the retained traces as canonical JSONL on exit "
        "(implies --trace; cluster: the last replay's)",
    )

    add = group("profile", "profile")
    add(
        "--profile",
        action="store_true",
        help="trace the run (parse, storage, algorithm, engine, serve"
        " spans) and print a span summary",
    )
    add(
        "--top",
        type=int,
        default=10,
        help="rows shown per printed cuboid and per --profile summary"
        " (default 10)",
    )
    add = group("trace_out", "profile")
    add(
        "--trace-out",
        metavar="PATH",
        help="write a Chrome trace_event JSON file of the run"
        " (chrome://tracing / Perfetto); needs --profile where that"
        " flag exists",
    )

    add = group("cuboid", "output")
    add(
        "--cuboid",
        action="append",
        metavar="DESC",
        help="print / serve / explain a specific cuboid, e.g."
        " '$n:LND, $p:rigid, $y:rigid'; repeatable",
    )
    add = group("log_jsonl", "output")
    add(
        "--log-jsonl",
        metavar="PATH",
        help="write the request log as JSON Lines, one record per read"
        " or write (cluster: the last replayed shard count's)",
    )
    add = group("validate", "output")
    add(
        "--validate",
        action="store_true",
        help="check every answer / run against the serial NAIVE oracle",
    )
    return groups


def build_parser() -> argparse.ArgumentParser:
    groups = _option_groups()
    parser = _Parser(
        prog="x3",
        description="X^3: a cube operator for XML OLAP (ICDE 2007) —"
        " compute, serve, shard, query and benchmark X^3 cubes.",
    )
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="{" + ",".join(SUBCOMMANDS) + "}"
    )

    def command(
        name: str, run: Any, text: str, *parents: str
    ) -> argparse.ArgumentParser:
        sub = commands.add_parser(
            name,
            help=text,
            description=text,
            parents=[groups[parent] for parent in parents],
        )
        sub.set_defaults(run=run)
        return sub

    sub = command(
        "cube", run_cube,
        "Compute an X^3 cube over XML files.",
        "input", "engine", "cuboid", "profile", "trace_out",
    )
    sub.add_argument(
        "--algorithm",
        type=_algorithm,
        default="BUC",
        help="cube algorithm (default BUC; x3 bench runs the whole"
        " line-up)",
    )
    sub.add_argument(
        "--list-cuboids",
        action="store_true",
        help="list every lattice point and its group count",
    )
    sub.add_argument(
        "--min-support",
        type=float,
        default=0.0,
        help="iceberg threshold (COUNT cubes only)",
    )
    sub.add_argument(
        "--properties",
        action="store_true",
        help="report observed summarizability per axis",
    )
    sub.add_argument(
        "--export",
        metavar="PATH",
        help="also write the full cube as an XML document",
    )

    serving = ("input", "cache", "warm", "replay")
    command(
        "serve", run_serve,
        "Serve X^3 cube queries (cache + sound roll-up + engine"
        " recompute) over XML files: replay a skewed workload or print"
        " --cuboid.",
        *serving, "cuboid", "profile", "trace_out", "log_jsonl",
    )
    sub = command(
        "serve explain", run_explain,
        "Print the sound-source ladder decision tree for queries"
        " without executing them (DESIGN.md Sec. 5c).",
        *serving, "cuboid",
    )
    sub.add_argument(
        "--verify",
        action="store_true",
        help="execute each query after explaining it and fail when the"
        " served rung disagrees",
    )

    sub = command(
        "top", run_top,
        "Live serving dashboard: sliding-window latency quantiles, SLO"
        " burn, hottest lattice points and cache residency.",
        *serving,
    )
    sub.add_argument(
        "--watch",
        action="store_true",
        help="redraw the dashboard while the replay runs",
    )
    sub.add_argument(
        "--interval",
        type=int,
        default=20,
        help="with --watch: requests between redraws (default 20)",
    )
    sub.add_argument(
        "--slo",
        type=float,
        default=0.01,
        help="SLO threshold on modeled request latency, in simulated"
        " seconds (default 0.01)",
    )
    sub.add_argument(
        "--windows",
        type=float,
        nargs="+",
        default=[60.0, 300.0],
        help="sliding-window lengths in seconds (default 60 300)",
    )
    sub.add_argument(
        "--top-k",
        type=int,
        default=5,
        help="hottest lattice points shown per window (default 5)",
    )
    sub.add_argument(
        "--html",
        metavar="PATH",
        help="also write the standalone HTML serving report",
    )
    sub.add_argument(
        "--jsonl",
        metavar="PATH",
        help="also write the request log as JSON Lines",
    )

    sub = command(
        "cluster", run_cluster,
        "Replay an X^3 cube workload against a sharded, replicated"
        " cluster (scatter-gather over hash-partitioned CubeServers)"
        " across shard counts, with optional fault injection.",
        "input", "cache", "shards", "replay", "tracing", "log_jsonl",
        "validate",
    )
    sub.set_defaults(shards=[1, 2, 4], cache_cells=2048)
    sub.add_argument(
        "--writes",
        type=int,
        default=0,
        help="write batches interleaved into the replay (default 0)",
    )
    sub.add_argument(
        "--chaos",
        choices=sorted(PROFILES),
        default="none",
        help="fault-injection profile (default none)",
    )
    sub.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="fault planner seed (default 0)",
    )
    sub.add_argument(
        "--hedge-deadline",
        type=float,
        default=0.1,
        help="modeled seconds before a straggling shard read is hedged"
        " on a backup replica (default 0.1; negative disables)",
    )

    sub = command(
        "server", run_server,
        "Serve X^3 cube queries over HTTP/JSON (aggregate, drilldown,"
        " slice, dice, explain, /metrics) from either a single"
        " CubeServer or a sharded cluster.",
        "input", "cache", "shards", "catalog", "replay", "tracing",
    )
    sub.set_defaults(requests=25, seed=17)
    sub.add_argument("--host", default="127.0.0.1", help="bind address")
    sub.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default 0: pick a free one and print it)",
    )
    sub.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission budget: concurrent requests before 429s",
    )
    sub.add_argument(
        "--auth-token",
        action="append",
        metavar="TOKEN=TENANT",
        help="register a bearer token for a tenant; repeatable. With "
        "none registered the server is open (anonymous tenant)",
    )
    sub.add_argument(
        "--lang",
        metavar="STMT",
        help="boot, POST the X^3QL statement to /api/v1/query over "
        "the live socket, print the round-trip and exit (smoke mode)",
    )
    sub.add_argument(
        "--serve-forever",
        action="store_true",
        help="serve in the foreground instead of running the load "
        "generator and exiting",
    )
    sub.add_argument(
        "--clients",
        type=int,
        default=4,
        help="load-generator closed-loop clients (default 4)",
    )
    sub.add_argument(
        "--latency-jsonl",
        metavar="PATH",
        help="write one JSON line per load-generator request",
    )

    sub = command(
        "sql", run_sql,
        "Interactive X^3QL shell over a CubeServer or a sharded cluster"
        " (same backends as x3 server).",
        "input", "cache", "shards", "catalog",
    )
    sub.add_argument(
        "-c",
        "--execute",
        action="append",
        metavar="STMT",
        help="execute a statement and exit (repeatable)",
    )
    sub.add_argument(
        "--json",
        action="store_true",
        help="JSON output instead of aligned tables",
    )

    sub = command(
        "bench", bench.run,
        "Regenerate the evaluation figures of 'X^3: A Cube Operator for"
        " XML OLAP' (ICDE 2007) and check the paper's statements about"
        " them: exit 1 when a claim's outcome on a figure's own sweep"
        " differs from the one its FigureSpec records (with --scale,"
        " --axes or --memory the claims are printed, not enforced).",
        "engine", "validate", "trace_out",
    )
    sub.set_defaults(print_help=sub.print_help)
    sub.add_argument(
        "--figure", choices=sorted(FIGURES), help="run a single figure"
    )
    sub.add_argument("--all", action="store_true", help="run every figure")
    sub.add_argument(
        "--scaling",
        action="store_true",
        help="run the Sec. 4.4 scaling experiment",
    )
    sub.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="fact-count multiplier (default 1.0)",
    )
    sub.add_argument(
        "--axes",
        type=int,
        nargs="+",
        help="restrict the axis sweep (e.g. --axes 2 3 4)",
    )
    sub.add_argument(
        "--memory",
        type=int,
        default=None,
        help="operator memory budget in entries (default: per figure)",
    )
    sub.add_argument(
        "--smoke",
        action="store_true",
        help="run the smoke benchmark (serial vs parallel on a small"
        " workload, then the seeded serving replays) and exit non-zero on"
        " any result mismatch; without other flags it reproduces the"
        " committed BENCH_smoke.json",
    )
    sub.add_argument(
        "--artifact-dir",
        metavar="DIR",
        help="write the run's BENCH_<name>.json artifact into DIR"
        " (BENCH_smoke.json for --smoke, BENCH_figures.json for"
        " figure runs) via the unified artifact scheme",
    )
    sub.add_argument(
        "--dat",
        metavar="DIR",
        help="also write gnuplot-ready .dat series per figure",
    )

    trace = commands.add_parser(
        "trace",
        help="Explore trace JSONL and request logs.",
        description="Explore trace JSONL dumped by x3 server / x3 cluster"
        " --trace-jsonl, or a request log (x3 serve / x3 cluster"
        " --log-jsonl, x3 top --jsonl; one one-span record per read or"
        " write): list records, render waterfalls, export Chrome"
        " trace_event JSON.",
    )
    dump = _Parser(add_help=False)
    dump.add_argument("file", help="trace JSONL file")
    actions = trace.add_subparsers(dest="action", required=True)
    sub = actions.add_parser(
        "list", parents=[dump], help="summarize every trace in the file"
    )
    sub.set_defaults(run=trace_cli.run_list)
    sub.add_argument(
        "--status",
        choices=("ok", "deadline", "error"),
        help="only traces with this worst-span status",
    )
    sub.add_argument(
        "--name", help="only traces whose root name contains this"
    )
    sub.add_argument(
        "--retained",
        action="store_true",
        help="only tail-retained traces (error/deadline/slow)",
    )
    sub.add_argument(
        "--jsonl",
        action="store_true",
        help="emit the matching records as canonical JSONL instead of "
        "a table (what the CI determinism diff compares)",
    )
    sub = actions.add_parser(
        "show", parents=[dump], help="render one trace as a waterfall tree"
    )
    sub.set_defaults(run=trace_cli.run_show)
    sub.add_argument(
        "trace_id",
        help="trace id (any unambiguous prefix), or a record's seq when"
        " no trace id matches",
    )
    sub.add_argument(
        "--chrome-out",
        metavar="PATH",
        help="write the trace as Chrome trace_event JSON instead",
    )
    return parser


# ----------------------------------------------------------------------
# the shared preamble: input -> fact table -> backend
# ----------------------------------------------------------------------
def load_table(args: argparse.Namespace) -> Tuple[X3Query, FactTable]:
    """Parse the query and the documents into a fact table."""
    if args.demo:
        if args.files or args.query:
            raise X3Error("--demo replaces the files and --query arguments")
        from repro.datagen.publications import QUERY1_TEXT, figure1_document

        query = parse_x3_query(QUERY1_TEXT)
        return query, extract_fact_table([figure1_document()], query)
    if not args.files or not args.query:
        raise X3Error("need XML files and --query (or --demo)")
    with open(args.query, "r", encoding="utf-8") as handle:
        query = parse_x3_query(handle.read())
    docs = [parse_file(path) for path in args.files]
    return query, extract_fact_table(docs, query)


def build_trace_store(args: argparse.Namespace) -> Optional[TraceStore]:
    if not (args.trace or args.trace_jsonl):
        return None
    return TraceStore(sample_rate=args.trace_sample, seed=args.trace_seed)


def build_backend(
    args: argparse.Namespace,
    table: FactTable,
    trace_store: Optional[TraceStore] = None,
    *,
    shards: int = 0,
    **extra: Any,
) -> CubeBackend:
    """The backend the parsed arguments describe: a
    :class:`ClusterCoordinator` of ``shards`` shards, or a single
    :class:`CubeServer` when ``shards`` is 0.  ``extra`` carries what
    only one tool sets (telemetry, chaos)."""
    settings: Dict[str, Any] = dict(
        oracle=(
            PropertyOracle.from_data(table) if args.oracle == "data" else None
        ),
        cache_cells=args.cache_cells,
        trace_store=trace_store,
        **extra,
    )
    if shards:
        return ClusterCoordinator(table, shards, args.replicas, **settings)
    return CubeServer(table, **settings)


def _cube_server(
    args: argparse.Namespace,
    table: FactTable,
    telemetry: Optional[LiveTelemetry] = None,
) -> Tuple[CubeServer, List[LatticePoint]]:
    """The one CubeServer of serve / explain / top (``--warm``), with
    the points the warm-up admitted."""
    backend = cast(
        CubeServer, build_backend(args, table, telemetry=telemetry)
    )
    return backend, backend.warm() if args.warm else []


@contextlib.contextmanager
def _catalog_backend(
    args: argparse.Namespace,
    table: FactTable,
    description: str,
    trace_store: Optional[TraceStore] = None,
) -> Iterator[CubeCatalog]:
    """The ``--backend`` of server / sql, registered under
    ``--cube-name`` and closed on the way out."""
    cluster_settings: Dict[str, Any] = {}
    if args.backend == "cluster":
        if len(args.shards) != 1:
            raise X3Error("--shards takes one count with --backend cluster")
        cluster_settings = {
            "shards": args.shards[0],
            "hedge_deadline_seconds": None,
        }
    backend = build_backend(args, table, trace_store, **cluster_settings)
    try:
        catalog = CubeCatalog()
        catalog.register(
            LogicalCube.from_lattice(
                args.cube_name,
                table.lattice,
                measure=table.aggregate.function.upper(),
                description=description,
            ),
            backend,
        )
        yield catalog
    finally:
        backend.close()


def _sampled(
    args: argparse.Namespace, table: FactTable
) -> List[LatticePoint]:
    return sample_points(table.lattice, args.requests, args.seed)


def _profiling(args: argparse.Namespace) -> Any:
    """An ``obs.trace()`` session under ``--profile``, else nothing."""
    return obs.trace() if args.profile else contextlib.nullcontext()


def _print_profile(
    session: TraceSession, args: argparse.Namespace, totals: str = ""
) -> None:
    report = session.trace()
    print("profile (top spans by wall time):")
    for line in report.summary(top=args.top).splitlines():
        print(f"   {line}")
    if totals:
        print(totals)
    if args.trace_out:
        report.write_chrome(args.trace_out)
        print(f"wrote Chrome trace to {args.trace_out}")


# ----------------------------------------------------------------------
# the subcommands
# ----------------------------------------------------------------------
def run_cube(args: argparse.Namespace) -> int:
    with _profiling(args) as session:
        query, table = load_table(args)
        cube = compute_cube(
            table,
            ExecutionOptions(
                algorithm=args.algorithm,
                min_support=args.min_support,
                workers=args.workers,
                engine=args.engine,
            ),
        )
    lattice = table.lattice
    print(
        f"{len(table)} facts, {lattice.size()} cuboids, "
        f"{cube.total_cells()} cells "
        f"[{cube.algorithm}, {cube.simulated_seconds:.3f} sim-s]"
    )
    if cube.metrics is not None and cube.metrics.engine != "serial":
        print(f"   {cube.metrics.summary()}")
        print(
            f"   modeled speedup {cube.cost.speedup_estimate:.2f}x "
            f"({cube.cost.simulated_seconds:.3f} sim-s total work, "
            f"{cube.cost.parallel_simulated_seconds:.3f} sim-s critical"
            f" path)"
        )
    if session is not None:
        sorts = sum(
            value
            for phase, value in cube.phases.items()
            if phase.startswith("sorts_")
        )
        totals = (
            f"cpu ops {cube.cost.cpu_ops:g}, "
            f"page reads {cube.cost.page_reads:g}, "
            f"page writes {cube.cost.page_writes:g}, sorts {sorts:g}"
        )
        _print_profile(session, args, f"profile totals: {totals}")
    if args.properties:
        oracle = PropertyOracle.from_data(table)
        print("observed summarizability per axis (rigid state):")
        for position, states in enumerate(lattice.axis_states):
            print(
                f"   {states.axis.name}: "
                f"disjoint={oracle.axis_disjoint(position, states.rigid_index)} "
                f"covered={oracle.axis_covered(position, states.rigid_index)}"
            )
    if args.export:
        from repro.core.export import cube_to_xml

        with open(args.export, "w", encoding="utf-8") as handle:
            handle.write(cube_to_xml(cube, query=query))
        print(f"wrote cube to {args.export}")
    if args.list_cuboids:
        for point in lattice.topo_finer_first():
            print(
                f"   {lattice.describe(point)}: "
                f"{len(cube.cuboids[point])} groups"
            )
        return 0
    for description in args.cuboid or [
        lattice.describe(lattice.top),
        lattice.describe(lattice.bottom),
    ]:
        point = resolve_point_spec(lattice, description)
        serve.print_cuboid(
            lattice.describe(point), cube.cuboid(point), args.top
        )
    return 0


def run_serve(args: argparse.Namespace) -> int:
    with _profiling(args) as session:
        _, table = load_table(args)
        backend, warmed = _cube_server(args, table)
        if args.warm:
            print(
                f"warmed {len(warmed)} cuboids "
                f"({backend.cache.used_cells} cells)"
            )
        if args.cuboid:
            for description in args.cuboid:
                serve.serve_cuboid(backend, description, args.top)
        else:
            replay(backend, _sampled(args, table))
        serve.report(backend, table, args.log_jsonl)
    if session is not None:
        print("rungs (from the profile's serve.request spans):")
        for line in serve.rung_breakdown(session.trace()):
            print(f"   {line}")
        _print_profile(session, args)
    return 0


def run_explain(args: argparse.Namespace) -> int:
    _, table = load_table(args)
    backend, _ = _cube_server(args, table)
    points = (
        [backend.resolve_point(text) for text in args.cuboid]
        if args.cuboid
        else _sampled(args, table)
    )
    return serve.explain(backend, points, args.verify)


def run_top(args: argparse.Namespace) -> int:
    _, table = load_table(args)
    telemetry = LiveTelemetry(
        windows=args.windows,
        slo_modeled_seconds=args.slo,
        top_k=args.top_k,
    )
    backend, _ = _cube_server(args, table, telemetry)
    watch = top.watcher(backend, args.interval) if args.watch else None
    replay(backend, _sampled(args, table), after=watch)
    top.report(backend, args.watch, args.jsonl, args.html)
    return 0


def run_cluster(args: argparse.Namespace) -> int:
    _, table = load_table(args)
    print(
        f"{len(table)} facts, {table.lattice.size()} cuboids, "
        f"aggregate {table.aggregate.function}"
    )
    points = _sampled(args, table)
    writes = plan_writes(table.rows, args.requests, args.writes)
    mismatches = 0
    for index, n_shards in enumerate(args.shards):
        trace_store = build_trace_store(args)
        backend = cast(
            ClusterCoordinator,
            build_backend(
                args,
                table,
                trace_store,
                shards=n_shards,
                **cluster.fault_options(args),
            ),
        )
        with backend:
            check = (
                cluster.Validator(table, writes) if args.validate else None
            )
            replay(backend, points, writes, after=check)
            cluster.report(backend, check)
            if check is not None:
                mismatches += check.mismatches
            if index < len(args.shards) - 1:
                continue
            if args.log_jsonl:
                written = backend.events.write_jsonl(args.log_jsonl)
                print(
                    f"wrote {written} cluster records to {args.log_jsonl}"
                )
            if trace_store is not None:
                trace_cli.report_store(trace_store, args.trace_jsonl)
    return 1 if mismatches else 0


def run_server(args: argparse.Namespace) -> int:
    auth = server.parse_tokens(args.auth_token)
    _, table = load_table(args)
    trace_store = build_trace_store(args)
    description = (
        f"{len(table)} facts over {table.lattice.size()} cuboids "
        f"({args.backend})"
    )
    with _catalog_backend(args, table, description, trace_store) as catalog:
        return server.run(args, table, catalog, auth, trace_store)


def run_sql(args: argparse.Namespace) -> int:
    _, table = load_table(args)
    description = f"x3-sql session ({args.backend})"
    with _catalog_backend(args, table, description) as catalog:
        shell = repl.Repl(catalog, json_output=args.json)
        return repl.run(shell, args.execute)


# ----------------------------------------------------------------------
# the entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    """Parse, dispatch, and turn every expected failure into
    ``error: ...`` on stderr and exit status 1.  With ``argv`` unset the
    process arguments are used, and a program name of ``x3-<sub>`` (the
    historical console scripts) selects that subcommand."""
    if argv is None:
        argv = sys.argv[1:]
        alias = os.path.basename(sys.argv[0])
        if alias.startswith("x3-") and alias[3:] in SUBCOMMANDS:
            argv = [alias[3:], *argv]
    if argv[:2] == ["serve", "explain"]:
        argv = ["serve explain", *argv[2:]]
    try:
        args = build_parser().parse_args(argv)
        # bench has no --profile: there --trace-out alone traces the run.
        if vars(args).get("profile") is False and args.trace_out:
            raise X3Error("--trace-out requires --profile")
        status: int = args.run(args)
        return status
    except (X3Error, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
