"""The CI performance-regression gate (``python -m repro.bench.perfgate``).

Collects a small battery of **modeled** performance metrics — the
deterministic cost-model numbers the whole benchmark suite is built on,
host-independent by construction — and compares them against a baseline
committed to the repository.  A metric that regresses by more than the
tolerance (default 25%) fails the build; improvements merely update the
report.

Metrics:

- ``engine_serial_seconds`` — simulated seconds of a serial NAIVE run
  over the standard dense/covered/disjoint workload;
- ``engine_parallel_critical_path_seconds`` — the busiest worker's
  simulated seconds under the 4-worker thread engine (the engine's
  modeled latency);
- ``engine_modeled_speedup`` — serial work over critical path;
- ``serve_cold_seconds`` — total modeled cost of the standard serve
  replay with a zero cache budget (every request recomputes);
- ``serve_warm_seconds`` — the same replay with a full-lattice budget;
- ``serve_hit_rate`` — fraction of replayed requests answered above the
  recompute tier at the standard budget;
- ``serve_p95_modeled_seconds`` — p95 modeled request latency of the
  warm replay, straight from the live-telemetry window (the SLO the
  serving layer reports in production);
- ``cluster_p95_modeled_seconds`` — p95 modeled request latency of the
  same replay scatter-gathered over a 4-shard / 2-replica cluster with
  cold replicas (every shard read recomputes its slice), the cluster
  layer's fan-out SLO;
- ``server_p95_modeled_seconds`` — p95 modeled latency of the same
  replay driven through the complete HTTP front-door request path
  (route parsing, logical-model binding, JSON encode/decode) via the
  transport-independent :class:`repro.server.X3Api` — single-threaded
  and on the modeled time base, so the number is deterministic while
  still covering every layer a socket request crosses;
- ``columnar_speedup_vs_dict`` — modeled COUNTER-over-COLUMNAR ratio on
  the gate workload.  Besides the relative tolerance, this metric has an
  **absolute floor** (:data:`ABSOLUTE_FLOORS`): the build fails outright
  if the columnar sweep is less than 3x faster than the dict counter at
  smoke scale, baseline or no baseline;
- ``buc_columnar_speedup_vs_dict`` / ``td_columnar_speedup_vs_dict`` —
  modeled dict-kernel-over-columnar-kernel ratio for the BUC and TD
  algorithms on the gate workload (the same algorithm run twice, pinned
  to each encoding).  Both carry a 2.0 absolute floor: the columnar
  BUC/TD kernels must stay at least 2x under their dict counterparts;
- ``tracing_overhead_ratio`` — the warm serve replay's p95 modeled
  latency with a :class:`repro.obs.trace_store.TraceStore` attached at
  full sampling, over the same replay untraced.  Tracing must never
  leak into the cost model: spans observe modeled time, they do not
  spend it.  The metric carries an **absolute ceiling**
  (:data:`ABSOLUTE_CEILINGS`) of 1.10 — the build fails outright if the
  traced replay models more than 10% slower, baseline or no baseline;
- ``lang_parse_compile_overhead_ratio`` — the same front-door replay
  expressed as X^3QL text through ``POST /api/v1/query`` (tokenize,
  parse, compile through the logical model, then serve), over the raw
  JSON endpoint replay.  The language layer charges a deterministic
  per-token modeled cost (:func:`repro.lang.compiler.modeled_lang_seconds`)
  folded into each response's ``modeled_seconds``, so the ratio is
  reproducible; its 1.10 absolute ceiling keeps the text front door
  within 10% of speaking the wire format directly.

Refresh the committed baseline after an intentional perf change::

    python -m repro.bench.perfgate --update \
        --baseline benchmarks/baselines/BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.serve import CubeServer
from repro.obs.live import percentile
from repro.serve.replay import replay, sample_points
from repro.testing import treebank_workload

#: Metric name -> direction; "lower" fails when the value grows, and
#: "higher" fails when it shrinks.
METRIC_DIRECTIONS = {
    "engine_serial_seconds": "lower",
    "engine_parallel_critical_path_seconds": "lower",
    "engine_modeled_speedup": "higher",
    "serve_cold_seconds": "lower",
    "serve_warm_seconds": "lower",
    "serve_hit_rate": "higher",
    "serve_p95_modeled_seconds": "lower",
    "cluster_p95_modeled_seconds": "lower",
    "server_p95_modeled_seconds": "lower",
    "columnar_speedup_vs_dict": "higher",
    "buc_columnar_speedup_vs_dict": "higher",
    "td_columnar_speedup_vs_dict": "higher",
    "tracing_overhead_ratio": "lower",
    "lang_parse_compile_overhead_ratio": "lower",
}

#: Hard minimums enforced regardless of the committed baseline: a
#: "higher" metric below its floor fails the gate even if the baseline
#: agrees (a baseline refresh must never launder an absolute regression).
ABSOLUTE_FLOORS = {
    "columnar_speedup_vs_dict": 3.0,
    "buc_columnar_speedup_vs_dict": 2.0,
    "td_columnar_speedup_vs_dict": 2.0,
}

#: Hard maximums, the floor's mirror image: a "lower" metric above its
#: ceiling fails the gate regardless of the committed baseline.
ABSOLUTE_CEILINGS = {
    "tracing_overhead_ratio": 1.10,
    "lang_parse_compile_overhead_ratio": 1.10,
}

WORKERS = 4
REPLAY_REQUESTS = 80
REPLAY_SEED = 13
CLUSTER_SHARDS = 4
CLUSTER_REPLICAS = 2


def collect_metrics() -> Dict[str, float]:
    """Run the gate workloads and return the modeled metric values."""
    prepared = treebank_workload("dense", coverage=True, disjoint=True)
    serial = prepared.run("NAIVE", workers=1)
    parallel = prepared.run("NAIVE", workers=WORKERS, engine="thread")

    table = prepared.table
    points = sample_points(table.lattice, REPLAY_REQUESTS, REPLAY_SEED)

    def replay_server(cache_cells: int, trace_store=None) -> CubeServer:
        server = CubeServer(
            table,
            prepared.oracle,
            cache_cells=cache_cells,
            trace_store=trace_store,
        )
        replay(server, points)
        return server

    from repro.core.materialize import cuboid_sizes

    total_cells = sum(cuboid_sizes(table, table.lattice).values())
    cold = replay_server(0).stats()
    warm_server = replay_server(total_cells)
    warm = warm_server.stats()
    # The whole replay lands inside the shortest telemetry window, so
    # the p95 is over all 80 requests — deterministic because it is a
    # quantile of modeled (not wall) latencies.
    warm_window = warm_server.telemetry.snapshot()

    # The same warm replay with every request traced at full sampling:
    # spans must observe modeled time, never add to it, so the p95
    # ratio stays ~1.0 (the gate's absolute ceiling is 1.10).
    from repro.obs.trace_store import TraceStore

    traced_window = replay_server(
        total_cells, trace_store=TraceStore(seed=REPLAY_SEED)
    ).telemetry.snapshot()

    from repro.cluster import ClusterCoordinator

    with ClusterCoordinator(
        table,
        CLUSTER_SHARDS,
        CLUSTER_REPLICAS,
        oracle=prepared.oracle,
        cache_cells=0,
        hedge_deadline_seconds=None,
    ) as cluster:
        replay(cluster, points)
        cluster_p95 = percentile(cluster.modeled_latencies(), 0.95)

    server_p95 = _server_replay_p95(prepared, points)
    lang_p95 = _lang_replay_p95(prepared, points)

    counter = prepared.run("COUNTER", workers=1)
    columnar = prepared.run("COLUMNAR", workers=1)
    buc_dict = prepared.run("BUC", workers=1, encoding="dict")
    buc_columnar = prepared.run("BUC", workers=1)
    td_dict = prepared.run("TD", workers=1, encoding="dict")
    td_columnar = prepared.run("TD", workers=1)

    return {
        "engine_serial_seconds": serial.cost.simulated_seconds,
        "engine_parallel_critical_path_seconds": (
            parallel.cost.parallel_simulated_seconds
        ),
        "engine_modeled_speedup": parallel.cost.speedup_estimate,
        "serve_cold_seconds": cold.modeled_cost_seconds,
        "serve_warm_seconds": warm.modeled_cost_seconds,
        "serve_hit_rate": warm.hit_rate,
        "serve_p95_modeled_seconds": warm_window.modeled_quantiles[0.95],
        "cluster_p95_modeled_seconds": cluster_p95,
        "server_p95_modeled_seconds": server_p95,
        "columnar_speedup_vs_dict": (
            counter.cost.simulated_seconds / columnar.cost.simulated_seconds
        ),
        "buc_columnar_speedup_vs_dict": (
            buc_dict.cost.simulated_seconds
            / buc_columnar.cost.simulated_seconds
        ),
        "td_columnar_speedup_vs_dict": (
            td_dict.cost.simulated_seconds
            / td_columnar.cost.simulated_seconds
        ),
        "tracing_overhead_ratio": (
            traced_window.modeled_quantiles[0.95]
            / warm_window.modeled_quantiles[0.95]
        ),
        "lang_parse_compile_overhead_ratio": lang_p95 / server_p95,
    }


def _server_replay_p95(prepared, points) -> float:
    """p95 modeled latency of the replay through the HTTP API core.

    The replay runs single-threaded through
    :meth:`repro.server.X3Api.handle` — the full front-door path minus
    the socket — and the latencies are the *modeled* seconds each JSON
    response reports, so the quantile is deterministic."""
    from repro.server import CubeCatalog, LogicalCube, X3Api

    table = prepared.table
    server = CubeServer(table, prepared.oracle)
    catalog = CubeCatalog()
    catalog.register(
        LogicalCube.from_lattice("gate", table.lattice), server
    )
    api = X3Api(catalog)
    latencies = []
    for point in points:
        body = json.dumps(
            {"point": table.lattice.describe(point)}
        ).encode("utf-8")
        response = api.handle(
            "POST", "/api/v1/cubes/gate/aggregate", body
        )
        assert response.status == 200, response.body
        latencies.append(
            float(json.loads(response.body)["modeled_seconds"])
        )
    return percentile(latencies, 0.95)


def _lang_replay_p95(prepared, points) -> float:
    """p95 modeled latency of the replay as X^3QL text statements.

    The same points as :func:`_server_replay_p95`, phrased as ``ROLLUP``
    statements against a fresh identically-configured server, driven
    through ``POST /api/v1/query``.  Each response's ``modeled_seconds``
    includes the deterministic parse+compile charge, so the ratio over
    the JSON replay isolates exactly the language layer's modeled
    overhead."""
    from repro.server import CubeCatalog, LogicalCube, X3Api

    table = prepared.table
    server = CubeServer(table, prepared.oracle)
    catalog = CubeCatalog()
    catalog.register(
        LogicalCube.from_lattice("gate", table.lattice), server
    )
    api = X3Api(catalog)
    latencies = []
    for point in points:
        assignments = []
        for part in table.lattice.describe(point).split(", "):
            axis, _, label = part.partition(":")
            if label != "LND":
                assignments.append(f"{axis.lstrip('$')}:{label}")
        text = "ROLLUP gate"
        if assignments:
            text += " BY " + ", ".join(assignments)
        response = api.handle(
            "POST", "/api/v1/query", text.encode("utf-8")
        )
        assert response.status == 200, response.body
        latencies.append(
            float(json.loads(response.body)["modeled_seconds"])
        )
    return percentile(latencies, 0.95)


def compare(
    metrics: Dict[str, float],
    baseline: Dict[str, float],
    tolerance: float,
) -> List[str]:
    """Human-readable failure messages for every regressed metric."""
    failures = []
    for name, value in sorted(metrics.items()):
        floor = ABSOLUTE_FLOORS.get(name)
        if floor is not None and value < floor:
            failures.append(
                f"{name}: {value:.6f} is below the absolute floor "
                f"{floor:.6f}"
            )
        ceiling = ABSOLUTE_CEILINGS.get(name)
        if ceiling is not None and value > ceiling:
            failures.append(
                f"{name}: {value:.6f} is above the absolute ceiling "
                f"{ceiling:.6f}"
            )
        reference = baseline.get(name)
        if reference is None:
            continue  # a metric new since the baseline cannot regress
        direction = METRIC_DIRECTIONS[name]
        if direction == "lower":
            limit = reference * (1.0 + tolerance)
            if value > limit:
                failures.append(
                    f"{name}: {value:.6f} exceeds baseline "
                    f"{reference:.6f} by more than {tolerance:.0%}"
                )
        else:
            limit = reference * (1.0 - tolerance)
            if value < limit:
                failures.append(
                    f"{name}: {value:.6f} fell below baseline "
                    f"{reference:.6f} by more than {tolerance:.0%}"
                )
    return failures


def load_baseline(path: str) -> Dict[str, float]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return {
        name: float(value)
        for name, value in document["metrics"].items()
    }


def write_report(path: str, metrics: Dict[str, float]) -> None:
    from repro.bench.runner import BENCH_ARTIFACT_SCHEMA

    payload = {
        "artifact": "perfgate",
        "schema": BENCH_ARTIFACT_SCHEMA,
        "metrics": metrics,
        "directions": METRIC_DIRECTIONS,
        "floors": ABSOLUTE_FLOORS,
        "ceilings": ABSOLUTE_CEILINGS,
        "workload": {
            "kind": "treebank",
            "density": "dense",
            "coverage": True,
            "disjoint": True,
        },
        "replay": {"requests": REPLAY_REQUESTS, "seed": REPLAY_SEED},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def format_markdown(
    metrics: Dict[str, float],
    baseline: Dict[str, float],
    failures: List[str],
) -> str:
    """A GitHub-flavoured markdown table of the gate's verdict.

    CI appends this to ``$GITHUB_STEP_SUMMARY`` so the metric values,
    baselines and floors are readable from the run page without digging
    through logs.
    """
    failed_names = {failure.split(":", 1)[0] for failure in failures}
    lines = [
        "### Perf gate (modeled metrics)",
        "",
        "| metric | value | baseline | floor | ceiling | direction | status |",
        "| --- | ---: | ---: | ---: | ---: | :---: | :---: |",
    ]
    for name, value in sorted(metrics.items()):
        reference = baseline.get(name)
        floor = ABSOLUTE_FLOORS.get(name)
        ceiling = ABSOLUTE_CEILINGS.get(name)
        lines.append(
            "| {name} | {value:.6f} | {reference} | {floor} |"
            " {ceiling} | {direction} | {status} |".format(
                name=f"`{name}`",
                value=value,
                reference=(
                    f"{reference:.6f}" if reference is not None else "—"
                ),
                floor=f"{floor:.1f}" if floor is not None else "—",
                ceiling=f"{ceiling:.2f}" if ceiling is not None else "—",
                direction=METRIC_DIRECTIONS[name],
                status="❌" if name in failed_names else "✅",
            )
        )
    lines.append("")
    if failures:
        lines.append("**Regressions:**")
        lines.extend(f"- {failure}" for failure in failures)
    else:
        lines.append("All metrics within tolerance.")
    lines.append("")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.perfgate",
        description="Modeled-performance regression gate for CI.",
    )
    parser.add_argument(
        "--baseline",
        default="benchmarks/baselines/BENCH_baseline.json",
        help="committed baseline JSON to compare against",
    )
    parser.add_argument(
        "--out", help="also write the collected metrics to this path"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative regression per metric (default 0.25)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline with the collected metrics and exit 0",
    )
    parser.add_argument(
        "--summary",
        metavar="PATH",
        help="append a markdown metric table to PATH (pass"
        ' "$GITHUB_STEP_SUMMARY" in CI)',
    )
    args = parser.parse_args(argv)

    metrics = collect_metrics()
    for name, value in sorted(metrics.items()):
        print(f"{name:45s} {value:.6f}")
    if args.out:
        write_report(args.out, metrics)
        print(f"wrote {args.out}")
    if args.update:
        write_report(args.baseline, metrics)
        print(f"updated baseline {args.baseline}")
        return 0

    try:
        baseline = load_baseline(args.baseline)
    except OSError as error:
        print(
            f"error: cannot read baseline ({error}); run with --update "
            f"to create it",
            file=sys.stderr,
        )
        return 1
    failures = compare(metrics, baseline, args.tolerance)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write(format_markdown(metrics, baseline, failures))
    if failures:
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        return 1
    print(
        f"perf gate OK: {len(metrics)} metrics within "
        f"{args.tolerance:.0%} of baseline"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
