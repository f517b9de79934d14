"""Run cube algorithms over workloads and collect measurements.

Each run reports two time measures:

- ``simulated_seconds`` — the deterministic cost model (CPU operations +
  page I/O), which is what reproduces the *shape* of the paper's figures
  independent of host speed;
- ``wall_seconds`` — real elapsed time of the Python execution, captured
  for completeness (``benchmarks/e2e`` is the wall-clock benchmark).

Parallel runs (``workers > 1``) additionally report the engine's modeled
critical path (``par_sim_seconds``: the busiest worker's simulated
seconds) and merge time, so speedups are measurable even on single-core
hosts where wall-clock parallelism cannot show up.

Runs optionally validate results against the NAIVE oracle; for the
optimized variants on property-violating inputs the validation is
*expected* to fail (the paper timed those runs anyway, Fig. 9 — so do
we, recording ``correct=False``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.cluster import ClusterCoordinator
from repro.core.bindings import FactTable
from repro.core.cube import CubeResult, ExecutionOptions, compute_cube
from repro.core.materialize import cuboid_sizes
from repro.core.query import CubeBackend
from repro.datagen.workload import Workload, WorkloadConfig, build_workload
from repro.obs.live import percentile
from repro.obs.trace_store import TraceStore
from repro.serve import CubeServer
from repro.serve.replay import replay, sample_points
from repro.server import CubeCatalog, LogicalCube, X3Api


@dataclass
class AlgorithmRun:
    """One (workload, algorithm) measurement."""

    workload: str
    algorithm: str
    n_axes: int
    n_facts: int
    simulated_seconds: float
    wall_seconds: float
    cells: int
    passes: int
    correct: Optional[bool] = None
    dnf: bool = False
    workers: int = 1
    engine: str = "serial"
    par_sim_seconds: float = 0.0
    merge_seconds: float = 0.0
    queue_wait_seconds: float = 0.0
    encoding: str = "auto"

    @property
    def work_over_path(self) -> float:
        """Total simulated work over the schedule's critical path: how
        evenly the partitions load the workers, not a speedup (the rows'
        own ``wall_seconds`` say what the pool cost on this host)."""
        if self.par_sim_seconds <= 0.0:
            return 1.0
        return self.simulated_seconds / self.par_sim_seconds

    def as_row(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "algorithm": self.algorithm,
            "axes": self.n_axes,
            "facts": self.n_facts,
            "sim_seconds": round(self.simulated_seconds, 6),
            "wall_seconds": round(self.wall_seconds, 6),
            "cells": self.cells,
            "passes": self.passes,
            "correct": self.correct,
            "dnf": self.dnf,
            "workers": self.workers,
            "engine": self.engine,
            "par_sim_seconds": round(self.par_sim_seconds, 6),
            "merge_seconds": round(self.merge_seconds, 6),
            "queue_wait_seconds": round(self.queue_wait_seconds, 6),
            "encoding": self.encoding,
        }

    @classmethod
    def from_row(cls, row: Mapping[str, Any]) -> "AlgorithmRun":
        """An artifact row (see :meth:`as_row`) back into a run; keys
        the artifact adds around the row (``figure``) are ignored."""
        renamed = {
            "axes": "n_axes",
            "facts": "n_facts",
            "sim_seconds": "simulated_seconds",
        }
        known = {spec.name for spec in fields(cls)}
        values = {renamed.get(key, key): value for key, value in row.items()}
        return cls(**{k: v for k, v in values.items() if k in known})


def run_algorithm(
    table: FactTable,
    options: ExecutionOptions,
    reference: Optional[CubeResult] = None,
    workload_name: str = "",
    n_facts: int = 0,
    dnf_simulated_limit: Optional[float] = None,
) -> AlgorithmRun:
    """Time one run of ``options`` over an extracted fact table."""
    begin = time.perf_counter()
    result = compute_cube(table, options)
    wall = time.perf_counter() - begin
    correct = (
        result.same_contents(reference) if reference is not None else None
    )
    dnf = (
        dnf_simulated_limit is not None
        and result.simulated_seconds > dnf_simulated_limit
    )
    metrics = result.metrics
    return AlgorithmRun(
        workload=workload_name,
        algorithm=options.algorithm,
        n_axes=table.lattice.axis_count,
        n_facts=n_facts or len(table),
        simulated_seconds=result.simulated_seconds,
        wall_seconds=wall,
        cells=result.total_cells(),
        passes=result.passes,
        correct=correct,
        dnf=dnf,
        workers=options.workers,
        engine=metrics.engine if metrics is not None else options.effective_engine,
        par_sim_seconds=result.cost.parallel_simulated_seconds,
        merge_seconds=result.cost.merge_seconds,
        queue_wait_seconds=(
            metrics.queue_wait_seconds if metrics is not None else 0.0
        ),
        encoding=options.encoding,
    )


def run_workload(
    workload: Workload,
    algorithms: Sequence[str],
    memory_entries: Optional[int] = None,
    validate: bool = False,
    variants: Sequence[Mapping[str, Any]] = ({},),
) -> List[AlgorithmRun]:
    """Extract once, then time each algorithm (the paper's protocol).

    ``variants`` times every algorithm once per entry, each a set of
    :class:`ExecutionOptions` overrides on the same extracted table: the
    kernel-duel figure passes the two encodings, the smoke a serial and
    a parallel engine.  The columnar encoding every algorithm but NAIVE
    runs on is built here, before timing, like the paper's witness file:
    a load-time artifact.  Modeled seconds never depend on it being warm.
    """
    table = workload.fact_table()
    oracle = workload.oracle(table)
    table.columnar()
    reference = (
        compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        if validate
        else None
    )
    return [
        run_algorithm(
            table,
            ExecutionOptions(
                algorithm=algorithm,
                oracle=oracle,
                memory_entries=memory_entries,
                **variant,
            ),
            reference=reference,
            workload_name=workload.name,
            n_facts=len(table),
        )
        for algorithm in algorithms
        for variant in variants
    ]


def run_config(
    config: WorkloadConfig,
    algorithms: Sequence[str],
    memory_entries: Optional[int] = None,
    validate: bool = False,
    variants: Sequence[Mapping[str, Any]] = ({},),
) -> List[AlgorithmRun]:
    """Build the workload from its config, then run."""
    return run_workload(
        build_workload(config), algorithms, memory_entries, validate, variants
    )


SMOKE_ALGORITHMS = ("NAIVE", "COUNTER", "COLUMNAR", "BUC", "TD")
SMOKE_CONFIG = WorkloadConfig(kind="treebank", n_facts=80, n_axes=3)


def run_smoke(workers: int = 2, engine: str = "thread") -> List[AlgorithmRun]:
    """The CI smoke benchmark: a small workload, serial and parallel.

    Every serial run is validated against NAIVE; every parallel run must
    be result-identical to its serial twin (the engine's contract), so a
    ``correct=False`` row fails the smoke.
    """
    return run_config(
        SMOKE_CONFIG,
        SMOKE_ALGORITHMS,
        validate=True,
        variants=(
            {"workers": 1, "engine": "serial"},
            {"workers": workers, "engine": engine},
        ),
    )


REPLAY_CONFIG = WorkloadConfig(
    kind="treebank", n_facts=300, n_axes=4,
    density="dense", coverage=True, disjoint=True,
)
REPLAY_REQUESTS = 80
REPLAY_SEED = 13
#: The text front door may model at most this much over the JSON one.
X3QL_P95_CEILING = 1.10


def run_replays() -> Dict[str, Dict[str, float]]:
    """The serving half of the smoke record: one seeded request mix
    replayed through every front door, modeled numbers only.

    ``serve_cold`` has no cache (every request recomputes), ``serve_warm``
    a budget of the whole lattice, ``serve_warm_traced`` the same under a
    :class:`TraceStore` at full sampling (spans observe modeled time,
    they never spend it); ``cluster_cold`` scatter-gathers over 4 shards
    x 2 cold replicas; ``api_json`` / ``api_x3ql`` go through
    :meth:`X3Api.handle` — routing, logical-model binding, JSON — as
    ``POST .../aggregate`` bodies and as X^3QL ``ROLLUP`` text, whose
    per-token compile charge is the whole difference between the two.
    """
    workload = build_workload(REPLAY_CONFIG)
    table = workload.fact_table()
    oracle = workload.oracle(table)
    lattice = table.lattice
    points = sample_points(lattice, REPLAY_REQUESTS, REPLAY_SEED)
    total_cells = sum(cuboid_sizes(table, lattice).values())

    def summary(
        latencies: List[float], servers: Sequence[CubeServer]
    ) -> Dict[str, float]:
        stats = [server.stats() for server in servers]
        recomputed = sum(each.tiers.get("recompute", 0) for each in stats)
        total = 0.0  # added left to right, as the backends' own counters
        for latency in latencies:  # are: sum() is compensated from 3.12 on
            total += latency
        return {
            "modeled_seconds": total,
            "hit_rate": 1.0 - recomputed / sum(each.requests for each in stats),
            "modeled_p95_seconds": percentile(latencies, 0.95),
        }

    def replayed(
        backend: CubeBackend, servers: Sequence[CubeServer]
    ) -> Dict[str, float]:
        latencies: List[float] = []
        replay(
            backend,
            points,
            after=lambda _i, _q, result: latencies.append(result.modeled_seconds),
        )
        return summary(latencies, servers)

    def served(
        cache_cells: int, trace_store: Optional[TraceStore] = None
    ) -> Dict[str, float]:
        server = CubeServer(
            table, oracle, cache_cells=cache_cells, trace_store=trace_store
        )
        return replayed(server, [server])

    def through_api(path: str, body: Callable[[str], str]) -> Dict[str, float]:
        server = CubeServer(table, oracle)
        catalog = CubeCatalog()
        catalog.register(LogicalCube.from_lattice("smoke", lattice), server)
        api = X3Api(catalog)
        latencies = []
        for point in points:
            text = body(lattice.describe(point))
            response = api.handle("POST", path, text.encode("utf-8"))
            if response.status != 200:
                raise RuntimeError(f"{path} {text!r}: {response.body!r}")
            latencies.append(float(json.loads(response.body)["modeled_seconds"]))
        return summary(latencies, [server])

    def rollup_text(described: str) -> str:
        levels = [part.lstrip("$") for part in described.split(", ")]
        by = ", ".join(level for level in levels if not level.endswith(":LND"))
        return "ROLLUP smoke" + (f" BY {by}" if by else "")

    with ClusterCoordinator(
        table, 4, 2, oracle=oracle, cache_cells=0, hedge_deadline_seconds=None
    ) as cluster:
        cluster_cold = replayed(
            cluster,
            [replica.server for shard in cluster.shards for replica in shard],
        )
    return {
        "serve_cold": served(0),
        "serve_warm": served(total_cells),
        "serve_warm_traced": served(total_cells, TraceStore(seed=REPLAY_SEED)),
        "cluster_cold": cluster_cold,
        "api_json": through_api(
            "/api/v1/cubes/smoke/aggregate",
            lambda described: json.dumps({"point": described}),
        ),
        "api_x3ql": through_api("/api/v1/query", rollup_text),
    }


def smoke_failures(
    runs: Sequence[AlgorithmRun], replays: Mapping[str, Mapping[str, float]]
) -> List[str]:
    """Why this smoke fails, one line each; empty when it passes."""
    failures = []
    wrong = sorted({run.algorithm for run in runs if run.correct is False})
    if wrong:
        failures.append(f"wrong results from {', '.join(wrong)}")
    if replays["serve_warm_traced"] != replays["serve_warm"]:
        failures.append(
            "tracing leaked into the cost model: serve_warm_traced"
            f" {dict(replays['serve_warm_traced'])} != serve_warm"
            f" {dict(replays['serve_warm'])}"
        )
    x3ql = replays["api_x3ql"]["modeled_p95_seconds"]
    bound = X3QL_P95_CEILING * replays["api_json"]["modeled_p95_seconds"]
    if x3ql > bound:
        failures.append(
            f"X^3QL modeled p95 {x3ql:.3e} is above {X3QL_P95_CEILING:.2f}x"
            f" the JSON endpoint's ({bound:.3e})"
        )
    return failures
