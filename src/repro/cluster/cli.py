"""What ``x3 cluster`` adds to the shared replay: chaos, validation and
the per-shard-count report.

The tool replays the same deterministic skewed request mix ``x3 serve``
uses, once per requested shard count, optionally interleaving write
batches (rotating delete / re-insert of fact slices) and seeded chaos
faults.  With ``--validate`` every gathered answer is checked against a
serial NAIVE recompute over the rows the write log implies at that
moment — the cluster's degraded answers must be *exactly* the serial
answers, which is the whole point of the fault-injection harness.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.chaos import ChaosEngine, get_profile
from repro.cluster.coordinator import ClusterCoordinator
from repro.core.bindings import FactRow, FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.lattice import LatticePoint
from repro.core.query import Query, QueryResult
from repro.errors import X3Error
from repro.obs.live import percentile
from repro.serve.replay import WritePlan


def parse_shards(text: str) -> List[int]:
    try:
        shards = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise X3Error(f"bad --shards value {text!r}") from None
    if not shards or any(n <= 0 for n in shards):
        raise X3Error(f"bad --shards value {text!r}")
    return shards


def fault_options(args: argparse.Namespace) -> Dict[str, Any]:
    """The coordinator keywords ``--chaos*`` / ``--hedge-deadline`` set."""
    return {
        "chaos": (
            ChaosEngine(get_profile(args.chaos), seed=args.chaos_seed)
            if args.chaos != "none"
            else None
        ),
        "hedge_deadline_seconds": (
            None if args.hedge_deadline < 0 else args.hedge_deadline
        ),
    }


def reference_cuboid(
    table: FactTable, rows: Sequence[FactRow], point: LatticePoint
):
    """Serial NAIVE recompute of one cuboid over the given rows."""
    snapshot = FactTable(table.lattice, list(rows), table.aggregate)
    result = compute_cube(
        snapshot, ExecutionOptions(algorithm="NAIVE", points=(point,))
    )
    return result.cuboids[point]


class Validator:
    """The ``--validate`` replay hook: follow the write plan row by row
    and compare every answer with serial NAIVE at that position."""

    def __init__(self, table: FactTable, writes: WritePlan) -> None:
        self.table = table
        self.writes = writes
        self.rows = list(table.rows)
        self.epoch = 0
        self.mismatches = 0
        self._references: Dict[Tuple[int, LatticePoint], object] = {}

    def __call__(
        self, index: int, query: Query, result: QueryResult
    ) -> None:
        if index in self.writes:
            op, batch = self.writes[index]
            if op == "delete":
                gone = {row.fact_id for row in batch}
                self.rows = [
                    row for row in self.rows if row.fact_id not in gone
                ]
            else:
                self.rows = self.rows + list(batch)
            self.epoch += 1
        point = query.point
        key = (self.epoch, point)
        if key not in self._references:
            self._references[key] = reference_cuboid(
                self.table, self.rows, point
            )
        if result.as_cuboid() != self._references[key]:
            self.mismatches += 1
            print(
                f"MISMATCH at request {index} "
                f"({self.table.lattice.describe(point)}): cluster answer "
                f"differs from serial NAIVE",
                file=sys.stderr,
            )


def logged_read_seconds(coordinator: ClusterCoordinator) -> List[float]:
    """The modeled latency of every successful read the coordinator's
    request log still holds, oldest first."""
    return [
        record.sim_seconds
        for record in coordinator.events.named("cluster.read")
        if record.status == "ok"
    ]


def report(
    coordinator: ClusterCoordinator, validated: Optional[Validator]
) -> None:
    """One shard count's replay summary."""
    stats = coordinator.stats()
    # Once the request log's ring has dropped reads, the quantiles
    # cover only the reads it still holds, and the line says so.
    latencies = logged_read_seconds(coordinator)
    modeled_total = stats.modeled_cost_seconds
    throughput = stats.requests / modeled_total if modeled_total else 0.0
    covered = (
        f" (last {len(latencies)} of {stats.requests} reads: the request"
        f" log keeps {coordinator.events.capacity} records)"
        if len(latencies) < stats.requests
        else ""
    )
    print(
        f"shards={coordinator.n_shards} replicas={stats.replicas}: "
        f"{stats.requests} requests, {stats.writes} writes, "
        f"throughput {throughput:.1f} req/modeled-s, "
        f"p50 {percentile(latencies, 0.50) * 1e3:.2f}ms, "
        f"p95 {percentile(latencies, 0.95) * 1e3:.2f}ms{covered}"
    )
    print(
        f"   degraded: {stats.failovers} failovers, "
        f"{stats.hedges} hedges, {stats.stale_retries} stale"
        f" retries, {stats.rejects} rejects, "
        f"{stats.crashes} crashes"
    )
    print(f"   rows/shard: {list(stats.per_shard_rows)}")
    if coordinator.chaos is not None:
        print(f"   {coordinator.chaos.summary()}")
    if validated is not None:
        print(
            f"   validate: "
            f"{stats.requests - validated.mismatches}/{stats.requests} "
            f"answers match serial NAIVE"
        )
