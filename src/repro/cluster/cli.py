"""The ``x3-cluster`` command line tool: replay a workload on a cluster.

Usage::

    x3-cluster --query query.xq data.xml
    x3-cluster --query query.xq data.xml --shards 1,2,4,8 --replicas 2
    x3-cluster --query query.xq data.xml --chaos light --chaos-seed 11
    x3-cluster --query query.xq data.xml --writes 5 --validate
    x3-cluster --query query.xq data.xml --chaos heavy --log-jsonl ev.jsonl

The tool replays the same deterministic skewed request mix ``x3-serve``
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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.chaos import PROFILES, ChaosEngine, get_profile
from repro.cluster.coordinator import ClusterCoordinator
from repro.core.bindings import FactRow, FactTable
from repro.core.cube import ENGINE_CHOICES, ExecutionOptions, compute_cube
from repro.core.lattice import LatticePoint
from repro.core.properties import PropertyOracle
from repro.core.query import Query
from repro.errors import X3Error
from repro.obs.trace_store import TraceStore
from repro.serve.cli import load_table, sample_points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="x3-cluster",
        description=(
            "Replay an X^3 cube workload against a sharded, replicated "
            "cluster (scatter-gather over hash-partitioned CubeServers) "
            "across shard counts, with optional fault injection."
        ),
    )
    parser.add_argument("files", nargs="+", help="XML input files")
    parser.add_argument(
        "--query", required=True, help="file holding the X^3 FLWOR text"
    )
    parser.add_argument(
        "--shards",
        default="1,2,4",
        help="comma-separated shard counts to replay (default 1,2,4)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="replicas per shard (default 2)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=100,
        help="replayed requests per shard count (default 100)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="replay sampling seed (default 7)",
    )
    parser.add_argument(
        "--writes",
        type=int,
        default=0,
        help="write batches interleaved into the replay (default 0)",
    )
    parser.add_argument(
        "--chaos",
        choices=sorted(PROFILES),
        default="none",
        help="fault-injection profile (default none)",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="fault planner seed (default 0)",
    )
    parser.add_argument(
        "--hedge-deadline",
        type=float,
        default=0.1,
        help="modeled seconds before a straggling shard read is hedged"
        " on a backup replica (default 0.1; negative disables)",
    )
    parser.add_argument(
        "--cache-cells",
        type=int,
        default=2048,
        help="per-replica cuboid cache budget in cells (default 2048)",
    )
    parser.add_argument(
        "--oracle",
        choices=("data", "none"),
        default="data",
        help="property oracle for the replicas' roll-up rung",
    )
    parser.add_argument(
        "--algorithm",
        default="NAIVE",
        help="replica recompute algorithm (default NAIVE)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="engine worker pool inside each replica (default 1)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help="execution engine for replica recomputes (default auto)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="check every gathered answer against a serial NAIVE"
        " recompute at the same write-log position",
    )
    parser.add_argument(
        "--log-jsonl",
        metavar="PATH",
        help="write the cluster event log as JSON Lines (events of the"
        " last replayed shard count)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="trace every replayed request (HTTP-less roots; spans "
        "cover coordinator, shards, and replica engines)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="head sampling rate in [0, 1] (default 1.0)",
    )
    parser.add_argument(
        "--trace-seed",
        type=int,
        default=0,
        help="seed for deterministic trace/span id generation",
    )
    parser.add_argument(
        "--trace-jsonl",
        metavar="PATH",
        help="dump the last replay's traces as canonical JSONL "
        "(implies --trace)",
    )
    return parser


def parse_shards(text: str) -> List[int]:
    try:
        shards = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise X3Error(f"bad --shards value {text!r}") from None
    if not shards or any(n <= 0 for n in shards):
        raise X3Error(f"bad --shards value {text!r}")
    return shards


def plan_writes(
    rows: Sequence[FactRow], requests: int, writes: int
) -> Dict[int, Tuple[str, List[FactRow]]]:
    """Deterministic write batches keyed by the request index they
    precede: rotating deletes and re-inserts of fact slices."""
    if writes <= 0 or not rows:
        return {}
    batch = max(1, len(rows) // (2 * writes))
    gap = max(1, requests // (writes + 1))
    plan: Dict[int, Tuple[str, List[FactRow]]] = {}
    removed: List[List[FactRow]] = []
    cursor = 0
    for index in range(writes):
        position = (index + 1) * gap
        if index % 2 == 0:
            slice_rows = list(rows[cursor : cursor + batch])
            cursor += batch
            if not slice_rows:
                break
            removed.append(slice_rows)
            plan[position] = ("delete", slice_rows)
        else:
            plan[position] = ("insert", removed.pop())
    return plan


def percentile(values: Sequence[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(
        len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1))))
    )
    return ordered[rank]


def reference_cuboid(
    table: FactTable, rows: Sequence[FactRow], point: LatticePoint
):
    """Serial NAIVE recompute of one cuboid over the given rows."""
    snapshot = FactTable(table.lattice, list(rows), table.aggregate)
    result = compute_cube(
        snapshot, ExecutionOptions(algorithm="NAIVE", points=(point,))
    )
    return result.cuboids[point]


def replay(
    table: FactTable,
    args: argparse.Namespace,
    n_shards: int,
) -> Tuple[ClusterCoordinator, int]:
    """Replay the workload on one cluster; returns it plus mismatches."""
    oracle = (
        PropertyOracle.from_data(table) if args.oracle == "data" else None
    )
    options = ExecutionOptions(
        algorithm=args.algorithm, workers=args.workers, engine=args.engine
    )
    chaos = (
        ChaosEngine(get_profile(args.chaos), seed=args.chaos_seed)
        if args.chaos != "none"
        else None
    )
    deadline = (
        None if args.hedge_deadline < 0 else args.hedge_deadline
    )
    trace_store = (
        TraceStore(sample_rate=args.trace_sample, seed=args.trace_seed)
        if (args.trace or args.trace_jsonl)
        else None
    )
    coordinator = ClusterCoordinator(
        table,
        n_shards,
        args.replicas,
        oracle=oracle,
        options=options,
        cache_cells=args.cache_cells,
        chaos=chaos,
        hedge_deadline_seconds=deadline,
        trace_store=trace_store,
    )
    points = sample_points(table.lattice, args.requests, args.seed)
    writes = plan_writes(table.rows, args.requests, args.writes)
    current_rows = list(table.rows)
    removed_ids = set()
    mismatches = 0
    reference_cache: Dict[Tuple[int, LatticePoint], object] = {}
    write_epoch = 0
    for index, point in enumerate(points):
        if index in writes:
            op, batch = writes[index]
            if op == "delete":
                coordinator.delete(batch)
                removed_ids.update(row.fact_id for row in batch)
                current_rows = [
                    row
                    for row in current_rows
                    if row.fact_id not in removed_ids
                ]
            else:
                coordinator.insert(batch)
                removed_ids.difference_update(
                    row.fact_id for row in batch
                )
                current_rows = current_rows + list(batch)
            write_epoch += 1
        cuboid = coordinator.query(Query(point=point)).as_cuboid()
        if args.validate:
            key = (write_epoch, point)
            if key not in reference_cache:
                reference_cache[key] = reference_cuboid(
                    table, current_rows, point
                )
            if cuboid != reference_cache[key]:
                mismatches += 1
                print(
                    f"MISMATCH at request {index} "
                    f"({table.lattice.describe(point)}): cluster answer "
                    f"differs from serial NAIVE",
                    file=sys.stderr,
                )
    return coordinator, mismatches


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        shard_counts = parse_shards(args.shards)
        table = load_table(args)
    except (OSError, X3Error) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    print(
        f"{len(table)} facts, {table.lattice.size()} cuboids, "
        f"aggregate {table.aggregate.function}"
    )
    total_mismatches = 0
    last: Optional[ClusterCoordinator] = None
    try:
        for n_shards in shard_counts:
            if last is not None:
                last.close()
            try:
                coordinator, mismatches = replay(table, args, n_shards)
            except X3Error as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            last = coordinator
            total_mismatches += mismatches
            stats = coordinator.stats()
            latencies = coordinator.modeled_latencies()
            modeled_total = sum(latencies)
            throughput = (
                stats.requests / modeled_total if modeled_total else 0.0
            )
            print(
                f"shards={n_shards} replicas={stats.replicas}: "
                f"{stats.requests} requests, {stats.writes} writes, "
                f"throughput {throughput:.1f} req/modeled-s, "
                f"p50 {percentile(latencies, 0.50) * 1e3:.2f}ms, "
                f"p95 {percentile(latencies, 0.95) * 1e3:.2f}ms"
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
            if args.validate:
                print(
                    f"   validate: "
                    f"{stats.requests - mismatches}/{stats.requests} "
                    f"answers match serial NAIVE"
                )
        if args.log_jsonl and last is not None:
            written = last.events.write_jsonl(args.log_jsonl)
            print(f"wrote {written} cluster events to {args.log_jsonl}")
        if last is not None and last.trace_store is not None:
            stats = last.trace_store.stats()
            print(
                f"tracing: {stats['started']} started, "
                f"{stats['sampled']} sampled, "
                f"{stats['retained']} tail-retained, "
                f"{stats['stored']} stored"
            )
            if args.trace_jsonl:
                count = last.trace_store.write_jsonl(args.trace_jsonl)
                print(f"wrote {count} traces to {args.trace_jsonl}")
    finally:
        if last is not None:
            last.close()
    return 1 if total_mismatches else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
