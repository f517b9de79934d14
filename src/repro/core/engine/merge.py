"""Combine per-partition outputs into one cube.

Partitions cover disjoint lattice point sets, so the cuboid merge is a
checked dict union.  Cost merge sums the counters (total work), derives
the per-worker breakdown, and reports a critical path as
``parallel_simulated_seconds``, which is what the modeled speedup
compares against the serial total.

The critical path is computed from a *deterministic* schedule: the
per-partition simulated costs are LPT-packed onto ``max_workers`` bins
(:func:`scheduled_critical_path`).  Attributing the modeled path to the
threads that actually ran each partition would couple a cost-model
number to wall-clock scheduling — oversubscribed pools hand partitions
to whichever worker frees up first, so the same run would report
different modeled speedups on different hosts.  The actual-thread
breakdown is still reported (``workers``) for telemetry; when
``max_workers`` is unknown it doubles as the critical-path fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.cube import CostSnapshot, WorkerCost
from repro.core.lattice import LatticePoint
from repro.core.merge import merge_disjoint
from repro.core.packed import PackedCuboid
from repro.obs import TraceSpan


@dataclass(frozen=True)
class PartitionOutcome:
    """What one partition run sends back to the merger."""

    index: int
    points: int
    cuboids: Dict[LatticePoint, PackedCuboid]
    cost: Mapping[str, float]
    passes: int
    algorithm: str
    worker: str
    queue_wait_seconds: float
    wall_seconds: float
    # The partition run's phase counters (``CubeResult.phases``).
    phases: Mapping[str, float] = field(default_factory=dict)
    # Spans collected by a process worker's local session; empty for
    # thread workers (they record into the dispatcher's trace directly).
    spans: Tuple[TraceSpan, ...] = ()

    @property
    def simulated_seconds(self) -> float:
        return float(self.cost.get("simulated_seconds", 0.0))


def merge_cuboids(
    outcomes: List[PartitionOutcome],
) -> Dict[LatticePoint, PackedCuboid]:
    """Union of the per-partition cuboid maps; overlap is a plan bug.

    Thin adapter over the shared kernel's :func:`repro.core.merge
    .merge_disjoint` (the cluster coordinator consumes the kernel's
    state-merge half; the engine consumes this half).
    """
    return merge_disjoint(
        outcome.cuboids
        for outcome in sorted(outcomes, key=lambda o: o.index)
    )


def scheduled_critical_path(costs: List[float], n_workers: int) -> float:
    """The modeled critical path of an LPT schedule of ``costs`` onto
    ``n_workers`` identical workers.

    Longest-processing-time-first is the schedule the pool converges to
    when every worker is equally fast, and it is a pure function of the
    modeled costs — so the resulting speedup is host-independent, as the
    cost model requires.
    """
    if not costs or n_workers <= 0:
        return 0.0
    bins = [0.0] * min(n_workers, len(costs))
    for cost in sorted(costs, reverse=True):
        lightest = min(range(len(bins)), key=bins.__getitem__)
        bins[lightest] += cost
    return max(bins)


def sum_counts(counts: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Key-wise sum of per-partition counters (cost fields, phases)."""
    totals: Dict[str, float] = {}
    for mapping in counts:
        for key, value in mapping.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def merge_costs(
    outcomes: List[PartitionOutcome],
    merge_seconds: float,
    total_wall_seconds: float,
    max_workers: Optional[int] = None,
) -> CostSnapshot:
    """Sum the counters; attribute work to workers; take the critical path.

    ``max_workers`` (the pool size) selects the deterministic LPT
    critical path; without it the busiest *actual* worker is used."""
    totals = sum_counts(outcome.cost for outcome in outcomes)
    per_worker: Dict[str, Dict[str, float]] = {}
    for outcome in outcomes:
        slot = per_worker.setdefault(
            outcome.worker,
            {
                "partitions": 0,
                "points": 0,
                "wall_seconds": 0.0,
                "simulated_seconds": 0.0,
                "queue_wait_seconds": 0.0,
            },
        )
        slot["partitions"] += 1
        slot["points"] += outcome.points
        slot["wall_seconds"] += outcome.wall_seconds
        slot["simulated_seconds"] += outcome.simulated_seconds
        slot["queue_wait_seconds"] += outcome.queue_wait_seconds

    workers = tuple(
        WorkerCost(
            worker=name,
            partitions=int(slot["partitions"]),
            points=int(slot["points"]),
            wall_seconds=slot["wall_seconds"],
            simulated_seconds=slot["simulated_seconds"],
            queue_wait_seconds=slot["queue_wait_seconds"],
        )
        for name, slot in sorted(per_worker.items())
    )
    if max_workers is not None:
        critical_path = scheduled_critical_path(
            [outcome.simulated_seconds for outcome in outcomes], max_workers
        )
    else:
        critical_path = max(
            (cost.simulated_seconds for cost in workers), default=0.0
        )
    base = CostSnapshot.from_mapping(totals)
    return CostSnapshot(
        cpu_ops=base.cpu_ops,
        page_reads=base.page_reads,
        page_writes=base.page_writes,
        simulated_seconds=base.simulated_seconds,
        wall_seconds=total_wall_seconds,
        merge_seconds=merge_seconds,
        parallel_simulated_seconds=critical_path,
        workers=workers,
    )


def merge_passes(outcomes: List[PartitionOutcome]) -> int:
    return max((outcome.passes for outcome in outcomes), default=1)


def merged_algorithm_name(outcomes: List[PartitionOutcome]) -> str:
    """One name for the merged run; AUTO may delegate per partition."""
    names = sorted({outcome.algorithm for outcome in outcomes})
    return names[0] if len(names) == 1 else "|".join(names)
