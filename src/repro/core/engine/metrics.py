"""Per-stage metrics of one engine run.

The engine instruments every stage — partitioning, queue wait, per-worker
execution, merge — and attaches an :class:`EngineMetrics` to the
:class:`~repro.core.cube.CubeResult` so speedups are measurable from the
bench harness without re-deriving anything.

Two time bases coexist deliberately:

- *wall seconds* are host-dependent and include pool overhead;
- *simulated seconds* come from the deterministic cost model, so the
  modeled speedup (total simulated work over the critical path of the
  worker schedule) is reproducible on any machine, including single-core
  CI runners where real wall-clock parallelism cannot show up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class PartitionStats:
    """One partition's journey through the pool."""

    index: int
    points: int
    weight: float
    worker: str
    queue_wait_seconds: float
    wall_seconds: float
    simulated_seconds: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "points": self.points,
            "weight": self.weight,
            "worker": self.worker,
            "queue_wait_seconds": self.queue_wait_seconds,
            "wall_seconds": self.wall_seconds,
            "simulated_seconds": self.simulated_seconds,
        }


@dataclass(frozen=True)
class EngineMetrics:
    """What the engine did and what each stage cost."""

    engine: str
    requested_workers: int
    workers_used: int
    partitions: Tuple[PartitionStats, ...]
    cut_edges: int
    partition_seconds: float
    merge_seconds: float
    total_wall_seconds: float

    # ------------------------------------------------------------------
    @property
    def partition_sizes(self) -> List[int]:
        return [stats.points for stats in self.partitions]

    @property
    def queue_wait_seconds(self) -> float:
        """Total time partitions sat queued before a worker picked them up."""
        return sum(stats.queue_wait_seconds for stats in self.partitions)

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """Flat summary for the bench CSV / reports."""
        return {
            "engine": self.engine,
            "requested_workers": self.requested_workers,
            "workers_used": self.workers_used,
            "n_partitions": len(self.partitions),
            "partition_sizes": "/".join(
                str(size) for size in self.partition_sizes
            ),
            "cut_edges": self.cut_edges,
            "partition_seconds": self.partition_seconds,
            "queue_wait_seconds": self.queue_wait_seconds,
            "merge_seconds": self.merge_seconds,
            "total_wall_seconds": self.total_wall_seconds,
        }

    def summary(self) -> str:
        sizes = self.partition_sizes
        return (
            f"engine={self.engine} "
            f"workers={self.workers_used}/{self.requested_workers} "
            f"partitions={len(sizes)} sizes={sizes} "
            f"cut_edges={self.cut_edges} "
            f"queue_wait={self.queue_wait_seconds:.4f}s "
            f"merge={self.merge_seconds:.4f}s "
            f"wall={self.total_wall_seconds:.4f}s"
        )
