"""``repro.cluster`` — the sharded, replicated cube-serving cluster.

N shard workers — each a :class:`~repro.serve.CubeServer` per state
component of the aggregate over a deterministic hash-partitioned slice
of the fact table — behind a :class:`ClusterCoordinator` that
scatter-gathers queries, merges per-shard *aggregate states* with the
shared kernel in :mod:`repro.core.merge`, fans whole write batches out
through the servers' delta path under per-shard version vectors, fails over across replicas,
hedges stragglers, and proves (under the deterministic chaos harness in
:mod:`repro.cluster.chaos`) that every degraded answer equals the
serial NAIVE recompute.
"""

from repro.cluster.chaos import (
    NO_FAULT,
    PROFILES,
    ChaosEngine,
    ChaosProfile,
    ReadFault,
    get_profile,
)
from repro.cluster.coordinator import ClusterCoordinator, ClusterStats
from repro.cluster.partition import (
    partition_rows,
    partition_table,
    shard_of,
)
from repro.cluster.shard import ShardAnswer, ShardReplica
from repro.cluster.versions import VersionVector

__all__ = [
    "NO_FAULT",
    "PROFILES",
    "ChaosEngine",
    "ChaosProfile",
    "ClusterCoordinator",
    "ClusterStats",
    "ReadFault",
    "ShardAnswer",
    "ShardReplica",
    "VersionVector",
    "get_profile",
    "partition_rows",
    "partition_table",
    "shard_of",
]
