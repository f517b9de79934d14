"""One shard replica: a :class:`CubeServer` per state component.

A :class:`ShardReplica` models a single-threaded worker process owning
one hash-partitioned slice of the fact table.  The whole serving
machinery — the sound-source ladder, the cost-aware cuboid cache, the
delta write path — runs unchanged inside each replica; the cluster
layer only adds what a *distributed* worker needs:

- a health bit (``crash()`` / ``heal()``) the chaos harness flips and
  the coordinator fails over on;
- a pending-write queue so crashed or deliberately *stale* replicas can
  lag the write log and catch up later (``sync()``), which is what the
  coordinator's version-vector consistency check defends against;
- a state read (:meth:`read_states`): the replica's finalized answers
  are lifted back into mergeable *aggregate states*.  The replica runs
  one server per state component: for COUNT/SUM/MIN/MAX the finalized
  value is the state, so one server of the aggregate itself; algebraic
  AVG is a fixed tuple of distributive states (Gray et al.), so a SUM
  server and a COUNT server over the same slice, whose answers zip
  into ``(sum, count)`` pairs in stored order — finalized averages do
  not merge.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.aggregates import AggregateSpec
from repro.core.bindings import FactRow, FactTable
from repro.core.lattice import CubeLattice, LatticePoint
from repro.core.merge import (
    STATE_EXACT_AGGREGATES,
    avg_states,
    states_from_finalized,
)
from repro.core.packed import PackedCuboid
from repro.core.properties import PropertyOracle
from repro.errors import ClusterError, ShardUnavailable
from repro.serve.server import TIERS, CubeServer


@dataclass(frozen=True)
class ShardAnswer:
    """What one replica returns for one state read."""

    shard: int
    replica: int
    #: read-only: for COUNT/SUM/MIN/MAX it is the replica's resident
    #: cuboid
    states: PackedCuboid
    version: int  #: write batches the replica had applied when answering
    modeled_seconds: float  #: modeled cost of the replica's ladder walk
    #: the sound-source rung that answered on the replica (of several
    #: component servers: the latest rung in ladder order)
    tier: str


class ShardReplica:
    """One :class:`CubeServer` per state component over one slice, with
    cluster plumbing.

    Args:
        shard: shard index this replica serves.
        replica: replica index within the shard (0 is the primary).
        lattice: the cube lattice (shared across the cluster).
        rows: this shard's slice of the fact table.
        aggregate: the cube's aggregate spec (shared).
        oracle: property oracle for the replica's rollup rung.  A
            full-table oracle is sound here: disjointness and coverage
            are universally quantified over facts, so any property that
            holds for the whole table holds for every subset of it.
        cache_cells: cuboid cache budget of each component server.

    ``server`` and ``table`` are the first component's: for a
    state-exact aggregate, the replica's one server and its slice.

    The replica reads and writes through its servers' unrecorded steps
    (:meth:`~repro.serve.server.CubeServer.read` and
    :meth:`~repro.serve.server.CubeServer.apply`), never their door: a
    shard answer is one part of a cluster operation, whose one record
    is the coordinator's ``cluster.read`` / ``cluster.write`` /
    ``cluster.heal``.  So every component server's ``events`` stays
    empty and its telemetry holds no request sample; its ``stats()``
    still counts the rungs its reads resolved at.
    """

    def __init__(
        self,
        shard: int,
        replica: int,
        lattice: CubeLattice,
        rows: Sequence[FactRow],
        aggregate,
        oracle: Optional[PropertyOracle] = None,
        cache_cells: int = 2048,
    ) -> None:
        self.shard = shard
        self.replica = replica
        self._aggregate = aggregate.function.upper()
        components = (
            (aggregate,)
            if self._aggregate in STATE_EXACT_AGGREGATES
            else (AggregateSpec("SUM", aggregate.measure_path), AggregateSpec())
        )
        self.servers = tuple(
            CubeServer(
                FactTable(lattice, rows, spec),
                oracle,
                cache_cells=cache_cells,
            )
            for spec in components
        )
        self.server = self.servers[0]
        self.table = self.server.table
        # One lock per replica: a replica models a single-threaded
        # worker process, so its operations serialize; concurrency in
        # the cluster comes from fanning out across shards.
        self._lock = threading.RLock()
        self._crashed = False
        self._pending: List[Tuple[str, List[FactRow]]] = []

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        with self._lock:
            return not self._crashed

    def crash(self) -> None:
        """Take the replica down; reads raise until :meth:`heal`."""
        with self._lock:
            self._crashed = True

    def heal(self) -> int:
        """Bring the replica back and replay its queued write batches.

        Returns the replica's version after catching up.
        """
        with self._lock:
            self._crashed = False
            return self.sync()

    # ------------------------------------------------------------------
    # versions
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Write batches actually applied (the version reads answer at)."""
        return self.server.version

    @property
    def target_version(self) -> int:
        """Applied batches plus the queued backlog."""
        with self._lock:
            return self.server.version + len(self._pending)

    @property
    def lagging(self) -> int:
        with self._lock:
            return len(self._pending)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read_states(self, point: LatticePoint) -> ShardAnswer:
        """Answer one cuboid query as mergeable aggregate states.

        The replica resolves the query through each component server's
        full sound-source ladder (cache hits and all), then lifts the
        answers into partial states.  The walks are
        :meth:`CubeServer.read <repro.serve.server.CubeServer.read>`:
        their ``serve.request`` spans join the cluster trace, but they
        leave no request-log record or telemetry sample of their own.
        Raises :class:`ShardUnavailable` when the replica is crashed.
        """
        with self._lock:
            if self._crashed:
                raise ShardUnavailable(self.shard, self.replica, "crashed")
            # The components apply the same batches under this lock, so
            # they answer at one version.
            cuboids: List[PackedCuboid] = []
            tier, seconds = TIERS[0], 0.0
            for server in self.servers:
                (cuboid, (version,), rung, _, cost), _ = server.read(point)
                cuboids.append(cuboid)
                tier = max(tier, rung, key=TIERS.index)
                seconds += cost
            if len(cuboids) == 1:
                states = states_from_finalized(self._aggregate, cuboids[0])
            else:
                states = avg_states(*cuboids)
            return ShardAnswer(
                shard=self.shard,
                replica=self.replica,
                states=states,
                version=version,
                modeled_seconds=seconds,
                tier=tier,
            )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def apply(self, op: str, rows: Sequence[FactRow], defer: bool = False) -> int:
        """Apply (or queue) one write batch; returns the target version.

        Crashed replicas always queue; a ``defer`` request models the
        stale-replica fault.  Non-deferred batches first drain any
        backlog so the replica applies batches in the coordinator's
        global order.
        """
        if op not in ("insert", "delete"):
            raise ClusterError(f"unknown write op {op!r}")
        with self._lock:
            if self._crashed or defer:
                self._pending.append((op, list(rows)))
            else:
                self._drain()
                self._apply_one(op, list(rows))
            return self.server.version + len(self._pending)

    def sync(self) -> int:
        """Drain the queued write batches; returns the applied version.

        Raises :class:`ShardUnavailable` when the replica is crashed —
        a down replica cannot catch up until healed.
        """
        with self._lock:
            if self._crashed:
                raise ShardUnavailable(self.shard, self.replica, "crashed")
            self._drain()
            return self.server.version

    def _drain(self) -> None:
        while self._pending:
            op, rows = self._pending.pop(0)
            self._apply_one(op, rows)

    def _apply_one(self, op: str, rows: List[FactRow]) -> None:
        for server in self.servers:
            server.apply(op, rows)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        with self._lock:
            state = "down" if self._crashed else "up"
            return (
                f"shard {self.shard} replica {self.replica}: {state}, "
                f"{len(self.table.rows)} rows, v{self.server.version}"
                + (f" (+{len(self._pending)} queued)" if self._pending else "")
            )
