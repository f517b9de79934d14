"""One shard replica: an existing :class:`CubeServer` over a fact slice.

A :class:`ShardReplica` models a single-threaded worker process owning
one hash-partitioned slice of the fact table.  All of PR 3/4's serving
machinery — the sound-source ladder, the cost-aware cuboid cache, the
incremental write path — runs unchanged inside each replica; the
cluster layer only adds what a *distributed* worker needs:

- a health bit (``crash()`` / ``heal()``) the chaos harness flips and
  the coordinator fails over on;
- a pending-write queue so crashed or deliberately *stale* replicas can
  lag the write log and catch up later (``sync()``), which is what the
  coordinator's version-vector consistency check defends against;
- a state read (:meth:`read_states`): the replica's finalized answer is
  lifted back into mergeable *aggregate states* — for the distributive
  aggregates the finalized value is the state; for algebraic AVG the
  replica keeps an attached :class:`IncrementalCube` and ships its raw
  ``(sum, count)`` pairs, because finalized averages do not merge.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.bindings import FactRow, FactTable
from repro.core.cube import ExecutionOptions
from repro.core.incremental import IncrementalCube
from repro.core.lattice import CubeLattice, LatticePoint
from repro.core.merge import (
    STATE_EXACT_AGGREGATES,
    StateCuboid,
    states_from_finalized,
)
from repro.core.properties import PropertyOracle
from repro.core.query import Query
from repro.errors import ClusterError, ShardUnavailable
from repro.serve.server import CubeServer


@dataclass(frozen=True)
class ShardAnswer:
    """What one replica returns for one state read."""

    shard: int
    replica: int
    states: StateCuboid
    version: int  #: write batches the replica had applied when answering
    modeled_seconds: float  #: modeled cost of the replica's ladder walk
    tier: str  #: the sound-source rung that answered on the replica


class ShardReplica:
    """A :class:`CubeServer` over one slice, with cluster plumbing.

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
        options: engine options for recomputes inside the replica.
        cache_cells: per-replica cuboid cache budget.
    """

    def __init__(
        self,
        shard: int,
        replica: int,
        lattice: CubeLattice,
        rows: Sequence[FactRow],
        aggregate,
        oracle: Optional[PropertyOracle] = None,
        options: Optional[ExecutionOptions] = None,
        cache_cells: int = 2048,
    ) -> None:
        self.shard = shard
        self.replica = replica
        self.table = FactTable(lattice, list(rows), aggregate)
        self._aggregate = aggregate.function.upper()
        self._state_exact = self._aggregate in STATE_EXACT_AGGREGATES
        # Algebraic aggregates need raw partial states; the maintained
        # cells of an IncrementalCube are exactly that.
        self._incremental = (
            None if self._state_exact else IncrementalCube(self.table)
        )
        self.server = CubeServer(
            self.table,
            oracle,
            options=options,
            cache_cells=cache_cells,
            incremental=self._incremental,
        )
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

        The replica resolves the query through its server's full
        sound-source ladder (cache hits and all), then lifts the answer
        into partial states.  Raises :class:`ShardUnavailable` when the
        replica is crashed.
        """
        with self._lock:
            if self._crashed:
                raise ShardUnavailable(self.shard, self.replica, "crashed")
            # Tier, version and cost come from the answer itself, not
            # from the tail of the request log: another read of this
            # server may have logged in between.
            result = self.server.query(Query(point=point))
            if self._state_exact:
                states = states_from_finalized(
                    self._aggregate, result.as_cuboid()
                )
            else:
                assert self._incremental is not None
                states = dict(self._incremental.state_cuboid(point))
            return ShardAnswer(
                shard=self.shard,
                replica=self.replica,
                states=states,
                version=result.version[0],
                modeled_seconds=result.modeled_seconds,
                tier=result.tier,
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
        if op == "insert":
            self.server.insert(rows)
        else:
            self.server.delete(rows)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        with self._lock:
            state = "down" if self._crashed else "up"
            return (
                f"shard {self.shard} replica {self.replica}: {state}, "
                f"{len(self.table.rows)} rows, v{self.server.version}"
                + (f" (+{len(self._pending)} queued)" if self._pending else "")
            )
