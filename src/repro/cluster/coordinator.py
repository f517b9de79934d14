"""Scatter-gather coordination over hash-partitioned shard replicas.

:class:`ClusterCoordinator` is the cluster's single query surface.  A
read fans out to every shard, collects per-shard *aggregate states*
(never finalized values — an AVG must travel as ``(sum, count)``),
merges them with the shared kernel (:mod:`repro.core.merge`: packed
shard states are re-ranked into the union of their dictionaries and
folded by code) and finalizes once, into a packed cuboid in wire order.
This is lossless for exactly the reason the paper's
Sec. 2 proofs allow: facts are partitioned disjointly by fact id, so
even when a fact lands in several groups (non-disjoint grouping) or in
none (incomplete coverage), each of its group contributions is folded on
exactly one shard, and ``AggregateFunction.merge`` is associative and
commutative with ``new()`` as the identity.

Degraded modes, all deterministic under a seeded
:class:`~repro.cluster.chaos.ChaosEngine`:

- **failover** — a crashed replica is skipped and the next healthy one
  answers; the decision lands in the read's request-log record;
- **hedged reads** — when a replica's modeled latency exceeds the hedge
  deadline, a backup replica is asked too and the cheaper (modeled)
  answer wins, with hedge accounting ``deadline + backup`` as real
  hedged tails do;
- **stale replicas** — every answer carries the replica's applied write
  version; a gathered answer is accepted only when the assembled
  per-shard version vector equals a state the write log actually
  produced (see :mod:`repro.cluster.versions`), otherwise lagging
  replicas are synced and the scatter retried.

Writes are serialized by the coordinator, checked whole against the
write log's fact set (a batch is applied everywhere or nowhere), routed
to *all* replicas of each affected shard through the servers' delta
path, and each fan-out appends the new version vector to the write-log
history the consistency check validates against.

Every read, write and heal leaves one record in :attr:`events`, the
coordinator's request log: a ``cluster.read``, ``cluster.write`` or
``cluster.heal`` root span whose ``decisions`` attr lists the
operation's failovers, hedges, stale retries, injected faults, rejected
gathers and heals, in the order they were decided.  It is the
operation's only record: the replicas' servers keep none of their own.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.core.aggregates import AggregateFunction
from repro.core.bindings import FactRow, FactTable
from repro.core.lattice import LatticePoint
from repro.core.merge import finalize_states, merge_states
from repro.core.properties import PropertyOracle
from repro.core.query import Answer, CubeBackend, Plan, Query, ShardPlan
from repro.cluster.chaos import NO_FAULT, ChaosEngine, ReadFault
from repro.cluster.partition import partition_rows
from repro.cluster.shard import ShardAnswer, ShardReplica
from repro.cluster.versions import VersionVector
from repro.cost import CostModel
from repro.errors import ClusterError, CubeError, ShardUnavailable, X3Error
from repro.obs.events import RungDecision
from repro.obs.request_log import RequestLog
from repro.obs.trace_store import TraceStore
from repro.serve.cache import ServedCuboid

_CPU_OP_SECONDS = CostModel.cpu_op_cost

#: Records the request log (:attr:`ClusterCoordinator.events`) keeps.
LOG_CAPACITY = 8192

#: Per-replica sync-and-retry bound for stale answers.
MAX_STALE_RETRIES = 3

#: Whole-scatter retry bound when a gathered version vector is
#: inconsistent.
MAX_READ_ROUNDS = 8

#: One coordination decision, as a JSON object: ``kind`` (failover /
#: hedge / stale_retry / straggle / crash / stale / reject / heal), the
#: coordinator ``op_index`` it was made in (-1: outside any read or
#: write), the ``shard`` and ``replica`` it concerns (-1: all), a
#: human-readable ``detail`` and the modeled latency, when relevant.
Decision = Dict[str, Any]


@dataclass(frozen=True)
class ClusterStats:
    """A consistent snapshot of the coordinator's counters."""

    shards: int
    replicas: int
    requests: int
    writes: int
    rejects: int  #: gathered answers rejected as version-inconsistent
    failovers: int
    hedges: int
    stale_retries: int
    crashes: int  #: replica crashes injected/observed
    heals: int
    modeled_cost_seconds: float  #: sum of per-request modeled latencies
    merged_cells: int
    version: Tuple[int, ...]
    healthy_replicas: int
    per_shard_rows: Tuple[int, ...]

    def summary(self) -> str:
        degraded = (
            f"{self.failovers} failovers, {self.hedges} hedges, "
            f"{self.stale_retries} stale retries, {self.rejects} rejects"
        )
        return (
            f"{self.requests} requests over {self.shards}x{self.replicas} "
            f"cluster ({self.healthy_replicas} healthy replicas); "
            f"{degraded}; modeled {self.modeled_cost_seconds:.4f}s"
        )


@dataclass
class _ShardReadOutcome:
    """One shard's contribution to a gather, with its decisions."""

    answer: ShardAnswer
    latency: float
    decisions: List[Decision]


class ClusterCoordinator(CubeBackend):
    """Serve cube queries over N hash-partitioned shards x R replicas.

    Args:
        table: the full fact table; its rows are hash-partitioned by
            fact id into ``n_shards`` disjoint slices at construction.
        n_shards: shard count (each shard holds one slice).
        replicas: replicas per shard (replica 0 is the preferred
            primary); every replica holds the full slice.
        oracle: property oracle shared by all replicas.  Sound because
            disjointness/coverage are universally quantified over facts
            and therefore inherited by every subset of the table.
        cache_cells: per-replica cuboid cache budget.
        chaos: optional seeded fault planner (crash / straggle / stale).
        hedge_deadline_seconds: modeled-latency deadline after which a
            straggling shard read is hedged on a backup replica;
            ``None`` disables hedging.
        trace_store: optional distributed-tracing store.  When set, a
            read entering without an upstream binding opens its own
            trace root; per-shard child spans (carrying replica, tier,
            hedge/failover outcomes) parent under the request span no
            matter which scatter pool thread ran them, and the
            replicas' local ladder spans nest below those.
    """

    name = "cluster"

    def __init__(
        self,
        table: FactTable,
        n_shards: int,
        replicas: int = 2,
        *,
        oracle: Optional[PropertyOracle] = None,
        cache_cells: int = 2048,
        chaos: Optional[ChaosEngine] = None,
        hedge_deadline_seconds: Optional[float] = 0.1,
        trace_store: Optional[TraceStore] = None,
    ) -> None:
        if n_shards <= 0:
            raise ClusterError(
                f"a cluster needs at least one shard, got {n_shards}"
            )
        if replicas <= 0:
            raise ClusterError(
                f"a shard needs at least one replica, got {replicas}"
            )
        self.lattice = table.lattice
        self.aggregate = table.aggregate
        self._fn: AggregateFunction = table.aggregate.fn
        self.n_shards = n_shards
        self.n_replicas = replicas
        self.chaos = chaos
        self.hedge_deadline_seconds = hedge_deadline_seconds
        self.events = RequestLog(LOG_CAPACITY)
        self.trace_store = trace_store

        slices = partition_rows(table.rows, n_shards)
        # The write log's fact set: what every replica holds once it has
        # caught up.  Batches are checked against it, never against a
        # replica, which may lag or be down.
        self._fact_ids: Set[Tuple[int, int]] = {
            row.fact_id for row in table.rows
        }
        self.shards: List[List[ShardReplica]] = [
            [
                ShardReplica(
                    shard_id,
                    replica_id,
                    self.lattice,
                    slice_rows,
                    table.aggregate,
                    oracle=oracle,
                    cache_cells=cache_cells,
                )
                for replica_id in range(replicas)
            ]
            for shard_id, slice_rows in enumerate(slices)
        ]

        self._lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._op = 0
        self._expected = [0] * n_shards
        zero = tuple(self._expected)
        self._history: List[Tuple[int, ...]] = [zero]
        self._history_set: Set[Tuple[int, ...]] = {zero}
        self._requests = 0
        self._writes = 0
        self._rejects = 0
        self._failovers = 0
        self._hedges = 0
        self._stale_retries = 0
        self._crashes = 0
        self._heals = 0
        self._modeled_cost_seconds = 0.0
        self._merged_cells = 0
        self._pool: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=min(16, n_shards),
                thread_name_prefix="x3-cluster",
            )
            if n_shards > 1
            else None
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # versions
    # ------------------------------------------------------------------
    @property
    def version_vector(self) -> VersionVector:
        return VersionVector(self.version_token())

    def version_token(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(self._expected)

    # ------------------------------------------------------------------
    # reads: scatter, degrade gracefully, gather, merge states
    # ------------------------------------------------------------------
    def _answer(self, point: LatticePoint, kind: str) -> Answer:
        """One cuboid plus the version vector it is exact for.

        The vector is always a state the write log actually produced:
        inconsistent gathers (a replica answering at the wrong version)
        are rejected, lagging replicas synced, and the scatter retried
        up to :data:`MAX_READ_ROUNDS` times.  The scatter-gather path has no
        per-request ladder, so the rung trail is one synthesized
        ``scatter-gather`` decision (each replica's own ladder walk is
        a ``serve.request`` span under its ``cluster.shard`` span when
        the read is sampled).  The read leaves one ``cluster.read``
        record, with ``status="error"`` when it fails.
        """
        described = self.lattice.describe(point)
        decisions: List[Decision] = []
        started = time.perf_counter()
        try:
            with obs.span(
                "cluster.request",
                category="cluster",
                point=described,
                kind=kind,
                shards=self.n_shards,
            ) as span:
                cuboid, vector, latency = self._gather(
                    point, described, decisions
                )
                facts: Dict[str, Any] = dict(
                    kind=kind,
                    point=described,
                    versions=vector,
                    cells=len(cuboid),
                    decisions=tuple(decisions),
                )
                span.annotate(**facts).set_sim(latency)
        except X3Error as error:
            self._log(
                "cluster.read", 0.0, started, "error",
                kind=kind, point=described, error=type(error).__name__,
                decisions=tuple(decisions),
            )
            raise
        self._log("cluster.read", latency, started, **facts)
        rung = RungDecision(
            rung="scatter-gather",
            taken=True,
            reason=(
                f"merged {self.n_shards} shard state(s) at vector "
                f"{list(vector)}"
            ),
        )
        return cuboid, vector, "scatter-gather", (rung,), latency

    def _log(
        self,
        name: str,
        sim_seconds: float,
        started: float,
        status: str = "ok",
        **attrs: Any,
    ) -> None:
        """Append one operation's record to :attr:`events`."""
        self.events.add(
            name,
            "cluster",
            sim_seconds,
            time.perf_counter() - started,
            obs.current().trace_id_hex,
            status,
            **attrs,
        )

    def _plan(self, point: LatticePoint) -> Plan:
        """The scatter plan.  For each shard: which replica the
        coordinator would consult (the first healthy one), and the rung
        *that replica's* ladder predicts it would answer from."""
        plans: List[ShardPlan] = []
        query = Query(point=point)
        for shard_id, replicas in enumerate(self.shards):
            replica = next((r for r in replicas if r.healthy), None)
            if replica is None:
                plans.append(
                    ShardPlan(
                        shard=shard_id, replica=-1, tier="unavailable"
                    )
                )
                continue
            local = replica.server.explain_query(query)
            plans.append(
                ShardPlan(
                    shard=shard_id,
                    replica=replica.replica,
                    tier=local.tier,
                    rungs=local.rungs,
                )
            )
        return self.version_token(), "scatter-gather", (), tuple(plans)

    def _gather(
        self,
        point: LatticePoint,
        described: str,
        decisions: List[Decision],
    ) -> Tuple[ServedCuboid, Tuple[int, ...], float]:
        """Scatter until a gathered vector is consistent; the merged
        cuboid, its vector and its modeled latency.  Every round's
        decisions go to ``decisions``."""
        last_vector: Optional[Tuple[int, ...]] = None
        for round_index in range(MAX_READ_ROUNDS):
            with self._lock:
                op = self._op
                self._op += 1
                expected = tuple(self._expected)
            faults = self._plan_read_faults(op)
            outcomes = self._scatter(op, point, faults, expected)
            vector = tuple(
                outcome.answer.version for outcome in outcomes
            )
            with self._lock:
                consistent = vector in self._history_set
            for outcome in outcomes:
                decisions.extend(outcome.decisions)
            if consistent:
                cuboid, latency = self._merge(outcomes)
                return cuboid, vector, latency
            last_vector = vector
            with self._lock:
                self._rejects += 1
            decisions.append(
                self._decision(
                    "reject", op, -1, -1,
                    f"gathered vector {list(vector)} matches no "
                    f"write-log state; syncing and retrying "
                    f"(round {round_index + 1})",
                )
            )
            self.sync_all()
        raise ClusterError(
            f"no consistent gather for {described} after "
            f"{MAX_READ_ROUNDS} rounds (last vector "
            f"{list(last_vector or ())})"
        )

    def _plan_read_faults(self, op: int) -> Dict[int, ReadFault]:
        """One planned fault per shard, drawn in deterministic order.

        The fault applies to the first healthy replica the shard read
        will consult, so planned faults and injected faults agree.
        """
        if self.chaos is None:
            return {}
        faults: Dict[int, ReadFault] = {}
        for shard_id in range(self.n_shards):
            healthy = sum(
                1 for replica in self.shards[shard_id] if replica.healthy
            )
            primary = next(
                (
                    replica.replica
                    for replica in self.shards[shard_id]
                    if replica.healthy
                ),
                0,
            )
            faults[shard_id] = self.chaos.plan_read(
                op, shard_id, primary, healthy
            )
        return faults

    def _scatter(
        self,
        op: int,
        point: LatticePoint,
        faults: Dict[int, ReadFault],
        expected: Tuple[int, ...],
    ) -> List[_ShardReadOutcome]:
        if self._pool is None:
            return [
                self._read_shard(
                    op, shard_id, point,
                    faults.get(shard_id, NO_FAULT), expected[shard_id],
                )
                for shard_id in range(self.n_shards)
            ]
        # Each read runs in a copy of this context, so the per-shard
        # spans parent under the request span on whichever pool thread
        # runs them.
        futures = [
            self._pool.submit(
                copy_context().run,
                self._read_shard,
                op,
                shard_id,
                point,
                faults.get(shard_id, NO_FAULT),
                expected[shard_id],
            )
            for shard_id in range(self.n_shards)
        ]
        return [future.result() for future in futures]

    def _read_shard(
        self,
        op: int,
        shard_id: int,
        point: LatticePoint,
        fault: ReadFault,
        expected_version: int,
    ) -> _ShardReadOutcome:
        """One shard's read: failover across replicas, hedge stragglers.

        Decisions are collected locally and joined by the gather (in
        shard order), so concurrent fan-out threads never interleave
        one request's trail.
        """
        decisions: List[Decision] = []
        fault_pending = fault is not NO_FAULT
        replicas = self.shards[shard_id]
        # Deterministic span id per shard (key, not a shared counter):
        # the fan-out threads race, but the ids must not.
        with obs.span(
            "cluster.shard",
            category="cluster",
            key=f"s{shard_id}",
            shard=shard_id,
        ) as span:
            for replica in replicas:
                if not replica.healthy:
                    self._count_failover(decisions, op, shard_id, replica)
                    continue
                extra_seconds = 0.0
                if fault_pending:
                    fault_pending = False
                    healthy = sum(1 for r in replicas if r.healthy)
                    if fault.crash and healthy > 1:
                        replica.crash()
                        with self._lock:
                            self._crashes += 1
                        decisions.append(
                            self._decision(
                                "crash", op, shard_id, replica.replica,
                                "fault injected: replica crashed",
                            )
                        )
                        self._count_failover(decisions, op, shard_id, replica)
                        continue
                    extra_seconds = fault.extra_seconds
                answer = self._read_replica(
                    replica, point, expected_version, op, decisions
                )
                if answer is None:
                    self._count_failover(decisions, op, shard_id, replica)
                    continue
                latency = answer.modeled_seconds + extra_seconds
                if extra_seconds:
                    decisions.append(
                        self._decision(
                            "straggle", op, shard_id, replica.replica,
                            f"fault injected: +{extra_seconds:.3f}s "
                            f"modeled delay",
                            modeled_seconds=latency,
                        )
                    )
                deadline = self.hedge_deadline_seconds
                if deadline is not None and latency > deadline:
                    answer, latency = self._hedge(
                        op, shard_id, point, expected_version,
                        replica, answer, latency, decisions,
                    )
                span.annotate(
                    replica=answer.replica,
                    tier=answer.tier,
                    hedged=any(d["kind"] == "hedge" for d in decisions),
                    failover=any(
                        d["kind"] == "failover" for d in decisions
                    ),
                ).set_sim(latency)
                return _ShardReadOutcome(answer, latency, decisions)
            span.set_status("error").annotate(error="ShardUnavailable")
        raise ShardUnavailable(shard_id, -1, "no healthy replica")

    def _read_replica(
        self,
        replica: ShardReplica,
        point: LatticePoint,
        expected_version: int,
        op: int,
        decisions: List[Decision],
    ) -> Optional[ShardAnswer]:
        """Read one replica, syncing it when it answers stale.

        Returns ``None`` when the replica is (or goes) down.  An answer
        *ahead* of the expected version is returned as-is: the gather's
        vector-consistency check decides what to do with it.
        """
        answer: Optional[ShardAnswer] = None
        for _ in range(MAX_STALE_RETRIES + 1):
            try:
                answer = replica.read_states(point)
            except ShardUnavailable:
                return None
            if answer.version >= expected_version:
                return answer
            with self._lock:
                self._stale_retries += 1
            decisions.append(
                self._decision(
                    "stale_retry", op, replica.shard, replica.replica,
                    f"answered v{answer.version} < expected "
                    f"v{expected_version}; syncing and retrying",
                )
            )
            try:
                replica.sync()
            except ShardUnavailable:
                return None
        return answer

    def _hedge(
        self,
        op: int,
        shard_id: int,
        point: LatticePoint,
        expected_version: int,
        primary: ShardReplica,
        answer: ShardAnswer,
        latency: float,
        decisions: List[Decision],
    ) -> Tuple[ShardAnswer, float]:
        """Retry a straggling read on a backup; cheaper answer wins.

        The hedged path costs ``deadline + backup`` modeled seconds —
        the coordinator waited out the deadline before asking twice.
        """
        deadline = self.hedge_deadline_seconds or 0.0
        backup = next(
            (
                candidate
                for candidate in self.shards[shard_id]
                if candidate.healthy
                and candidate.replica != primary.replica
            ),
            None,
        )
        if backup is None:
            return answer, latency
        backup_answer = self._read_replica(
            backup, point, expected_version, op, decisions
        )
        if backup_answer is None:
            return answer, latency
        with self._lock:
            self._hedges += 1
        hedged_latency = deadline + backup_answer.modeled_seconds
        if hedged_latency < latency:
            decisions.append(
                self._decision(
                    "hedge", op, shard_id, backup.replica,
                    f"backup beat straggler: {hedged_latency:.4f}s < "
                    f"{latency:.4f}s",
                    modeled_seconds=hedged_latency,
                )
            )
            return backup_answer, hedged_latency
        decisions.append(
            self._decision(
                "hedge", op, shard_id, primary.replica,
                f"straggler finished first: {latency:.4f}s <= "
                f"{hedged_latency:.4f}s",
                modeled_seconds=latency,
            )
        )
        return answer, latency

    def _count_failover(
        self,
        decisions: List[Decision],
        op: int,
        shard_id: int,
        replica: ShardReplica,
    ) -> None:
        with self._lock:
            self._failovers += 1
        decisions.append(
            self._decision(
                "failover", op, shard_id, replica.replica,
                f"replica {replica.replica} unavailable; "
                f"trying next replica",
            )
        )

    def _merge(
        self, outcomes: List[_ShardReadOutcome]
    ) -> Tuple[ServedCuboid, float]:
        with obs.span(
            "cluster.merge", category="cluster", shards=len(outcomes)
        ):
            states = merge_states(
                self._fn,
                [outcome.answer.states for outcome in outcomes],
            )
            cuboid = finalize_states(self._fn, states)
        # Scatter-gather critical path: the slowest shard, plus one
        # merge op per merged cell.
        latency = max(
            (outcome.latency for outcome in outcomes), default=0.0
        ) + len(cuboid) * _CPU_OP_SECONDS
        with self._lock:
            self._requests += 1
            self._modeled_cost_seconds += latency
            self._merged_cells += len(cuboid)
        return cuboid, latency

    # ------------------------------------------------------------------
    # writes: serialized, checked whole, fanned out through the delta path
    # ------------------------------------------------------------------
    def insert(self, rows: Sequence[FactRow]) -> VersionVector:
        """Ingest delta facts; returns the new version vector."""
        return self._write(list(rows), op="insert")

    def delete(self, rows: Sequence[FactRow]) -> VersionVector:
        """Retract delta facts; returns the new version vector."""
        return self._write(list(rows), op="delete")

    def _write(self, rows: List[FactRow], op: str) -> VersionVector:
        decisions: List[Decision] = []
        started = time.perf_counter()
        with self._write_lock, obs.span(
            f"cluster.{op}", category="cluster", rows=len(rows)
        ):
            ids = self._check_batch(rows, op)
            with self._lock:
                write_op = self._op
                self._op += 1
            slices = partition_rows(rows, self.n_shards)
            touched = [
                shard_id
                for shard_id, shard_rows in enumerate(slices)
                if shard_rows
            ]
            for shard_id in touched:
                for replica in self.shards[shard_id]:
                    defer = (
                        self.chaos is not None
                        and replica.healthy
                        and self.chaos.plan_write_stale(
                            write_op, shard_id, replica.replica
                        )
                    )
                    replica.apply(op, slices[shard_id], defer=defer)
                    if defer:
                        decisions.append(
                            self._decision(
                                "stale", write_op, shard_id,
                                replica.replica,
                                f"fault injected: {op} batch deferred "
                                f"(replica lags the write log)",
                            )
                        )
            if op == "insert":
                self._fact_ids |= ids
            else:
                self._fact_ids -= ids
            with self._lock:
                for shard_id in touched:
                    self._expected[shard_id] += 1
                vector = tuple(self._expected)
                self._history.append(vector)
                self._history_set.add(vector)
                self._writes += 1
        self._log(
            "cluster.write", 0.0, started,
            op=op,
            rows=len(rows),
            shards=tuple(touched),
            versions=vector,
            decisions=tuple(decisions),
        )
        return VersionVector(vector)

    def _check_batch(
        self, rows: List[FactRow], op: str
    ) -> Set[Tuple[int, int]]:
        """The batch's fact ids, refused before any replica applies or
        queues any of it: an insert naming a present fact id, a delete
        naming an absent one, or a fact id named twice is a
        :class:`CubeError`."""
        ids = {row.fact_id for row in rows}
        if len(ids) != len(rows):
            raise CubeError(f"{op} batch names a fact id twice")
        if op == "insert" and not ids.isdisjoint(self._fact_ids):
            raise CubeError("attempted to insert a fact id already present")
        if op == "delete" and not ids <= self._fact_ids:
            raise CubeError("attempted to delete facts not in the table")
        return ids

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------
    def sync_all(self) -> None:
        """Drain every healthy replica's write backlog."""
        for shard in self.shards:
            for replica in shard:
                if replica.healthy and replica.lagging:
                    replica.sync()

    def heal_all(self) -> int:
        """Revive every crashed replica (replays its backlog); one
        ``cluster.heal`` record lists the replicas healed."""
        decisions: List[Decision] = []
        started = time.perf_counter()
        for shard in self.shards:
            for replica in shard:
                if not replica.healthy:
                    replica.heal()
                    with self._lock:
                        self._heals += 1
                    decisions.append(
                        self._decision(
                            "heal", -1, replica.shard, replica.replica,
                            "replica healed and caught up",
                        )
                    )
        self._log(
            "cluster.heal", 0.0, started,
            healed=len(decisions), decisions=tuple(decisions),
        )
        return len(decisions)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @staticmethod
    def _decision(
        kind: str,
        op: int,
        shard: int,
        replica: int,
        detail: str,
        modeled_seconds: float = 0.0,
    ) -> Decision:
        return {
            "kind": kind,
            "op_index": op,
            "shard": shard,
            "replica": replica,
            "detail": detail,
            "modeled_seconds": modeled_seconds,
        }

    def health(self) -> Dict[str, Any]:
        """Shard/replica health: ``down`` when some shard has no healthy
        replica left, ``degraded`` when any replica is crashed or lags
        the write log."""
        replicas = [
            [replica.healthy for replica in shard] for shard in self.shards
        ]
        healthy = sum(sum(shard) for shard in replicas)
        total = sum(len(shard) for shard in replicas)
        lagging = sum(
            1
            for shard in self.shards
            for replica in shard
            if replica.healthy and replica.lagging
        )
        if not all(any(shard) for shard in replicas):
            status = "down"
        elif healthy == total and not lagging:
            status = "ok"
        else:
            status = "degraded"
        return {
            "kind": "cluster",
            "status": status,
            "shards": self.n_shards,
            "replicas_per_shard": self.n_replicas,
            "healthy_replicas": healthy,
            "total_replicas": total,
            "lagging_replicas": lagging,
            "replica_health": replicas,
            "version": list(self.version_token()),
        }

    def stats(self) -> ClusterStats:
        with self._lock:
            healthy = sum(
                1
                for shard in self.shards
                for replica in shard
                if replica.healthy
            )
            return ClusterStats(
                shards=self.n_shards,
                replicas=self.n_replicas,
                requests=self._requests,
                writes=self._writes,
                rejects=self._rejects,
                failovers=self._failovers,
                hedges=self._hedges,
                stale_retries=self._stale_retries,
                crashes=self._crashes,
                heals=self._heals,
                modeled_cost_seconds=self._modeled_cost_seconds,
                merged_cells=self._merged_cells,
                version=tuple(self._expected),
                healthy_replicas=healthy,
                per_shard_rows=tuple(
                    len(shard[0].table.rows) for shard in self.shards
                ),
            )
