"""A thread-safe, cache-backed query server over one fact table.

:class:`CubeServer` is the one object that answers a lattice point
over time (paper Sec. 3.6): it keeps answering
``cuboid``/``cell``/``slice``/``dice`` queries, caches what
:meth:`~CubeServer.warm` and traffic prove worth keeping and stays
correct under concurrent inserts and deletes.  The cache is the one
store of precomputed cuboids: the Sec. 3.6 advisor's choice
(:func:`repro.core.materialize.select_views`) is served by warming it,
``server.warm(selection.chosen)`` on a cache of at least
``selection.space_used`` cells.

Every request resolves through the **sound-source ladder**, cheapest
first, each rung guarded by the summarizability rules of Sec. 2/3:

1. **cache** — the cuboid is resident in the cost-aware
   :class:`~repro.serve.cache.CuboidCache`;
2. **rollup** — some cached *finer* cuboid soundly derives
   it: the move is drop-only and the
   :class:`~repro.core.properties.PropertyOracle` proves the source
   disjoint (no double counting) and covering (no lost facts);
3. **recompute** — the engine computes the cuboid serially from a row
   snapshot (identical concurrent misses are deduplicated single-flight
   so a stampede computes once).

Writes go through :mod:`repro.core.incremental`'s row helpers: when
the aggregate allows it exactly, a delta replaces each affected cached
cuboid with a patched successor (a continuation of the same left fold
the algorithms run, so answers stay bit-identical to recomputation);
otherwise exactly the affected lattice points are evicted.

A published cuboid is never written to again: cache hits, rollups,
single-flight waiters and shard replicas share the one object, and
answers hand it out read-only (:func:`repro.core.query.finish_query`).
Every cuboid cached or answered is packed
(:class:`~repro.core.packed.PackedCuboid`: sorted codes and values, in
wire order) where it is made — the engine returns it packed (the
warm-up sweep packs from its group ids, a recompute's NAIVE with the
table's dictionaries), a roll-up and a write's patch work on the codes.
Reads are versioned: the returned cuboid is correct for the table
version reported alongside it, and an in-flight recompute whose version
was overtaken by a write is served to its waiters (still correct at
*their* snapshot) but never admitted to the cache.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.core.bindings import FactRow, FactTable, GroupKey
from repro.core.cube import CubeResult, ExecutionOptions, compute_cube
from repro.core.incremental import (
    affected_points,
    ingest_rows,
    retract_rows,
)
from repro.core.lattice import LatticePoint
from repro.core.materialize import cuboid_sizes
from repro.core.merge import STATE_EXACT_AGGREGATES
from repro.core.properties import PropertyOracle
from repro.core.query import Answer, CubeBackend, Plan, PointSpec
from repro.core.rollup import derivable, rollup_cuboid
from repro.cost import CostModel
from repro.obs.events import EvictionRecord, RungDecision, rung_reasons
from repro.obs.live import LiveTelemetry
from repro.obs.request_log import RequestLog
from repro.obs.trace_store import TraceStore
from repro.serve.cache import CuboidCache, ServedCuboid
from repro.serve.singleflight import SingleFlight

#: Tier names, in ladder order.
TIERS = ("cache", "rollup", "recompute")

#: Records the request log (:attr:`CubeServer.events`) keeps.
LOG_CAPACITY = 4096

#: The trail entries of the rungs a walk never reached, by the rung it
#: stopped at: every trail lists all three rungs, in ladder order.
_NOT_REACHED: Dict[str, Tuple[RungDecision, ...]] = {
    rung: tuple(
        RungDecision(later, False, f"not reached (resolved at {rung})")
        for later in TIERS[position + 1:]
    )
    for position, rung in enumerate(TIERS)
}

#: Aggregates whose finalized cells can absorb a deletion exactly.  Only
#: COUNT qualifies: its value *is* the group's support, so fully
#: retracted groups are detectable and removed.  SUM could subtract the
#: measure but cannot tell a zero-sum group from a retracted one.
_PATCH_DELETE = {"COUNT"}

# Modeled serve-side costs, on the cost model's simulated-seconds scale.
_CPU_OP_SECONDS = CostModel.cpu_op_cost


@dataclass(frozen=True)
class ServeStats:
    """A consistent snapshot of the server's counters."""

    requests: int
    tiers: Dict[str, int]
    modeled_cost_seconds: float
    cold_cost_seconds: float
    cache: Dict[str, int]
    cache_used_cells: int
    cache_budget_cells: int
    singleflight_led: int
    singleflight_shared: int
    writes: int
    patched_points: int
    evicted_points: int
    version: int

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered without touching base data
        (anything above the recompute tier)."""
        if not self.requests:
            return 0.0
        return 1.0 - self.tiers.get("recompute", 0) / self.requests

    @property
    def modeled_speedup(self) -> float:
        """Cold recompute cost over the cost actually paid."""
        if self.modeled_cost_seconds <= 0.0:
            return 1.0
        return self.cold_cost_seconds / self.modeled_cost_seconds

    def summary(self) -> str:
        tier_text = ", ".join(
            f"{tier}={self.tiers.get(tier, 0)}"
            for tier in TIERS
            if self.tiers.get(tier, 0)
        )
        return (
            f"{self.requests} requests ({tier_text}); "
            f"hit rate {self.hit_rate:.0%}; modeled "
            f"{self.modeled_cost_seconds:.4f}s vs cold "
            f"{self.cold_cost_seconds:.4f}s "
            f"({self.modeled_speedup:.1f}x)"
        )


class _Ladder(NamedTuple):
    """One walk of the sound-source ladder: what was decided, and the
    resident input the deciding rung reads."""

    version: int  #: table version the decision is valid at
    tier: str  #: the rung that answers
    rungs: Tuple[RungDecision, ...]  #: all three verdicts, ladder order
    #: the cache hit, or the (source point, cuboid) pair of the rollup
    #: rung; ``None`` for recompute, which reads base data
    source: Any


@dataclass
class _Counters:
    requests: int = 0
    tiers: Dict[str, int] = field(
        default_factory=lambda: {tier: 0 for tier in TIERS}
    )
    modeled_cost_seconds: float = 0.0
    cold_cost_seconds: float = 0.0
    writes: int = 0
    patched_points: int = 0
    evicted_points: int = 0


class CubeServer(CubeBackend):
    """Concurrent cube serving over one :class:`FactTable`.

    Args:
        table: the fact table to serve; writes mutate it.
        oracle: property oracle proving disjointness/coverage for the
            rollup tier; ``None`` is the pessimistic oracle, which
            disables rollups (never unsound, never fast).
        cache_cells: budget of the cuboid cache, in cells.
        telemetry: sliding-window telemetry sink; a default
            :class:`~repro.obs.live.LiveTelemetry` is created when
            omitted.
        trace_store: distributed-trace sink.  When set, every query
            joins (or, at this server's edge, mints) a
            :class:`~repro.obs.propagate.TraceContext`; sampled
            requests record a span tree — ladder walk, single-flight
            links, the engine's and algorithms' spans under each
            recompute — and stamp their trace id on their request-log
            record and eviction records.  ``None`` (the default) keeps
            the query path exactly as before: zero tracing cost.

    Every read and write through the server's door — ``query``,
    ``insert``, ``delete`` — leaves one record in :attr:`events`, the
    request log (a :class:`~repro.obs.request_log.RequestLog`): a
    ``serve.request`` or ``serve.write`` root span whose attrs are the
    operation's facts — for a read the rung trail (``rungs``, the
    reason per rung), the cache audit, the version and the cells.  A
    read also leaves one :attr:`telemetry` sample.  Behind the door are
    the two unrecorded steps, :meth:`read` (the ladder) and
    :meth:`apply` (the write path); a
    :class:`~repro.cluster.shard.ShardReplica` calls those, because the
    one record of a cluster operation is its coordinator's.
    """

    name = "serve"
    telemetry: LiveTelemetry

    def __init__(
        self,
        table: FactTable,
        oracle: Optional[PropertyOracle] = None,
        *,
        cache_cells: int = 4096,
        telemetry: Optional[LiveTelemetry] = None,
        trace_store: Optional[TraceStore] = None,
    ) -> None:
        self.table = table
        self.lattice = table.lattice
        self.oracle = oracle or PropertyOracle.from_flags(
            table.lattice, False, False
        )
        self.aggregate = table.aggregate
        self._aggregate = table.aggregate.function.upper()
        self._fn = table.aggregate.fn
        self._lock = threading.RLock()
        self._version = 0
        self._counters = _Counters()
        self.events = RequestLog(LOG_CAPACITY)
        self.telemetry = telemetry if telemetry is not None else LiveTelemetry()
        self.trace_store = trace_store
        self._audit_local = threading.local()
        self.cache = CuboidCache(cache_cells, observer=self._on_cache_audit)
        self._flight = SingleFlight()
        # modeled recompute cost per point, measured on first recompute
        self._measured_cost: Dict[LatticePoint, float] = {}
        self._sizes: Optional[Dict[LatticePoint, int]] = None
        self._snapshot: Optional[FactTable] = None

    # ------------------------------------------------------------------
    # versions and snapshots
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    def version_token(self) -> Tuple[int, ...]:
        """The current version as a 1-vector (CubeBackend contract)."""
        return (self.version,)

    def snapshot(self) -> Tuple[int, Tuple[FactRow, ...]]:
        """The current (version, rows) pair, atomically."""
        with self._lock:
            return self._version, tuple(self.table.rows)

    def _snapshot_table(
        self, points: Sequence[LatticePoint] = ()
    ) -> Tuple[int, FactTable]:
        """The current version and the private copy of the table at it —
        what every engine job over ``points`` reads, so it can run
        outside the lock.

        One copy per version, shared by every job until the next write
        drops it (:meth:`_finish_write`); no job mutates it, so its
        memoised columnar encoding and state views are built once per
        version however many jobs read them.  A NAIVE job (one point,
        :meth:`_engine_options`) packs with the copy's dictionaries,
        and the copy takes the live table's: the values each axis has
        held, collected once, at the first such job, and widened by
        every insert, so a later insert seldom brings a part a
        recomputed cuboid's dictionaries lack and its patch seldom
        re-ranks the codes.
        """
        with self._lock:
            if self._snapshot is None:
                self._snapshot = FactTable(
                    self.lattice, self.table.rows, self.table.aggregate
                )
            if len(points) == 1:
                self._snapshot.share_dictionaries(self.table)
            return self._version, self._snapshot

    @staticmethod
    def _engine_options(points: Sequence[LatticePoint]) -> ExecutionOptions:
        """The serial engine job over ``points``; its size picks the
        kernel.

        A one-point job (the recompute rung, a one-point warm-up) runs
        NAIVE, which packs with the live table's dictionaries
        (:meth:`_snapshot_table`).  A job that asks for several points
        at once (warm-up) runs the COLUMNAR sweep, which shares the trie
        prefixes across all of them over the version's one encoding
        (:meth:`_snapshot_table`).
        The one-point rung does not switch on that encoding being
        there: right after a write it is not, and the encode alone
        costs more than a NAIVE scan (DESIGN.md Sec. 5c, "Set-up").
        Both kernels are exact for every lattice point, so no served
        answer depends on a summarizability property.
        """
        algorithm = "COLUMNAR" if len(points) > 1 else "NAIVE"
        return ExecutionOptions(algorithm=algorithm, points=tuple(points))

    # ------------------------------------------------------------------
    # cache audit plumbing
    # ------------------------------------------------------------------
    def _on_cache_audit(
        self, kind: str, point: LatticePoint, priority: float, cells: int
    ) -> None:
        """CuboidCache observer: route every cache-state change into the
        current operation's audit trail (when one is being captured) and
        the live telemetry.  Called with the cache lock held."""
        record = EvictionRecord(
            kind=kind,
            point=self.lattice.describe(point),
            priority=priority,
            cells=cells,
            trace_id=obs.current().trace_id_hex,
        )
        sink = getattr(self._audit_local, "sink", None)
        if sink is not None:
            sink.append(record)
        self.telemetry.record_eviction(record)

    @contextmanager
    def _capture_audit(self) -> Iterator[List[EvictionRecord]]:
        """Collect this thread's cache audit records for one operation."""
        records: List[EvictionRecord] = []
        previous = getattr(self._audit_local, "sink", None)
        self._audit_local.sink = records
        try:
            yield records
        finally:
            self._audit_local.sink = previous

    # ------------------------------------------------------------------
    # reads — what CubeBackend.query / explain_query ask of this backend
    # ------------------------------------------------------------------
    def _answer(self, point: LatticePoint, kind: str) -> Answer:
        """The door: one :meth:`read`, then the request's record — one
        ``serve.request`` record in :attr:`events`, whose attrs the
        sampled trace's ``serve.request`` span carries too, and one
        telemetry sample.  The rung trail returned is the one recorded:
        it belongs to exactly this request, no racing readback from the
        log."""
        started = time.perf_counter()
        answer, facts = self.read(point, kind)
        wall = time.perf_counter() - started
        _, _, tier, _, cost = answer
        trace_id = obs.current().trace_id_hex
        self.events.add(
            "serve.request", "serve", cost, wall, trace_id, **facts
        )
        self.telemetry.record(tier, facts["point"], cost, wall, trace_id)
        return answer

    def read(
        self, point: LatticePoint, kind: str = "aggregate"
    ) -> Tuple[Answer, Dict[str, Any]]:
        """Walk the ladder once for ``point``, unrecorded: the
        ``serve.request`` span, the rung that answers and the counters
        :meth:`stats` reports, but no request-log record and no
        telemetry sample.  Returns the answer and the facts the span
        carries (the door records them).

        A shard replica reads through here: its answer is one part of a
        cluster read, whose one record is the coordinator's.
        """
        described = self.lattice.describe(point)
        with obs.span(
            "serve.request", category="serve", point=described, kind=kind
        ) as span:
            with self._capture_audit() as audit:
                cuboid, version, tier, rungs, cost = self._resolve(point)
            with self._lock:
                self._counters.requests += 1
                self._counters.tiers[tier] += 1
                self._counters.modeled_cost_seconds += cost
                cold = self._cold_cost(point)
                self._counters.cold_cost_seconds += cold
            facts: Dict[str, Any] = dict(
                kind=kind,
                point=described,
                tier=tier,
                version=version,
                cold_seconds=cold,
                cells=len(cuboid),
                rungs=rung_reasons(rungs),
                cache_audit=tuple(audit),
            )
            span.annotate(**facts).set_sim(cost)
        return (cuboid, (version,), tier, rungs, cost), facts

    def _plan(self, point: LatticePoint) -> Plan:
        """The ladder walk alone: touches no cache priority, counter or
        record.  It agrees with the trail :meth:`_answer` records when no
        write intervenes, because both are :meth:`_walk_ladder` over
        the same locked state."""
        with self._lock:
            ladder = self._walk_ladder(point)
        return (ladder.version,), ladder.tier, ladder.rungs, ()

    # ------------------------------------------------------------------
    # the sound-source ladder
    # ------------------------------------------------------------------
    def _walk_ladder(self, point: LatticePoint) -> _Ladder:
        """Decide which rung answers ``point`` right now, and why every
        cheaper one cannot — the one place a rung verdict is made, for
        explain and serve alike.  Call with the lock held.  Pure: the
        cache is only peeked; executing the decision is
        :meth:`_resolve`'s job."""
        rungs: List[RungDecision] = []

        def reject(rung: str, reason: str) -> None:
            rungs.append(RungDecision(rung, False, reason))

        def take(rung: str, reason: str, source: Any = None) -> _Ladder:
            rungs.append(RungDecision(rung, True, reason))
            trail = tuple(rungs) + _NOT_REACHED[rung]
            return _Ladder(self._version, rung, trail, source)

        hit = self.cache.peek(point)
        if hit is not None:
            return take("cache", f"resident in cache ({len(hit)} cells)", hit)
        reject("cache", "not resident")
        source, reason = self._rollup_source(point)
        if source is not None:
            return take("rollup", reason, source)
        reject("rollup", reason)
        return take(
            "recompute",
            f"engine recompute over a {len(self.table.rows)}-row snapshot "
            "(the base operator; always sound)",
        )

    def _resolve(
        self, point: LatticePoint
    ) -> Tuple[ServedCuboid, int, str, Tuple[RungDecision, ...], float]:
        """Execute the ladder's decision for ``point``: the cuboid, the
        table version it is exact at, the rung, the trail, the cost."""
        with self._lock:
            # get() is what counts the hit or miss and refreshes a hit's
            # priority; the walk only peeks, and sees the same cache
            # because the lock is held across both.
            self.cache.get(point)
            version, tier, rungs, source = self._walk_ladder(point)
            if tier == "cache":
                return (
                    source, version, tier, rungs, self._touch_cost(source)
                )
            if tier == "recompute":
                snapshot = self._snapshot_table((point,))[1]
        if tier == "rollup":
            # Rollup arithmetic runs outside the lock; admit only if no
            # write overtook the derivation.
            source_point, source_cuboid = source
            cuboid, cost = self._rollup_from(
                source_point, source_cuboid, point
            )
            with self._lock:
                if self._version == version:
                    self.cache.put(point, cuboid, cost)
            return cuboid, version, tier, rungs, cost
        # Recompute outside the lock, deduplicated per (point, version).
        # The leader publishes its trace span identity into the flight so
        # followers can link their join spans to the span that computed.
        (cuboid, cost), shared, leader_span = self._flight.do_meta(
            (point, version),
            lambda publish: self._recompute(snapshot, point, publish),
        )
        if shared:
            if leader_span:
                with obs.span(
                    "serve.singleflight.join",
                    category="serve",
                    point=self.lattice.describe(point),
                    link_trace_id=leader_span[0],
                    link_span_id=leader_span[1],
                ):
                    pass
        else:
            with self._lock:  # only the flight leader admits
                if self._version == version:
                    self.cache.put(point, cuboid, cost)
        return cuboid, version, tier, rungs, cost

    def _rollup_source(
        self, point: LatticePoint
    ) -> Tuple[Optional[Tuple[LatticePoint, ServedCuboid]], str]:
        """Pick the smallest sound cached source for ``point``.

        Returns ``((source, cuboid), reason)`` on success or
        ``(None, reason)`` where the reason carries the per-candidate
        rejection verdicts of the Sec. 2 disjoint/covered proofs.  Call
        with the server lock held.
        """
        if self._aggregate not in STATE_EXACT_AGGREGATES:
            return None, (
                f"{self._aggregate} is algebraic; its finalized cells "
                "are not its partial states and cannot be re-aggregated"
            )
        best: Optional[Tuple[int, ServedCuboid, LatticePoint, str]] = None
        rejected: List[str] = []
        for source in self.cache.points():
            cuboid = self.cache.peek(source)
            if cuboid is None or source == point:
                continue
            ok, why = derivable(self.lattice, source, point, self.oracle)
            if not ok:
                rejected.append(
                    f"{self.lattice.describe(source)}: {why} "
                    f"[disjoint={self.oracle.disjoint(source)} "
                    f"covered={self.oracle.covered(source)}]"
                )
                continue
            if best is None or len(cuboid) < best[0]:
                best = (len(cuboid), cuboid, source, why)
        if best is None:
            if not rejected:
                return None, "no resident cuboid to derive from"
            shown = "; ".join(rejected[:3])
            more = len(rejected) - 3
            if more > 0:
                shown += f"; ... {more} more"
            return None, (
                f"no sound source among {len(rejected)} resident "
                f"cuboid(s): {shown}"
            )
        size, source_cuboid, source, why = best
        reason = (
            f"derive from {self.lattice.describe(source)} "
            f"({size} cells): {why} [disjoint=True covered=True]"
        )
        return (source, source_cuboid), reason

    def _rollup_from(
        self,
        source: LatticePoint,
        source_cuboid: ServedCuboid,
        point: LatticePoint,
    ) -> Tuple[ServedCuboid, float]:
        """Derive ``point`` from a resident source cuboid, on its
        codes."""
        with obs.span(
            "serve.rollup",
            category="serve",
            source=self.lattice.describe(source),
            target=self.lattice.describe(point),
        ):
            out = rollup_cuboid(
                self.lattice, source_cuboid, source, point, self._fn
            )
        cost = (len(source_cuboid) + len(out)) * _CPU_OP_SECONDS
        return out, cost

    def _recompute(
        self,
        snapshot: FactTable,
        point: LatticePoint,
        publish: Optional[Callable[[Any], None]] = None,
    ) -> Tuple[ServedCuboid, float]:
        """``point``'s cuboid by serial NAIVE over ``snapshot``, and its
        modeled cost.  NAIVE packs it as it goes, with the dictionaries
        the snapshot shares with the live table
        (:meth:`_snapshot_table`), so nothing is packed twice and no
        pass over the rows collects them."""
        with obs.span(
            "serve.recompute",
            category="serve",
            point=self.lattice.describe(point),
            rows=len(snapshot.rows),
        ) as span:
            if publish is not None and span.trace_id_hex:
                publish((span.trace_id_hex, span.span_id_hex))
            result: CubeResult = compute_cube(
                snapshot, self._engine_options((point,))
            )
            span.set_sim(result.cost.simulated_seconds)
        cost = result.cost.simulated_seconds
        with self._lock:
            self._measured_cost[point] = cost
        return result.cuboids[point], cost

    # ------------------------------------------------------------------
    # modeled costs
    # ------------------------------------------------------------------
    @staticmethod
    def _touch_cost(cuboid: ServedCuboid) -> float:
        return max(1, len(cuboid)) * _CPU_OP_SECONDS

    def _cold_cost(self, point: LatticePoint) -> float:
        """What answering from base would have cost (modeled)."""
        measured = self._measured_cost.get(point)
        if measured is not None:
            return measured
        # Deterministic estimate before any measurement exists: one scan
        # of the fact table charging one op per row-axis touch.
        kept = len(self.lattice.kept_axes(point))
        return len(self.table.rows) * (kept + 1) * _CPU_OP_SECONDS

    # ------------------------------------------------------------------
    # warmup
    # ------------------------------------------------------------------
    def sizes(self) -> Mapping[LatticePoint, int]:
        """Exact per-point cell counts (cached; recomputed after writes
        only when asked again).  Every caller at one version shares the
        one census, so it is read-only.

        The census runs outside the lock on the version's table
        snapshot, so reads and writes proceed meanwhile; it is cached
        only if no write overtook it (the caller still gets the fresh
        count).  The encoding it builds stays with the snapshot: a
        :meth:`warm` at the same version reuses it.
        """
        with self._lock:
            if self._sizes is not None:
                return self._sizes
            version, snapshot = self._snapshot_table()
        sizes = cuboid_sizes(snapshot, self.lattice)
        with self._lock:
            if self._version == version:
                self._sizes = sizes
        return sizes

    def warm(
        self,
        points: Optional[Sequence[PointSpec]] = None,
        budget_cells: Optional[int] = None,
    ) -> List[LatticePoint]:
        """Pre-fill the cache with the best cuboids that fit.

        Candidates (default: the whole lattice) are ranked by modeled
        benefit density — recompute cost saved per cell — and admitted
        greedily within ``budget_cells`` (default: the cache budget).
        The chosen cuboids are computed in one serial run of the
        columnar sweep (see :meth:`_engine_options`); it reads the
        snapshot :meth:`sizes` counted, encoded once per version.  Returns the
        warmed points (none if a write overtook the run).
        """
        budget = (
            self.cache.budget_cells if budget_cells is None else budget_cells
        )
        candidates = (
            [self.resolve_point(spec) for spec in points]
            if points is not None
            else list(self.lattice.points())
        )
        sizes = self.sizes()
        with self._lock:
            # Rank against one consistent snapshot of the cost state;
            # the version check before admission below bounds staleness.
            cold_costs = {p: self._cold_cost(p) for p in candidates}
        ranked = sorted(
            candidates,
            key=lambda p: (
                -cold_costs[p] / max(1, sizes[p]),
                p,
            ),
        )
        chosen: List[LatticePoint] = []
        space = 0
        for candidate in ranked:
            size = max(1, sizes[candidate])
            if space + size > budget:
                continue
            chosen.append(candidate)
            space += size
        if not chosen:
            return []
        version, snapshot = self._snapshot_table(chosen)
        with obs.span(
            "serve.warm", category="serve", points=len(chosen)
        ):
            result = compute_cube(snapshot, self._engine_options(chosen))
        share = result.cost.simulated_seconds / len(chosen)
        warmed: List[LatticePoint] = []
        with self._lock:
            if self._version != version:
                return []  # a write overtook the warmup; stay cold
            # The result is this call's own: the cache takes its cuboids.
            for point in chosen:
                self._measured_cost.setdefault(point, share)
                cuboid = result.cuboids[point]
                if self.cache.put(point, cuboid, self._measured_cost[point]):
                    warmed.append(point)
        return warmed

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, rows: Sequence[FactRow]) -> int:
        """Ingest delta facts; returns the new table version.

        A fact id repeated in the batch or already in the table is a
        :class:`CubeError`, and the batch changes nothing.
        """
        return self._write("insert", list(rows))

    def delete(self, rows: Sequence[FactRow]) -> int:
        """Retract delta facts; returns the new table version.

        Any aggregate works: COUNT's cached cells absorb the deletion,
        every other aggregate's affected cuboids are evicted and
        recomputed on demand.
        """
        return self._write("delete", list(rows))

    def _write(self, op: str, rows: List[FactRow]) -> int:
        """The door of a write: :meth:`apply`, then its one
        ``serve.write`` record."""
        started = time.perf_counter()
        with self._capture_audit() as audit:
            version, patched, evicted = self.apply(op, rows)
        self.events.add(
            "serve.write",
            "serve",
            0.0,
            time.perf_counter() - started,
            obs.current().trace_id_hex,
            op=op,
            rows=len(rows),
            version=version,
            patched_points=patched,
            evicted_points=evicted,
            cache_audit=tuple(audit),
        )
        return version

    def apply(self, op: str, rows: List[FactRow]) -> Tuple[int, int, int]:
        """Apply one write batch, unrecorded: ingest (``"insert"``) or
        retract (``"delete"``) ``rows``, patch or evict what they touch
        and finish the version.  Returns the new version and the points
        patched and evicted.  A shard replica writes through here; the
        cluster write's one record is the coordinator's."""
        patchable = (
            STATE_EXACT_AGGREGATES if op == "insert" else _PATCH_DELETE
        )
        with self._lock, obs.span(
            f"serve.{op}", category="serve", rows=len(rows)
        ):
            if op == "insert":
                ingest_rows(self.table, rows)
            else:
                retract_rows(self.table, rows)
            patched_before = self._counters.patched_points
            evicted_before = self._counters.evicted_points
            if self._aggregate in patchable:
                self._patch_cached(rows, op=op)
            else:
                self._evict_affected(rows)
            return (
                self._finish_write(),
                self._counters.patched_points - patched_before,
                self._counters.evicted_points - evicted_before,
            )

    def _finish_write(self) -> int:
        self._version += 1
        self._counters.writes += 1
        self._sizes = None  # size census is stale now
        self._snapshot = None  # and so are the copy and its encoding
        return self._version

    def _patch_cached(self, rows: List[FactRow], op: str) -> None:
        """Replace every affected resident cuboid with its successor
        under a delta batch.

        A successor that grows the cache past its budget evicts (maybe
        a point patched a moment ago): a point counts as patched only if
        it is still resident afterwards, and every eviction counts.
        Every cache write runs under the server lock, so the cache's
        eviction count moves only by this batch here."""
        affected = affected_points(self.table, rows, self.cache.points())
        evictions = self.cache.stats.evictions
        for point in affected:
            resident = self.cache.peek(point)
            if resident is not None:
                self.cache.replace(
                    point, self._apply_delta(resident, rows, point, op)
                )
        self._counters.patched_points += sum(
            point in self.cache for point in affected
        )
        self._counters.evicted_points += self.cache.stats.evictions - evictions

    def _apply_delta(
        self,
        resident: ServedCuboid,
        rows: List[FactRow],
        point: LatticePoint,
        op: str,
    ) -> ServedCuboid:
        """The successor of ``resident`` once ``rows`` are folded in
        (insert) or out (delete); ``resident`` itself is left as is.

        The rows' measures are grouped per touched key, in row order,
        and each key's cell is stepped once, on the resident's codes
        (:meth:`~repro.core.packed.PackedCuboid.updated`)."""
        deltas: Dict[GroupKey, List[float]] = {}
        for row in rows:
            for key in self.table.key_combinations(row, point):
                if key in deltas:
                    deltas[key].append(row.measure)
                else:
                    deltas[key] = [row.measure]
        fn = self._fn
        empty = fn.new()

        def insert(current: Optional[float], measures: List[float]) -> float:
            # A state-exact cell is its own partial state, so the fold
            # continues where the algorithms stopped.
            value = empty if current is None else current
            for measure in measures:
                value = fn.finalize(fn.add(value, measure))
            return value

        def delete(
            current: Optional[float], measures: List[float]
        ) -> Optional[float]:
            # Only COUNT reaches here: a cell is its support.
            remaining = (current or 0.0) - len(measures)
            return None if remaining <= 0.0 else fn.finalize(remaining)

        return resident.updated(deltas, insert if op == "insert" else delete)

    def _evict_affected(self, rows: List[FactRow]) -> None:
        """Evict exactly the lattice points the delta touches."""
        affected = affected_points(self.table, rows, self.cache.points())
        for point in affected:
            if self.cache.invalidate(point):
                self._counters.evicted_points += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> ServeStats:
        with self._lock:
            return ServeStats(
                requests=self._counters.requests,
                tiers=dict(self._counters.tiers),
                modeled_cost_seconds=self._counters.modeled_cost_seconds,
                cold_cost_seconds=self._counters.cold_cost_seconds,
                cache=self.cache.stats.as_dict(),
                cache_used_cells=self.cache.used_cells,
                cache_budget_cells=self.cache.budget_cells,
                singleflight_led=self._flight.led_total,
                singleflight_shared=self._flight.shared_total,
                writes=self._counters.writes,
                patched_points=self._counters.patched_points,
                evicted_points=self._counters.evicted_points,
                version=self._version,
            )
