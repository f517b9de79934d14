"""End-to-end distributed tracing invariants.

The acceptance bar for the tracing layer: a deterministic traced replay
— chaos cluster included — yields exactly one trace per sampled
request, every span of a trace carries that trace's id, request/cluster
events are stamped with the ids of the traces that produced them, the
engine's spans — a server's recompute, a cluster replica's, or a
thread- or process-pool run — parent inside the request trace on the
trace's one clock, and two seeded runs dump byte-identical JSONL once
wall-clock keys are stripped.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.serve.server as serve_server
from repro.cluster.chaos import ChaosEngine, get_profile
from repro.cluster.coordinator import ClusterCoordinator
from repro.bench.determinism import canonical
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.query import Query
from repro.obs.trace_cli import BAR_WIDTH, render_waterfall
from repro.obs.trace_store import TraceStore
from repro.serve import CubeServer
from repro.serve.replay import sample_points
from repro.testing import small_workload


def fresh(**overrides):
    workload = small_workload(**overrides)
    table = workload.fact_table()
    return table, workload.oracle(table)


def ancestors(record, span):
    """Names of ``span``'s ancestors inside ``record``, nearest first."""
    by_id = {each.span_id: each for each in record.spans}
    names = []
    while span.parent_id in by_id:
        span = by_id[span.parent_id]
        names.append(span.name)
    return names


def strip_wall(text):
    """Canonical JSONL minus every ``*wall_seconds`` key — what the CI
    determinism job compares across two seeded runs."""
    out = []
    for line in text.strip().split("\n"):
        if not line:
            continue
        record = json.loads(line)
        record.pop("wall_seconds", None)
        for span in record.get("spans", []):
            span.pop("wall_seconds", None)
            span.pop("start_wall_seconds", None)
        out.append(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
        )
    return "\n".join(out)


class TestServerTracing:
    def test_one_trace_per_query_spanning_serve_and_engine(self):
        table, oracle = fresh()
        store = TraceStore(seed=1)
        server = CubeServer(table, oracle, trace_store=store)
        points = sample_points(table.lattice, 10, 3)
        for point in points:
            result = server.query(Query(point=point))
            assert len(result.trace_id) == 32
        traces = store.traces()
        assert len(traces) == 10
        for record in traces:
            assert record.name == "serve.query"
            assert {span.trace_id for span in record.spans} == {
                record.trace_id
            }
            names = {span.name for span in record.spans}
            assert "serve.request" in names
        # cold recomputes carry the engine's spans in the trace
        categories = {
            span.category
            for record in traces
            for span in record.spans
        }
        assert "serve" in categories
        assert "engine" in categories or "algorithm" in categories

    def test_one_clock_per_trace(self):
        """Every span's wall start is on the trace's one clock: each
        child's interval lies inside its parent's, and the waterfall
        draws the engine where it ran — inside the recompute — rather
        than at the far left of a bar that spans two epochs."""
        table, oracle = fresh()
        store = TraceStore(sample_rate=1.0)
        server = CubeServer(
            table, oracle, cache_cells=0, trace_store=store
        )
        server.query(Query(point=next(iter(table.lattice.points()))))
        (record,) = store.traces()
        by_id = {span.span_id: span for span in record.spans}
        by_name = {span.name: span for span in record.spans}
        algo = next(s for s in record.spans if s.name.startswith("algo."))
        assert ancestors(record, algo) == [
            "engine.run",
            "serve.recompute",
            "serve.request",
            "serve.query",
        ]
        epsilon = 1e-4
        for span in record.spans:
            parent = by_id.get(span.parent_id)
            if parent is None:
                continue
            start, end = (
                span.start_wall_seconds,
                span.start_wall_seconds + span.wall_seconds,
            )
            assert parent.start_wall_seconds - epsilon <= start, span.name
            assert end <= (
                parent.start_wall_seconds + parent.wall_seconds + epsilon
            ), span.name

        def bar_left(name):
            line = next(
                line
                for line in render_waterfall(record.to_dict()).split("\n")
                if f" {name} " in line
            )
            bar = line[line.index("[") + 1:][:BAR_WIDTH]
            return bar.index("#")

        assert bar_left("engine.run") >= bar_left("serve.recompute")
        assert (
            by_name["engine.run"].start_wall_seconds
            >= by_name["serve.recompute"].start_wall_seconds
        )

    def test_request_events_stamped_with_the_trace_id(self):
        table, oracle = fresh()
        store = TraceStore(seed=1)
        server = CubeServer(table, oracle, trace_store=store)
        points = sample_points(table.lattice, 8, 3)
        results = [server.query(Query(point=point)) for point in points]
        records = server.events.named("serve.request")
        assert len(records) == len(results)
        for record, result in zip(records, results):
            assert record.trace_id == result.trace_id

    def test_untraced_server_emits_no_trace_ids(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        result = server.query(Query(point=next(iter(table.lattice.points()))))
        assert result.trace_id == ""
        assert "trace_id" not in result.to_dict()
        assert server.events.named("serve.request")[0].trace_id == ""

    def test_exemplars_link_latency_buckets_to_traces(self):
        table, oracle = fresh()
        store = TraceStore(seed=1)
        server = CubeServer(table, oracle, trace_store=store)
        for point in sample_points(table.lattice, 10, 3):
            server.query(Query(point=point))
        exemplars = server.telemetry.exemplars()
        assert exemplars
        stored_ids = {record.trace_id for record in store.traces()}
        for exemplar in exemplars:
            assert exemplar.trace_id in stored_ids
            assert exemplar.modeled_seconds <= exemplar.bucket_le

    def test_recompute_spans_join_the_trace(self):
        """A cache miss's engine and algorithm spans parent inside its
        request trace.  The one-point job runs serially; spans shipped
        back from a process pool are ``tests/obs/test_parity.py``'s."""
        table, oracle = fresh()
        store = TraceStore(seed=1)
        server = CubeServer(table, oracle, trace_store=store)
        point = next(iter(table.lattice.points()))
        server.query(Query(point=point))
        (record,) = store.traces()
        engine_spans = [
            span
            for span in record.spans
            if span.category in ("engine", "algorithm")
        ]
        assert engine_spans
        ids = {span.span_id for span in record.spans}
        for span in engine_spans:
            # every engine span parents inside this trace
            assert span.parent_id in ids
            assert span.trace_id == record.trace_id
            # host pids never leak into the trace
            assert "pid-" not in json.dumps(span.attrs)

    def test_singleflight_follower_links_to_the_leader_span(self):
        table, oracle = fresh()
        store = TraceStore(seed=1)
        server = CubeServer(
            table, oracle, cache_cells=0, trace_store=store
        )
        point = next(iter(table.lattice.points()))
        leader_started = threading.Event()
        release = threading.Event()
        real_compute = serve_server.compute_cube
        calls = []

        def slow_compute(snapshot, options):
            calls.append(1)
            leader_started.set()
            release.wait(timeout=5.0)
            return real_compute(snapshot, options)

        serve_server.compute_cube = slow_compute
        try:
            leader = threading.Thread(
                target=server.query, args=(Query(point=point),)
            )
            leader.start()
            assert leader_started.wait(timeout=5.0)
            follower = threading.Thread(
                target=server.query, args=(Query(point=point),)
            )
            follower.start()
            # follower must be parked inside the flight before release
            deadline = 50
            while server._flight.shared_total == 0 and deadline:
                threading.Event().wait(0.02)
                deadline -= 1
            release.set()
            leader.join(timeout=5.0)
            follower.join(timeout=5.0)
        finally:
            serve_server.compute_cube = real_compute
        assert len(calls) == 1  # the flight deduplicated the recompute
        traces = store.traces()
        assert len(traces) == 2
        joins = [
            span
            for record in traces
            for span in record.spans
            if span.name == "serve.singleflight.join"
        ]
        assert len(joins) == 1
        join = joins[0]
        leader_trace = next(
            record
            for record in traces
            if record.trace_id == join.attrs["link_trace_id"]
        )
        assert join.trace_id != leader_trace.trace_id
        leader_span_ids = {
            span.span_id for span in leader_trace.spans
        }
        assert join.attrs["link_span_id"] in leader_span_ids


class TestClusterTracing:
    def run_cluster(self, requests=100, chaos="heavy"):
        table, oracle = fresh()
        store = TraceStore(seed=5)
        coordinator = ClusterCoordinator(
            table,
            3,
            2,
            oracle=oracle,
            cache_cells=0,
            chaos=(
                ChaosEngine(get_profile(chaos), seed=11)
                if chaos
                else None
            ),
            hedge_deadline_seconds=0.001,
            trace_store=store,
        )
        points = sample_points(table.lattice, requests, 7)
        try:
            for point in points:
                coordinator.query(Query(point=point))
        finally:
            coordinator.close()
        return coordinator, store

    def test_single_trace_id_spans_coordinator_to_shards_100_of_100(
        self,
    ):
        coordinator, store = self.run_cluster(requests=100)
        traces = store.traces()
        assert len(traces) == 100
        for record in traces:
            assert {span.trace_id for span in record.spans} == {
                record.trace_id
            }, record.trace_id
            shard_spans = [
                span
                for span in record.spans
                if span.name == "cluster.shard"
            ]
            assert len(shard_spans) >= 3  # one per shard minimum
            names = {span.name for span in record.spans}
            assert "cluster.query" in names
            assert "cluster.request" in names
            assert "cluster.merge" in names
            # replica ladder spans nest under the shard reads, and
            # (cache_cells=0 forces recomputes) the engine's under those
            assert "serve.request" in names
            assert "engine.run" in names
            assert any(
                span.category == "algorithm" for span in record.spans
            )

    def test_shard_spans_record_replica_and_degradation(self):
        coordinator, store = self.run_cluster(requests=60)
        shard_spans = [
            span
            for record in store.traces()
            for span in record.spans
            if span.name == "cluster.shard" and span.status == "ok"
        ]
        assert all("replica" in span.attrs for span in shard_spans)
        stats = coordinator.stats()
        if stats.hedges:
            assert any(
                span.attrs.get("hedged") for span in shard_spans
            )
        if stats.failovers:
            assert any(
                span.attrs.get("failover") for span in shard_spans
            )

    def test_two_seeded_runs_are_byte_identical_modulo_wall(self):
        _, first = self.run_cluster(requests=40)
        _, second = self.run_cluster(requests=40)
        assert strip_wall(first.to_jsonl()) == strip_wall(
            second.to_jsonl()
        )

    def test_the_cluster_is_not_dark_and_stays_deterministic(self):
        """Replica recomputes trace like any other: their engine and
        algorithm spans (the one-point kernel, NAIVE) sit under the
        ``cluster.shard`` span that asked, with ids that do not depend
        on the scatter pool's schedule."""

        def replay():
            table, oracle = fresh()
            store = TraceStore(sample_rate=1.0, seed=9)
            with ClusterCoordinator(
                table,
                4,
                2,
                oracle=oracle,
                cache_cells=0,
                trace_store=store,
            ) as coordinator:
                for point in sample_points(table.lattice, 12, 7):
                    coordinator.query(Query(point=point))
            return store

        store = replay()
        assert store.stats()["dropped_spans"] == 0
        for record in store.traces():
            ids = {span.span_id for span in record.spans}
            assert len(ids) == len(record.spans), "span ids collide"
            runs = [s for s in record.spans if s.name == "engine.run"]
            algos = [s for s in record.spans if s.name.startswith("algo.")]
            assert runs and {s.name for s in algos} == {"algo.NAIVE"}
            for span in runs:
                assert "cluster.shard" in ancestors(record, span)
            for span in algos:
                assert ancestors(record, span)[0] == "engine.run"
                assert "cluster.shard" in ancestors(record, span)
        again = replay()
        first = [canonical(r.to_dict()) for r in store.traces()]
        second = [canonical(r.to_dict()) for r in again.traces()]
        assert first == second
        assert "wall_seconds" not in first[0]

    def test_events_carry_the_ids_of_their_traces(self):
        table, oracle = fresh()
        store = TraceStore(seed=5)
        with ClusterCoordinator(
            table,
            2,
            2,
            oracle=oracle,
            cache_cells=0,
            hedge_deadline_seconds=None,
            trace_store=store,
        ) as coordinator:
            for point in sample_points(table.lattice, 20, 7):
                coordinator.query(Query(point=point))
            reads = coordinator.events.named("cluster.read")
        stored = {record.trace_id for record in store.traces()}
        assert len(reads) == 20
        for record in reads:
            assert record.trace_id in stored


class TestContextHandOff:
    """The binding crosses pools as a copied context — nothing to
    capture, nothing to resume, no process-wide tracer to share."""

    def test_unsampled_request_mints_no_inner_root_on_any_worker(self):
        table, oracle = fresh()
        store = TraceStore(sample_rate=0.0, seed=3)
        with ClusterCoordinator(
            table, 4, 2, oracle=oracle, cache_cells=0, trace_store=store
        ) as coordinator:
            assert coordinator._pool is not None  # really fans out
            for replicas in coordinator.shards:
                for replica in replicas:
                    # even a replica with its own store stays quiet: the
                    # unsampled request is bound on the worker thread
                    replica.server.trace_store = store
            for n, point in enumerate(
                sample_points(table.lattice, 10, 7), start=1
            ):
                result = coordinator.query(Query(point=point))
                assert result.trace_id == ""
                assert store.stats()["started"] == n
        assert store.stats()["sampled"] == 0
        assert store.traces() == ()

    def test_concurrent_traced_recomputes_keep_their_own_engine_spans(
        self,
    ):
        table, oracle = fresh()
        points = sample_points(table.lattice, 2, 3)
        assert points[0] != points[1]

        def shape(record):
            return sorted(span.name for span in record.spans)

        expected = {}
        for point in points:
            store = TraceStore(seed=1)
            CubeServer(
                table, oracle, cache_cells=0, trace_store=store
            ).query(Query(point=point))
            (record,) = store.traces()
            expected[table.lattice.describe(point)] = shape(record)

        store = TraceStore(seed=1)
        server = CubeServer(
            table, oracle, cache_cells=0, trace_store=store
        )
        # Hold both recomputes inside the engine at the same time.
        both_inside = threading.Barrier(2, timeout=5.0)
        real_compute = serve_server.compute_cube

        def rendezvous(snapshot, options):
            both_inside.wait()
            result = real_compute(snapshot, options)
            both_inside.wait()
            return result

        serve_server.compute_cube = rendezvous
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(
                    pool.map(
                        server.query,
                        [Query(point=point) for point in points],
                    )
                )
        finally:
            serve_server.compute_cube = real_compute
        traces = store.traces()
        assert len(traces) == 2
        for record in traces:
            ids = {span.span_id for span in record.spans}
            root = next(s for s in record.spans if s.parent_id == "")
            for span in record.spans:
                assert span.trace_id == record.trace_id
                assert span is root or span.parent_id in ids
            assert shape(record) == expected[root.attrs["point"]]
            assert shape(record).count("engine.run") == 1

    @pytest.mark.parametrize("engine", ["thread", "process"])
    def test_pool_partitions_parent_under_engine_run_in_a_request_trace(
        self, engine
    ):
        table, _ = fresh()
        store = TraceStore(seed=4)
        with store.root("bench.cube") as root:
            compute_cube(
                table,
                ExecutionOptions(algorithm="BUC", workers=2, engine=engine),
            )
            trace_id = root.trace_id_hex
        (record,) = store.traces()
        (run,) = [s for s in record.spans if s.name == "engine.run"]
        partitions = [
            s for s in record.spans if s.name == "engine.partition"
        ]
        assert len(partitions) >= 2
        assert all(p.parent_id == run.span_id for p in partitions)
        assert {s.trace_id for s in record.spans} == {trace_id}
        ids = {s.span_id for s in record.spans}
        assert len(ids) == len(record.spans)
        for span in record.spans:
            assert span.parent_id == "" or span.parent_id in ids
            # host pids never leak into what gets dumped
            assert "pid-" not in json.dumps(span.to_dict())
        for algo in (s for s in record.spans if s.name == "algo.BUC"):
            assert ancestors(record, algo)[:2] == [
                "engine.partition",
                "engine.run",
            ]


class TestSamplingE2E:
    def test_head_sampling_records_a_strict_subset(self):
        table, oracle = fresh()
        store = TraceStore(seed=2, sample_rate=0.5)
        server = CubeServer(table, oracle, trace_store=store)
        points = sample_points(table.lattice, 40, 3)
        with_id = 0
        for point in points:
            result = server.query(Query(point=point))
            if result.trace_id:
                with_id += 1
        stats = store.stats()
        assert stats["started"] == 40
        assert 0 < stats["sampled"] < 40
        assert with_id == stats["sampled"] == len(store.traces())

    def test_unsampled_requests_record_zero_spans(self):
        table, oracle = fresh()
        store = TraceStore(seed=2, sample_rate=0.0)
        server = CubeServer(table, oracle, trace_store=store)
        for point in sample_points(table.lattice, 10, 3):
            result = server.query(Query(point=point))
            assert result.trace_id == ""
        assert store.traces() == ()
        assert store.stats()["sampled"] == 0
