"""Coordinator contract: every gathered answer — healthy or degraded —
equals a serial NAIVE recompute over the rows at the answer's version."""

import sys
import threading

import pytest

from repro.cluster import (
    ChaosEngine,
    ChaosProfile,
    ClusterCoordinator,
    VersionVector,
)
from repro.cluster import coordinator as coordinator_module
from repro.cluster.cli import logged_read_seconds, report
from repro.core.aggregates import AggregateSpec
from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.query import Query
from repro.errors import ClusterError, CubeError, ShardUnavailable
from repro.obs.live import percentile
from repro.serve.replay import replay, sample_points
from repro.testing import messy_workload, small_workload, treebank_workload
from tests.conftest import cuboid_of


def fresh(**overrides):
    workload = small_workload(**overrides)
    table = workload.fact_table()
    return table, workload.oracle(table)


def reference_cuboid(table, rows, point):
    snapshot = FactTable(table.lattice, list(rows), table.aggregate)
    result = compute_cube(
        snapshot, ExecutionOptions(algorithm="NAIVE", points=(point,))
    )
    return result.cuboids[point]


def with_aggregate(table, function):
    spec = (
        AggregateSpec()
        if function == "COUNT"
        else AggregateSpec(function, "@m")
    )
    return FactTable(table.lattice, list(table.rows), aggregate=spec)


def decisions(coordinator):
    """Every coordination decision in the request log, in order."""
    return [
        decision
        for record in coordinator.events.traces()
        for decision in record.spans[0].attrs.get("decisions", ())
    ]


def decision_kinds(coordinator):
    return [decision["kind"] for decision in decisions(coordinator)]


def first_point(table):
    return next(iter(table.lattice.points()))


def assert_cluster_serves_exactly(coordinator, table, rows=None):
    rows = table.rows if rows is None else rows
    for point in table.lattice.points():
        expected = reference_cuboid(table, rows, point)
        got = cuboid_of(coordinator, point)
        if table.aggregate.function == "COUNT":
            assert got == expected, table.lattice.describe(point)
        else:
            # SUM/AVG fold in a different (per-shard) order; values are
            # equal up to float associativity.
            assert set(got) == set(expected)
            for key in expected:
                assert got[key] == pytest.approx(
                    expected[key], rel=1e-9, abs=1e-12
                )


class TestHealthyCluster:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 8])
    def test_matches_serial_naive(self, n_shards):
        table, oracle = fresh()
        with ClusterCoordinator(table, n_shards, 2, oracle=oracle) as c:
            assert_cluster_serves_exactly(c, table)

    def test_messy_workload_matches(self):
        # Non-disjoint grouping and incomplete coverage: exactly the
        # paper's Sec. 2 hard cases.  Fact partitioning stays disjoint,
        # so the gathered states still merge losslessly.
        workload = messy_workload()
        table = workload.fact_table()
        with ClusterCoordinator(table, 4, 2) as coordinator:
            assert_cluster_serves_exactly(coordinator, table)

    @pytest.mark.parametrize("function", ["SUM", "MIN", "MAX", "AVG"])
    def test_all_aggregates_merge(self, function):
        table, _ = fresh()
        table = with_aggregate(table, function)
        with ClusterCoordinator(table, 3, 2) as coordinator:
            assert_cluster_serves_exactly(coordinator, table)

    def test_version_vector_starts_at_zero(self):
        table, oracle = fresh()
        with ClusterCoordinator(table, 3, 2, oracle=oracle) as c:
            assert c.version_vector == VersionVector.zero(3)
            answered = c.query(Query(point=first_point(table))).version
            assert VersionVector(answered) == VersionVector.zero(3)

    def test_rejects_foreign_point(self):
        table, oracle = fresh()
        other = small_workload(n_axes=2).fact_table()
        with ClusterCoordinator(table, 2, 1, oracle=oracle) as c:
            with pytest.raises(CubeError):
                cuboid_of(c, first_point(other))

    def test_rejects_bad_geometry(self):
        table, _ = fresh()
        with pytest.raises(ClusterError):
            ClusterCoordinator(table, 0)
        with pytest.raises(ClusterError):
            ClusterCoordinator(table, 2, 0)


class TestOlapOperations:
    def test_cell_slice_dice_match_single_node(self):
        from repro.serve import CubeServer

        table, oracle = fresh()
        server = CubeServer(table, oracle)
        point = first_point(table)
        with ClusterCoordinator(table, 4, 2, oracle=oracle) as c:
            cuboid = cuboid_of(server, point)
            some_key = next(iter(cuboid))
            axis, value = table.lattice.axes[0].name, some_key[0]
            for query in (
                Query(point=point, kind="cell", key=some_key),
                Query(point=point, kind="slice", axis=axis, value=value),
                Query(point=point, kind="dice", filters=((axis, [value]),)),
            ):
                assert c.query(query).payload == server.query(query).payload


class TestWrites:
    def test_insert_delete_roundtrip(self):
        table, oracle = fresh()
        rows = list(table.rows)
        with ClusterCoordinator(table, 4, 2, oracle=oracle) as c:
            batch = rows[:5]
            vector = c.delete(batch)
            assert sum(vector) >= 1  # every touched shard bumped once
            assert_cluster_serves_exactly(c, table, rows[5:])
            reinserted = c.insert(batch)
            assert reinserted.dominates(vector)
            assert_cluster_serves_exactly(c, table, rows[5:] + batch)

    def test_writes_reach_all_replicas(self):
        table, oracle = fresh()
        rows = list(table.rows)
        with ClusterCoordinator(table, 2, 3, oracle=oracle) as c:
            c.delete(rows[:3])
            for shard in c.shards:
                versions = {replica.version for replica in shard}
                assert len(versions) == 1

    def test_read_answers_at_written_version(self):
        table, oracle = fresh()
        rows = list(table.rows)
        with ClusterCoordinator(table, 3, 2, oracle=oracle) as c:
            written = c.delete(rows[:4])
            answered = c.query(Query(point=first_point(table))).version
            assert VersionVector(answered) == written


class TestFailover:
    def test_crashed_primary_fails_over(self):
        table, oracle = fresh()
        with ClusterCoordinator(table, 2, 2, oracle=oracle) as c:
            c.shards[0][0].crash()
            assert_cluster_serves_exactly(c, table)
            kinds = decision_kinds(c)
            assert "failover" in kinds
            assert c.stats().failovers >= 1

    def test_all_replicas_down_is_unavailable(self):
        table, oracle = fresh()
        with ClusterCoordinator(table, 2, 2, oracle=oracle) as c:
            for replica in c.shards[1]:
                replica.crash()
            with pytest.raises(ShardUnavailable):
                cuboid_of(c, first_point(table))

    def test_heal_all_restores_service(self):
        table, oracle = fresh()
        rows = list(table.rows)
        with ClusterCoordinator(table, 2, 2, oracle=oracle) as c:
            for replica in c.shards[1]:
                replica.crash()
            c.delete(rows[:3])  # queued on the downed replicas
            assert c.heal_all() == 2
            (heal,) = c.events.named("cluster.heal")
            assert heal.spans[0].attrs["healed"] == 2
            assert decision_kinds(c)[-2:] == ["heal", "heal"]
            assert_cluster_serves_exactly(c, table, rows[3:])

    def test_crashed_replica_catches_up_on_heal(self):
        table, oracle = fresh()
        rows = list(table.rows)
        with ClusterCoordinator(table, 2, 2, oracle=oracle) as c:
            backup = c.shards[0][1]
            backup.crash()
            c.delete(rows[:4])
            backup.heal()
            assert backup.version == c.shards[0][0].version


class TestStaleReplicas:
    def test_stale_replica_synced_before_answering(self):
        table, oracle = fresh()
        rows = list(table.rows)
        chaos = ChaosEngine(
            ChaosProfile(name="stale-only", stale_rate=1.0), seed=1
        )
        with ClusterCoordinator(
            table, 2, 2, oracle=oracle, chaos=chaos
        ) as c:
            c.delete(rows[:3])  # every replica defers (stale_rate=1)
            assert_cluster_serves_exactly(c, table, rows[3:])
            assert c.stats().stale_retries >= 1
            kinds = decision_kinds(c)
            assert "stale" in kinds and "stale_retry" in kinds

    def test_runaway_replica_rejects_then_errors(self):
        table, oracle = fresh()
        with ClusterCoordinator(
            table, 2, 1, oracle=oracle
        ) as c:
            # A replica that applied a write the coordinator never
            # issued: its version is permanently ahead of the write
            # log, so no gather can ever be consistent.
            rogue = c.shards[0][0]
            rogue.apply("delete", list(rogue.table.rows[:1]))
            with pytest.raises(ClusterError):
                cuboid_of(c, first_point(table))
            assert c.stats().rejects == coordinator_module.MAX_READ_ROUNDS
            kinds = decision_kinds(c)
            assert "reject" in kinds
            # The failed read still leaves its one record.
            (failed,) = c.events.named("cluster.read")
            assert failed.status == "error"
            assert failed.spans[0].attrs["error"] == "ClusterError"


def absent_row_on_last_shard(table, n_shards):
    """A fact the table does not hold, hashed to the last shard, so a
    batch's earlier shards come before it in the write fan-out."""
    from dataclasses import replace

    from repro.cluster.partition import partition_rows

    for number in range(10_000):
        row = replace(table.rows[0], fact_id=(99, number))
        if partition_rows([row], n_shards)[-1]:
            return row
    raise AssertionError("no fact id hashes to the last shard")


class TestAllOrNothingWrites:
    """A batch is checked whole against the write log's fact set before
    any replica applies or queues any of it."""

    def versions(self, c):
        """The vector and every replica's target version."""
        return c.version_token(), [
            [replica.target_version for replica in shard]
            for shard in c.shards
        ]

    def test_delete_with_an_absent_fact_changes_nothing(self):
        table, oracle = fresh()
        rows = list(table.rows)
        absent = absent_row_on_last_shard(table, 4)
        with ClusterCoordinator(table, 4, 2, oracle=oracle) as c:
            before = self.versions(c)
            with pytest.raises(CubeError):
                c.delete(rows[:8] + [absent])
            assert self.versions(c) == before
            assert_cluster_serves_exactly(c, table, rows)

    def test_insert_of_a_present_fact_changes_nothing(self):
        table, oracle = fresh()
        rows = list(table.rows)
        absent = absent_row_on_last_shard(table, 4)
        with ClusterCoordinator(table, 4, 2, oracle=oracle) as c:
            before = self.versions(c)
            for batch in ([rows[0]], [absent, rows[-1]], [absent, absent]):
                with pytest.raises(CubeError):
                    c.insert(batch)
                assert self.versions(c) == before
                assert_cluster_serves_exactly(c, table, rows)

    def test_lagging_replicas_are_not_the_reference(self):
        """The fact set follows the write log, not a replica that has
        not caught up on it yet."""
        table, oracle = fresh()
        rows = list(table.rows)
        with ClusterCoordinator(table, 2, 2, oracle=oracle) as c:
            for shard in c.shards:
                shard[1].crash()
            c.delete(rows[:3])  # queued on the crashed replicas
            with pytest.raises(CubeError):
                c.delete(rows[:1])
            c.insert(rows[:3])
            with pytest.raises(CubeError):
                c.insert(rows[:1])
            c.heal_all()
            assert_cluster_serves_exactly(c, table, rows[3:] + rows[:3])


class TestHedgedReads:
    def test_straggler_triggers_hedge(self):
        table, oracle = fresh()
        chaos = ChaosEngine(
            ChaosProfile(
                name="slow", straggle_rate=1.0, straggle_seconds=2.0
            ),
            seed=1,
        )
        with ClusterCoordinator(
            table, 2, 2, oracle=oracle, chaos=chaos,
            hedge_deadline_seconds=0.01,
        ) as c:
            point = first_point(table)
            assert cuboid_of(c, point) == reference_cuboid(
                table, table.rows, point
            )
            assert c.stats().hedges >= 1
            kinds = decision_kinds(c)
            assert "straggle" in kinds and "hedge" in kinds

    def test_hedge_bounds_modeled_latency(self):
        table, oracle = fresh()

        def slow_chaos():
            return ChaosEngine(
                ChaosProfile(
                    name="slow", straggle_rate=1.0, straggle_seconds=5.0
                ),
                seed=1,
            )

        with ClusterCoordinator(
            table, 2, 2, oracle=oracle, chaos=slow_chaos(),
            hedge_deadline_seconds=0.01,
        ) as hedged:
            cuboid_of(hedged, first_point(table))
            (hedged_latency,) = logged_read_seconds(hedged)
        with ClusterCoordinator(
            table, 2, 2, oracle=oracle, chaos=slow_chaos(),
            hedge_deadline_seconds=None,
        ) as unhedged:
            cuboid_of(unhedged, first_point(table))
            (unhedged_latency,) = logged_read_seconds(unhedged)
        assert hedged_latency < unhedged_latency
        assert unhedged_latency >= 5.0


class TestObservability:
    def test_one_record_per_operation_under_concurrency(self):
        """Readers race a writer: the coordinator's request log holds
        exactly one record per read and per write, seq contiguous."""
        table, oracle = fresh()
        rows = list(table.rows)
        points = sample_points(table.lattice, 12, seed=3)
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ClusterCoordinator(table, 2, 2, oracle=oracle) as c:

                def read():
                    try:
                        for point in points:
                            cuboid_of(c, point)
                    except Exception as error:  # reported below
                        errors.append(error)

                readers = [threading.Thread(target=read) for _ in range(4)]
                for reader in readers:
                    reader.start()
                for row in rows[:3]:
                    c.delete([row])
                for reader in readers:
                    reader.join(timeout=60.0)
                assert not any(reader.is_alive() for reader in readers)
                stats = c.stats()
                records = c.events.traces()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert (stats.requests, stats.writes) == (4 * len(points), 3)
        assert len(records) == stats.requests + stats.writes
        assert [r.seq for r in records] == list(range(len(records)))
        assert c.events.dropped == 0

    def test_read_and_write_events_carry_versions(self):
        table, oracle = fresh()
        rows = list(table.rows)
        with ClusterCoordinator(table, 3, 1, oracle=oracle) as c:
            c.delete(rows[:2])
            cuboid_of(c, first_point(table))
            reads = c.events.named("cluster.read")
            writes = c.events.named("cluster.write")
            assert [r.seq for r in c.events.traces()] == [0, 1]
            assert len(reads[-1].spans[0].attrs["versions"]) == 3
            assert sum(writes[-1].spans[0].attrs["versions"]) >= 1
            assert writes[-1].spans[0].attrs["op"] == "delete"

    def test_metrics_and_spans_emitted_under_trace(self):
        from repro import obs

        table, oracle = fresh()
        with obs.trace() as tracer:
            with ClusterCoordinator(table, 2, 2, oracle=oracle) as c:
                cuboid_of(c, first_point(table))
            assert c.stats().requests == 1
        trace = tracer.trace()
        names = set(trace.span_names())
        assert {"cluster.request", "cluster.shard", "cluster.merge"} \
            <= names

    def test_stats_snapshot(self):
        table, oracle = fresh()
        with ClusterCoordinator(table, 4, 2, oracle=oracle) as c:
            points = list(table.lattice.points())[:3]
            for point in points:
                cuboid_of(c, point)
            stats = c.stats()
            assert stats.requests == 3
            assert stats.shards == 4 and stats.replicas == 2
            assert stats.healthy_replicas == 8
            assert stats.merged_cells > 0
            assert stats.modeled_cost_seconds > 0
            assert len(logged_read_seconds(c)) == 3
            assert "requests" in stats.summary()

    def test_report_quantiles_read_the_request_log(self, capsys):
        """``x3 cluster``'s p50/p95 are the nearest-rank quantiles of
        the log's ``ok`` ``cluster.read`` records; the coordinator keeps
        no per-read list of its own."""
        table, oracle = fresh()
        points = sample_points(table.lattice, 20, seed=5)
        with ClusterCoordinator(table, 2, 2, oracle=oracle) as c:
            c.delete(list(table.rows)[:1])
            replay(c, points)
            seconds = [
                record.sim_seconds
                for record in c.events.named("cluster.read")
            ]
            report(c, None)
        assert logged_read_seconds(c) == seconds and len(seconds) == 20
        assert not hasattr(c, "_latencies")
        line = capsys.readouterr().out.splitlines()[0]
        assert line.endswith(
            f"p50 {percentile(seconds, 0.50) * 1e3:.2f}ms, "
            f"p95 {percentile(seconds, 0.95) * 1e3:.2f}ms"
        )

    def test_report_says_when_the_log_dropped_reads(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(coordinator_module, "LOG_CAPACITY", 6)
        table, oracle = fresh()
        points = sample_points(table.lattice, 10, seed=5)
        with ClusterCoordinator(table, 2, 2, oracle=oracle) as c:
            replay(c, points)
            report(c, None)
        assert len(logged_read_seconds(c)) == 6
        line = capsys.readouterr().out.splitlines()[0]
        assert line.endswith(
            "(last 6 of 10 reads: the request log keeps 6 records)"
        )


class TestShardCountSweep:
    """One 60-request replay over cold replicas at 1, 2 and 4 shards:
    each shard recomputes a slice that shrinks with the shard count
    while the gather adds one merge op per output cell, so fan-out must
    pay off in modeled time."""

    @pytest.fixture(scope="class")
    def sweep(self):
        prepared = treebank_workload("dense", coverage=True, disjoint=True)
        table = prepared.table
        points = sample_points(table.lattice, 60, 13)
        out = {}
        for n_shards in (1, 2, 4):
            with ClusterCoordinator(
                table,
                n_shards,
                2,
                oracle=prepared.oracle,
                cache_cells=0,
                hedge_deadline_seconds=None,
            ) as cluster:
                replay(cluster, points)
                out[n_shards] = (cluster.stats(), logged_read_seconds(cluster))
        return out

    def test_throughput_rises_and_p95_shrinks(self, sweep):
        throughput = [
            stats.requests / sum(latencies)
            for stats, latencies in sweep.values()
        ]
        assert throughput == sorted(set(throughput)), throughput
        p95 = [percentile(latencies, 0.95) for _, latencies in sweep.values()]
        assert p95 == sorted(set(p95), reverse=True), p95

    def test_rows_and_merged_cells_do_not_depend_on_sharding(self, sweep):
        for n_shards, (stats, _) in sweep.items():
            assert len(stats.per_shard_rows) == n_shards
        assert len({sum(s.per_shard_rows) for s, _ in sweep.values()}) == 1
        assert len({s.merged_cells for s, _ in sweep.values()}) == 1
