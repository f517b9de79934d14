"""One shard replica's state read and write: the answer describes the
read that was asked for, and neither leaves a record of its own — the
one record of a cluster operation is its coordinator's."""

import pytest

from repro.cluster import ClusterCoordinator
from repro.cluster.shard import ShardReplica
from repro.core.aggregates import AggregateSpec
from repro.core.query import Query
from repro.obs.live import LiveTelemetry
from repro.obs.request_log import RequestLog
from repro.testing import small_workload
from tests.cluster.test_coordinator import (
    assert_cluster_serves_exactly,
    fresh,
    with_aggregate,
)


def make_replica(aggregate=None):
    table = small_workload(n_facts=60).fact_table()
    replica = ShardReplica(
        0,
        0,
        table.lattice,
        table.rows,
        aggregate or table.aggregate,
        cache_cells=4096,
    )
    return replica, table.lattice.topo_finer_first()


def refuse(self, *args, **kwargs):
    raise AssertionError("a shard replica recorded its own operation")


class TestReadStates:
    def test_answer_is_its_own_not_the_logs_tail(self):
        """Tier, version and modeled seconds are the asked read's own:
        those ``CubeServer.query`` reports for the same reads on an
        identical fresh replica."""
        replica, points = make_replica()
        twin, _ = make_replica()
        asked, other = points[0], points[-1]
        rows = list(replica.table.rows)[:2]
        replica.read_states(other)  # now a cache hit
        twin.server.query(Query(point=other))
        tiers = []
        for step, point in enumerate((asked, other, asked, other)):
            if step == 2:
                replica.apply("delete", rows)
                twin.server.delete(rows)
            answer = replica.read_states(point)
            expected = twin.server.query(Query(point=point))
            assert (answer.tier, answer.version, answer.modeled_seconds) == (
                expected.tier, expected.version[0], expected.modeled_seconds
            )
            # COUNT: the finalized value is the state
            assert answer.states == expected.as_cuboid()
            tiers.append(answer.tier)
        assert tiers[:2] == ["recompute", "cache"]
        assert replica.version == 1

    def test_never_copies_the_event_ring(self, monkeypatch):
        """A state read or a write batch reads no request log back and
        writes no record or telemetry sample (AVG: on neither of its
        SUM and COUNT servers)."""
        replicas = [
            make_replica(AggregateSpec()),
            make_replica(AggregateSpec("AVG", "@m")),
        ]
        monkeypatch.setattr(RequestLog, "traces", refuse)
        monkeypatch.setattr(RequestLog, "add", refuse)
        monkeypatch.setattr(LiveTelemetry, "record", refuse)
        for replica, points in replicas:
            rows = list(replica.table.rows)[:3]
            for point in points[:4]:
                assert replica.read_states(point).tier in (
                    "recompute", "rollup", "cache"
                )
            replica.apply("delete", rows)
            replica.apply("insert", rows)
            replica.apply("delete", rows, defer=True)
            assert replica.sync() == 3
            for point in points[:4]:
                assert replica.read_states(point).version == 3


class TestOneRecordPerClusterOperation:
    @pytest.mark.parametrize("function", ["COUNT", "AVG"])
    def test_only_the_coordinator_records(self, monkeypatch, function):
        """On a 4x2 cluster: N reads and M writes leave N + M records in
        the coordinator's log and none on any shard server, whose
        counters still count every shard read that ran."""
        table, oracle = fresh()
        table = with_aggregate(table, function)
        rows = list(table.rows)
        component_reads = []
        read_states = ShardReplica.read_states

        def counted(self, point):
            component_reads.append(len(self.servers))
            return read_states(self, point)

        monkeypatch.setattr(ShardReplica, "read_states", counted)
        with ClusterCoordinator(table, 4, 2, oracle=oracle) as coordinator:
            # Every answer equals serial NAIVE, before and after writes.
            assert_cluster_serves_exactly(coordinator, table)
            coordinator.delete(rows[:5])
            coordinator.insert(rows[:2])
            coordinator.delete(rows[5:7])
            assert_cluster_serves_exactly(coordinator, table, rows[7:] + rows[:2])
            reads = 2 * table.lattice.size()
            servers = [
                server
                for shard in coordinator.shards
                for replica in shard
                for server in replica.servers
            ]
            assert len(servers) == 8 * (1 if function == "COUNT" else 2)
            assert coordinator.events.finished == reads + 3
            assert [server.events.finished for server in servers] == [0] * len(
                servers
            )
            assert all(
                window.requests == 0
                for server in servers
                for window in server.telemetry.snapshots()
            )
            assert len(component_reads) == 4 * reads
            assert sum(
                sum(server.stats().tiers.values()) for server in servers
            ) == sum(component_reads)
