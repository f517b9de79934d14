"""One shard replica's state read: the answer describes the read that
was asked for, whatever else the replica's server logged meanwhile."""

from repro.cluster.shard import ShardReplica
from repro.core.query import Query
from repro.obs.live import LiveTelemetry
from repro.obs.trace_store import TraceStore
from repro.testing import small_workload


class _ReentrantSink(LiveTelemetry):
    """Telemetry whose first ``record()`` reads another point through
    the same server — so that read's record lands in the request log
    *after* the record of the read being recorded."""

    def __init__(self, server, other_point):
        super().__init__()
        self._server, self._other = server, other_point
        self.reentered = False

    def record(self, *fields):
        super().record(*fields)
        if not self.reentered:
            self.reentered = True
            self._server.query(Query(point=self._other))


def make_replica():
    table = small_workload(n_facts=60).fact_table()
    replica = ShardReplica(
        0, 0, table.lattice, table.rows, table.aggregate, cache_cells=4096
    )
    return replica, table.lattice.topo_finer_first()


class TestReadStates:
    def test_answer_is_its_own_not_the_logs_tail(self):
        replica, points = make_replica()
        asked, other = points[0], points[-1]
        replica.server.query(Query(point=other))  # now a cache hit
        sink = _ReentrantSink(replica.server, other)
        replica.server.telemetry = sink

        answer = replica.read_states(asked)

        assert sink.reentered
        ours, tail = replica.server.events.named("serve.request")[-2:]
        assert (
            ours.spans[0].attrs["point"], ours.spans[0].attrs["tier"]
        ) == (replica.table.lattice.describe(asked), "recompute")
        assert (
            tail.spans[0].attrs["point"], tail.spans[0].attrs["tier"]
        ) == (replica.table.lattice.describe(other), "cache")
        assert answer.tier == "recompute"
        assert answer.modeled_seconds == ours.sim_seconds
        assert answer.modeled_seconds != tail.sim_seconds
        assert answer.version == 0
        assert answer.states == replica.server.query(
            Query(point=asked)
        ).as_cuboid()  # COUNT: the finalized value is the state

    def test_never_copies_the_event_ring(self, monkeypatch):
        replica, points = make_replica()

        def no_snapshot(self):
            raise AssertionError("read_states read the request log back")

        monkeypatch.setattr(TraceStore, "traces", no_snapshot)
        for point in points[:4]:
            assert replica.read_states(point).tier in (
                "recompute", "rollup", "cache"
            )
