"""Explain and execute cannot disagree.

``CubeServer`` decides its ladder in one function (``_walk_ladder``);
``explain_query`` returns that decision, ``query`` executes it.  Over
random schedules of warm / insert / delete / query / eviction — cold
and warmed with the Sec. 3.6 advisor's choice, over a state-exact MIN
and an algebraic AVG aggregate — whenever no write intervenes the two report
the *same padded rung trail*, reasons included; explaining leaves no
trace; and every answer equals serial NAIVE at its version.  On the
cluster, each shard's plan is what that replica's own server explains.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterCoordinator
from repro.core.aggregates import AggregateSpec
from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.query import Query, drilldown_point
from repro.errors import InvalidQuery
from repro.obs.events import rung_reasons
from repro.testing import small_workload
from tests.conftest import advised_server

WORKLOAD = small_workload(n_facts=48)
BASE = WORKLOAD.fact_table()
ORACLE = WORKLOAD.oracle(BASE)
POINTS = BASE.lattice.topo_finer_first()
INITIAL, POOL = list(BASE.rows[:36]), list(BASE.rows[36:])
BATCH = 3

#: mode -> (aggregate function, the advisor's space budget warmed first)
MODES = {
    "plain": ("COUNT", 0),
    "advised": ("COUNT", 60),
    "state-exact": ("MIN", 0),
    "algebraic": ("AVG", 0),
}

point_index = st.integers(min_value=0, max_value=len(POINTS) - 1)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("query"), point_index),
        st.tuples(st.just("drilldown"), point_index),
        st.tuples(st.just("evict"), point_index),
        st.tuples(st.just("warm"), st.integers(20, 200)),
        st.tuples(st.just("insert"), st.just(0)),
        st.tuples(st.just("delete"), st.just(0)),
    ),
    min_size=1,
    max_size=14,
)


def fresh_table(function):
    spec = (
        AggregateSpec()
        if function == "COUNT"
        else AggregateSpec(function, "@m")
    )
    return FactTable(BASE.lattice, list(INITIAL), aggregate=spec)


def naive(table, rows, description):
    point = table.lattice.point_by_description(description)
    snapshot = FactTable(table.lattice, list(rows), table.aggregate)
    return compute_cube(
        snapshot, ExecutionOptions(algorithm="NAIVE", points=(point,))
    ).cuboids[point]


def footprint(server):
    """Everything an explain must leave untouched."""
    return (
        server.stats(),
        server.events.stats(),
        sorted(
            (entry.point, entry.hits, entry.priority)
            for entry in server.cache.entries()
        ),
    )


def read_query(lattice, op, index):
    """A plain read of the point, or a drilldown from it on the first
    axis that still has a finer state."""
    point = POINTS[index]
    if op == "drilldown":
        for axis in lattice.axes:
            try:
                drilldown_point(lattice, point, axis.name)
            except InvalidQuery:
                continue
            return Query(point=point, kind="drilldown", axis=axis.name)
    return Query(point=point)


class Writes:
    """The insert/delete half of a schedule, mirrored on a row list."""

    def __init__(self, backend):
        self.backend = backend
        self.rows = list(INITIAL)
        self.pool = list(POOL)

    def apply(self, op):
        if op == "insert" and self.pool:
            batch, self.pool = self.pool[:BATCH], self.pool[BATCH:]
            self.backend.insert(batch)
            self.rows += batch
        elif op == "delete" and len(self.rows) > BATCH:
            batch, self.rows = self.rows[:BATCH], self.rows[BATCH:]
            self.backend.delete(batch)
            self.pool += batch


@given(
    mode=st.sampled_from(sorted(MODES)),
    cache_cells=st.sampled_from([0, 24, 4096]),
    schedule=operations,
)
@settings(max_examples=60, deadline=None)
def test_server_explain_is_what_query_then_does(mode, cache_cells, schedule):
    function, advised_cells = MODES[mode]
    table = fresh_table(function)
    # The advised modes' cache holds at least the whole choice.
    server, _ = advised_server(
        table, ORACLE, advised_cells,
        cache_cells=max(cache_cells, advised_cells),
    )
    writes = Writes(server)
    for op, argument in schedule:
        if op == "warm":
            server.warm(budget_cells=argument)
        elif op == "evict":
            server.cache.invalidate(POINTS[argument])
        elif op in ("insert", "delete"):
            writes.apply(op)
        else:
            query = read_query(table.lattice, op, argument)
            before = footprint(server)
            plan = server.explain_query(query)
            assert footprint(server) == before
            result = server.query(query)
            assert plan.rungs == result.rungs
            assert (plan.tier, plan.version, plan.point) == (
                result.tier, result.version, result.point
            )
            recorded = server.events.named("serve.request")[-1]
            assert recorded.spans[0].attrs["tier"] == result.tier
            assert recorded.spans[0].attrs["rungs"] == rung_reasons(
                result.rungs
            )
            assert result.as_cuboid() == naive(
                table, writes.rows, result.point
            )


@given(
    n_shards=st.sampled_from([1, 2]),
    function=st.sampled_from(["COUNT", "AVG"]),
    schedule=operations,
)
@settings(max_examples=25, deadline=None)
def test_cluster_plans_are_the_replicas_own(n_shards, function, schedule):
    table = fresh_table(function)
    with ClusterCoordinator(
        table, n_shards, 2, oracle=ORACLE, cache_cells=64
    ) as cluster:
        writes = Writes(cluster)
        for op, argument in schedule:
            if op in ("insert", "delete"):
                writes.apply(op)
            elif op == "evict":
                for shard in cluster.shards:
                    shard[0].server.cache.invalidate(POINTS[argument])
            elif op != "warm":
                query = read_query(table.lattice, op, argument)
                plan = cluster.explain_query(query)
                assert [shard.shard for shard in plan.shards] == list(
                    range(n_shards)
                )
                for shard in plan.shards:
                    server = cluster.shards[shard.shard][shard.replica].server
                    local = server.explain_query(
                        Query(point=plan.point)
                    )
                    assert (shard.tier, shard.rungs) == (
                        local.tier, local.rungs
                    )
                result = cluster.query(query)
                assert plan.point == result.point
                expected = naive(table, writes.rows, result.point)
                got = result.as_cuboid()
                assert set(got) == set(expected)
                assert all(
                    abs(got[key] - expected[key]) <= 1e-9 for key in got
                )
