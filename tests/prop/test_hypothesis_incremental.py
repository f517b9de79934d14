"""Property-based insert/delete schedules through the one serving ladder.

Every schedule runs through a warmed :class:`CubeServer` and a 3-shard
x 2-replica :class:`ClusterCoordinator`, for all five aggregates, with
non-integer measures.  After every write, every lattice point must
equal serial NAIVE over the facts present at that moment: exactly on
the server (cached cells continue the same left fold, or are evicted
and recomputed), and on the cluster exactly for COUNT/MIN/MAX and up to
float associativity for SUM/AVG (each shard folds its own slice).
Every answer the server served is kept, and at the end of each schedule
each must still equal NAIVE at the version it reported: a later write
replaces a cached cuboid, never changes one already handed out.

After every step, every served payload and every cached cuboid — the
server's and each replica server's — is a
:class:`~repro.core.packed.PackedCuboid` (every cuboid here can be
packed) that iterates in wire order, checked against the sort the API
door used to run on every request, kept below as the reference; each
cached cuboid equals NAIVE over its own server's rows.  Dedicated
schedules insert facts whose values are new to every axis dictionary
and then delete them, emptying cells.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterCoordinator
from repro.core.aggregates import AggregateSpec
from repro.core.axes import AxisSpec
from repro.core.bindings import AnnotatedValue, FactRow, FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.lattice import CubeLattice
from repro.core.packed import PackedCuboid
from repro.core.query import Query
from repro.patterns.relaxation import Relaxation
from repro.serve import CubeServer

VALUES = ["u", "v", "w"]
FUNCTIONS = ["COUNT", "SUM", "MIN", "MAX", "AVG"]


def _axes():
    return [
        AxisSpec.from_path("$a", "a", frozenset({Relaxation.LND})),
        AxisSpec.from_path("$b", "b", frozenset({Relaxation.LND})),
    ]


def _spec(function):
    if function == "COUNT":
        return AggregateSpec()
    return AggregateSpec(function=function, measure_path="@m")


def wire_sorted(cuboid):
    """The order ``QueryResult.to_dict`` sorted every payload into."""
    return sorted(
        cuboid.items(),
        key=lambda item: tuple((part is None, part) for part in item[0]),
    )


def assert_served_form(cuboid):
    """Packed, and stored in wire order."""
    assert isinstance(cuboid, PackedCuboid)
    assert list(cuboid.items()) == wire_sorted(cuboid)


@st.composite
def rows_strategy(
    draw, min_size=0, max_size=10, id_offset=0, values=VALUES, min_values=0
):
    """Fact rows with unique ids and non-integer positive measures
    (positive, so SUM/AVG's cluster tolerance never meets cancellation),
    binding ``min_values`` to two of ``values`` per axis."""
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    rows = []
    for number in range(count):
        axes_values = tuple(
            tuple(
                AnnotatedValue(value, 0b1)
                for value in draw(
                    st.lists(
                        st.sampled_from(values),
                        unique=True,
                        min_size=min_values,
                        max_size=2,
                    )
                )
            )
            for _ in range(2)
        )
        measure = draw(
            st.floats(
                min_value=0.01,
                max_value=100.0,
                allow_nan=False,
                allow_infinity=False,
            )
        )
        rows.append(FactRow((0, id_offset + number), measure, axes_values))
    return rows


class Replay:
    """One schedule run side by side on a warmed server and a cluster,
    with the present facts tracked independently as the oracle's input."""

    def __init__(self, rows, function):
        self.lattice = CubeLattice(_axes())
        self.spec = _spec(function)
        self.present = list(rows)
        self.server = CubeServer(
            FactTable(self.lattice, rows, aggregate=self.spec),
            cache_cells=100000,
        )
        self.server.warm()
        self.cluster = ClusterCoordinator(
            FactTable(self.lattice, rows, aggregate=self.spec), 3, 2
        )
        #: NAIVE's cuboids per server version, and every served
        #: ``(point, version, payload)``
        self.references = {}
        self.served = []

    def insert(self, rows):
        self.server.insert(rows)
        self.cluster.insert(rows)
        self.present.extend(rows)
        self.check()

    def delete(self, rows):
        self.server.delete(rows)
        self.cluster.delete(rows)
        gone = {row.fact_id for row in rows}
        self.present = [
            row for row in self.present if row.fact_id not in gone
        ]
        self.check()

    def check(self):
        assert self.server.table.rows == self.present
        reference = compute_cube(
            FactTable(self.lattice, self.present, aggregate=self.spec),
            ExecutionOptions(algorithm="NAIVE"),
        )
        self.references[self.server.version] = reference.cuboids
        for point in self.lattice.points():
            expected = reference.cuboids[point]
            query = Query(point=point)
            result = self.server.query(query)
            assert result.as_cuboid() == expected
            assert_served_form(result.payload)
            self.served.append((point, result.version[0], result.payload))
            got = self.cluster.query(query).as_cuboid()
            assert_served_form(got)
            if self.spec.function in ("SUM", "AVG"):
                assert set(got) == set(expected)
                for key, value in expected.items():
                    assert got[key] == pytest.approx(
                        value, rel=1e-9, abs=1e-12
                    )
            else:
                assert got == expected
        servers = [self.server] + [
            server
            for replicas in self.cluster.shards
            for replica in replicas
            for server in replica.servers
        ]
        for server in servers:
            self.check_cache(server)

    def check_cache(self, server):
        """Every cuboid ``server`` caches is packed, in wire order, and
        NAIVE over the server's own rows at its current version."""
        points = server.cache.points()
        if not points:
            return
        reference = compute_cube(
            FactTable(self.lattice, server.table.rows, server.aggregate),
            ExecutionOptions(algorithm="NAIVE", points=tuple(points)),
        )
        for point in points:
            cached = server.cache.peek(point)
            assert_served_form(cached)
            assert cached == reference.cuboids[point]

    def check_served(self):
        """Every answer kept still equals NAIVE at its own version."""
        assert self.served
        for point, version, payload in self.served:
            assert payload == self.references[version][point]

    def close(self):
        self.cluster.close()


@given(
    data=st.data(),
    rows=rows_strategy(min_size=1, max_size=12),
    function=st.sampled_from(FUNCTIONS),
)
@settings(max_examples=40, deadline=None)
def test_schedule_matches_naive(data, rows, function):
    """A random interleaving of insert and delete batches."""
    cut = data.draw(st.integers(min_value=0, max_value=len(rows)))
    replay = Replay(rows[:cut], function)
    absent = list(rows[cut:])
    try:
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            if absent and (
                not replay.present or data.draw(st.booleans())
            ):
                batch = data.draw(
                    st.lists(
                        st.sampled_from(absent),
                        min_size=1,
                        max_size=3,
                        unique_by=lambda row: row.fact_id,
                    )
                )
                absent = [row for row in absent if row not in batch]
                replay.insert(batch)
            elif replay.present:
                batch = data.draw(
                    st.lists(
                        st.sampled_from(replay.present),
                        min_size=1,
                        max_size=3,
                        unique_by=lambda row: row.fact_id,
                    )
                )
                replay.delete(batch)
                absent.extend(batch)
        replay.check_served()
    finally:
        replay.close()


@given(
    initial=rows_strategy(max_size=8),
    delta=rows_strategy(min_size=1, max_size=6, id_offset=1000),
    function=st.sampled_from(FUNCTIONS),
)
@settings(max_examples=40, deadline=None)
def test_insert_then_delete_round_trips(initial, delta, function):
    replay = Replay(initial, function)
    try:
        replay.insert(list(delta))
        replay.delete(list(delta))
        assert replay.present == list(initial)
        replay.check_served()
    finally:
        replay.close()


@given(
    rows=rows_strategy(min_size=1, max_size=8),
    function=st.sampled_from(FUNCTIONS),
)
@settings(max_examples=30, deadline=None)
def test_full_retraction_empties_every_cuboid(rows, function):
    replay = Replay(rows, function)
    try:
        replay.delete(list(rows))
        for point in replay.lattice.points():
            query = Query(point=point)
            assert replay.server.query(query).as_cuboid() == {}
            assert replay.cluster.query(query).as_cuboid() == {}
        assert replay.server.table.rows == []
        replay.check_served()
    finally:
        replay.close()


@given(
    rows=rows_strategy(min_size=2, max_size=8),
    function=st.sampled_from(FUNCTIONS),
)
@settings(max_examples=30, deadline=None)
def test_partial_deletion_matches_recompute(rows, function):
    """Deleting an arbitrary prefix leaves exactly the suffix's cube —
    MIN and MAX included: their affected cuboids are evicted and
    recomputed."""
    cut = len(rows) // 2
    replay = Replay(rows, function)
    try:
        replay.delete(list(rows[:cut]))
        assert replay.present == list(rows[cut:])
        replay.check_served()
    finally:
        replay.close()


@given(
    initial=rows_strategy(min_size=1, max_size=6, values=("u", "v")),
    delta=rows_strategy(
        min_size=1, max_size=4, id_offset=1000, values=("w", "x"), min_values=1
    ),
    function=st.sampled_from(FUNCTIONS),
)
@settings(max_examples=30, deadline=None)
def test_new_axis_values_then_emptied_cells(initial, delta, function):
    """An insert whose every fact binds values no cached dictionary
    holds grows the dictionaries (the codes are re-ranked, never
    decoded); deleting those facts again empties every cell they made.
    The replay checks order, packing and NAIVE after each step."""
    replay = Replay(initial, function)
    try:
        fresh = {"w", "x"}
        replay.insert(list(delta))
        top = replay.lattice.top  # both axes kept
        grown = replay.server.query(Query(point=top)).as_cuboid()
        assert any(fresh & set(key) for key in grown)
        replay.delete(list(delta))
        emptied = replay.server.query(Query(point=top)).as_cuboid()
        assert not any(fresh & set(key) for key in emptied)
        replay.check_served()
    finally:
        replay.close()


@given(
    rows=rows_strategy(min_size=2, max_size=8),
    function=st.sampled_from(["MIN", "MAX"]),
)
@settings(max_examples=30, deadline=None)
def test_non_invertible_deletion_evicts_and_recomputes(rows, function):
    """MIN and MAX cannot take a value back out of a cell, so deleting
    the fact that holds the extremum patches nothing: every cuboid it
    touches is evicted, and the next query recomputes it (the replay's
    check holds the answers to NAIVE)."""
    pick = min if function == "MIN" else max
    extreme = pick(rows, key=lambda row: row.measure)
    replay = Replay(rows, function)
    try:
        replay.delete([extreme])
        record = replay.server.events.named("serve.write")[-1]
        attrs = record.spans[0].attrs
        assert attrs["op"] == "delete"
        assert attrs["patched_points"] == 0
        assert attrs["evicted_points"] > 0
        replay.check_served()
    finally:
        replay.close()
