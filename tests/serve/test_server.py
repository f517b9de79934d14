"""Integration tests for :class:`repro.serve.CubeServer`.

The contract under test throughout: every answer the server produces —
whatever tier resolved it, whatever writes happened before it — is
bit-identical to a serial NAIVE recomputation over the table rows at
the version reported with the answer.
"""

import sys
import threading
from collections import Counter
from dataclasses import replace

import pytest

import repro.core.bindings as bindings_module
import repro.serve.server as server_module
from repro import obs
from repro.core.aggregates import AggregateSpec
from repro.core.bindings import FactRow, FactTable
from repro.core.columnar import ColumnarFactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.incremental import split_rows
from repro.core.materialize import cuboid_sizes
from repro.core.query import Query
from repro.core.rollup import derivable
from repro.errors import CubeError
from repro.serve import CubeServer, TIERS
from repro.serve.replay import replay, sample_points
from repro.testing import (
    messy_workload,
    small_workload,
    treebank_workload,
    vary_measures,
)
from tests.conftest import (
    advised_server,
    advised_tiers,
    cuboid_of,
    planned_tiers,
)


def fresh(**overrides):
    workload = small_workload(**overrides)
    table = workload.fact_table()
    return table, workload.oracle(table)


def reference_cuboid(table, rows, point):
    """Serial NAIVE recompute of one cuboid over the given rows."""
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


def assert_resident_exactly(server, table):
    """Every cached cuboid is bit-identical to serial NAIVE over the
    table's current rows."""
    for point in server.cache.points():
        assert server.cache.peek(point) == reference_cuboid(
            table, table.rows, point
        ), table.lattice.describe(point)


def span_names(session):
    return Counter(record.name for record in session.records())


def assert_serves_exactly(server, table):
    for point in table.lattice.points():
        expected = reference_cuboid(table, table.rows, point)
        assert cuboid_of(server, point) == expected, table.lattice.describe(
            point
        )


class TestBitIdentity:
    def test_cold_server(self):
        table, oracle = fresh()
        assert_serves_exactly(CubeServer(table, oracle), table)

    def test_all_tiers_mixed(self):
        table, oracle = fresh()
        server, _ = advised_server(table, oracle, 40, cache_cells=64)
        for _ in range(3):  # repeats route through cache/rollup
            assert_serves_exactly(server, table)
        tiers = server.stats().tiers
        assert all(tiers[tier] for tier in TIERS), tiers

    def test_zero_cache(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle, cache_cells=0)
        assert_serves_exactly(server, table)
        assert server.stats().tiers["recompute"] == server.stats().requests

    def test_messy_workload_no_unsound_rollups(self):
        workload = messy_workload()
        table = workload.fact_table()
        server = CubeServer(table, workload.oracle(table))
        for _ in range(2):
            assert_serves_exactly(server, table)
        assert server.stats().tiers["rollup"] == 0

    @pytest.mark.parametrize("function", ["SUM", "MIN", "MAX", "AVG"])
    def test_other_aggregates(self, function):
        table, oracle = fresh(n_facts=40)
        table = with_aggregate(table, function)
        server = CubeServer(table, oracle)
        for _ in range(2):
            assert_serves_exactly(server, table)

    def test_after_warm(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle, cache_cells=4096)
        warmed = server.warm()
        assert warmed
        assert_serves_exactly(server, table)


class TestLadder:
    def test_second_request_hits_cache(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        point = table.lattice.top
        cuboid_of(server, point)
        cuboid_of(server, point)
        tiers = server.stats().tiers
        assert tiers["recompute"] == 1 and tiers["cache"] == 1

    def test_advisor_choice_answers_from_cache(self):
        """The Sec. 3.6 advisor's cuboids, warmed, are cache hits, and
        the ladder plans every other point as the selection's serving
        map says: roll up where a chosen cuboid soundly derives it."""
        table, oracle = fresh()
        server, selection = advised_server(table, oracle, 600)
        assert selection.chosen
        assert planned_tiers(server) == advised_tiers(selection)
        for point in selection.chosen:
            assert cuboid_of(server, point) == reference_cuboid(
                table, table.rows, point
            )
        tiers = server.stats().tiers
        assert tiers["cache"] == len(selection.chosen)
        assert sum(tiers.values()) == len(selection.chosen)

    def test_rollup_tier_derives_from_cached_finer(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        finest = table.lattice.top
        cuboid_of(server, finest)
        coarser = next(
            point
            for point in table.lattice.topo_finer_first()
            if point != finest
            and derivable(table.lattice, finest, point, oracle)[0]
        )
        cuboid = cuboid_of(server, coarser)
        assert server.stats().tiers["rollup"] == 1
        assert cuboid == reference_cuboid(table, table.rows, coarser)

    def test_pessimistic_oracle_never_rolls_up(self):
        table, _ = fresh()
        server = CubeServer(table, oracle=None)
        for point in table.lattice.points():
            cuboid_of(server, point)
        assert server.stats().tiers["rollup"] == 0

    @pytest.mark.parametrize("function", ["MIN", "MAX"])
    def test_min_max_roll_up(self, function):
        """A MIN/MAX cell is its own partial state, so a sound source
        derives a coarser cuboid exactly, as for COUNT and SUM."""
        table, oracle = fresh()
        table = vary_measures(with_aggregate(table, function))
        server = CubeServer(table, oracle)
        finest = table.lattice.top
        cuboid_of(server, finest)
        coarser = next(
            point
            for point in table.lattice.topo_finer_first()
            if point != finest
            and derivable(table.lattice, finest, point, oracle)[0]
        )
        cuboid = cuboid_of(server, coarser)
        assert server.stats().tiers["rollup"] == 1
        assert cuboid == reference_cuboid(table, table.rows, coarser)

    def test_tier_names_are_stable(self):
        assert TIERS == ("cache", "rollup", "recompute")


class TestQuerySurface:
    def test_resolve_by_description(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        description = table.lattice.describe(table.lattice.top)
        assert cuboid_of(server, description) == cuboid_of(
            server, table.lattice.top
        )

    def test_cell(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        point = table.lattice.top
        cuboid = cuboid_of(server, point)
        key = next(iter(cuboid))

        def cell(key):
            return server.query(
                Query(point=point, kind="cell", key=key)
            ).as_cell()

        assert cell(key) == cuboid[key]
        assert cell(("no", "such", "key")) is None

    def test_slice_restricts_one_axis(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        point = table.lattice.top
        cuboid = cuboid_of(server, point)
        value = next(iter(cuboid))[0]
        sliced = server.query(
            Query(
                point=point,
                kind="slice",
                axis=table.lattice.axes[0].name,
                value=value,
            )
        ).as_cuboid()
        assert sliced == {
            key[1:]: cell
            for key, cell in cuboid.items()
            if key[0] == value
        }

    def test_dice_restricts_many_axes(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        point = table.lattice.top
        cuboid = cuboid_of(server, point)
        key = next(iter(cuboid))
        first, second = table.lattice.axes[:2]
        diced = server.query(
            Query(
                point=point,
                kind="dice",
                filters=((first.name, [key[0]]), (second.name, [key[1]])),
            )
        ).as_cuboid()
        assert key in diced
        assert all(
            k[0] == key[0] and k[1] == key[1] for k in diced
        )

    def test_unknown_point_rejected(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        with pytest.raises(CubeError):
            cuboid_of(server, (99, 99, 99))

    def test_returned_cuboids_are_read_only(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        point = table.lattice.top
        first = cuboid_of(server, point)
        before = dict(first)
        with pytest.raises(TypeError):
            first[("tampered",)] = 1.0
        assert cuboid_of(server, point) == before


class TestWarm:
    def test_warm_fills_cache_within_budget(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle, cache_cells=4096)
        warmed = server.warm()
        assert warmed
        assert server.cache.used_cells <= 4096
        for point in warmed:
            assert point in server.cache

    def test_warmed_requests_avoid_recompute(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle, cache_cells=100000)
        server.warm()
        assert_serves_exactly(server, table)
        stats = server.stats()
        assert stats.tiers["recompute"] == 0
        assert stats.hit_rate == 1.0
        assert stats.modeled_speedup > 1.0

    def test_warm_respects_explicit_budget(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle, cache_cells=100000)
        sizes = server.sizes()
        smallest = min(sizes.values())
        warmed = server.warm(budget_cells=smallest)
        assert sum(sizes[point] for point in warmed) <= smallest


    @pytest.mark.parametrize(
        "function", ["COUNT", "SUM", "MIN", "MAX", "AVG"]
    )
    def test_warmed_cuboids_equal_naive_and_stay_equal(self, function):
        """What the sweep admits is what NAIVE would have computed, so
        the in-place write patches continue the same left fold."""
        table, oracle = fresh(
            n_facts=60, coverage=False, disjoint=False, seed=9
        )
        table = vary_measures(with_aggregate(table, function))
        initial, delta = split_rows(table, 0.8)
        live = FactTable(table.lattice, list(initial), table.aggregate)
        server = CubeServer(live, oracle, cache_cells=100000)
        assert set(server.warm()) == set(live.lattice.points())
        assert_resident_exactly(server, live)
        server.insert(delta)
        assert_resident_exactly(server, live)
        server.delete(delta)
        assert_resident_exactly(server, live)
        assert_serves_exactly(server, live)

    def test_job_size_picks_the_kernel(self):
        """The server takes no engine options: a many-point job (the
        warm-up) runs only the COLUMNAR sweep, a cold one-point read
        only NAIVE, and neither partitions the lattice."""
        table, oracle = fresh()
        server = CubeServer(table, oracle, cache_cells=100000)
        with obs.trace() as session:
            warmed = server.warm()
        names = span_names(session)
        assert names["algo.COLUMNAR"] == 1
        assert {name for name in names if name.startswith("algo.")} == {
            "algo.COLUMNAR"
        }
        assert "engine.partition" not in names
        assert set(warmed) == set(table.lattice.points())
        assert_resident_exactly(server, table)

        cold = CubeServer(table, oracle, cache_cells=0)
        point = table.lattice.top
        with obs.trace() as session:
            answer = cold.query(Query(point=point)).as_cuboid()
        names = span_names(session)
        assert {name for name in names if name.startswith("algo.")} == {
            "algo.NAIVE"
        }
        assert names["algo.NAIVE"] == 1
        assert "engine.partition" not in names
        assert answer == reference_cuboid(table, table.rows, point)

    def test_set_up_stays_columnar(self, monkeypatch):
        """Counts, not wall: the bulk set-up jobs are columnar sweeps
        that never touch a fact row; only the one-point recompute rung
        runs the row kernel."""
        table, oracle = fresh(n_axes=6, n_facts=60)
        points = list(table.lattice.points())
        assert len(points) == 64
        cells = sum(
            len(cuboid)
            for cuboid in compute_cube(
                table, ExecutionOptions(algorithm="NAIVE")
            ).cuboids.values()
        )
        row_scans = []
        original = FactTable.key_combinations

        def spy(self, row, point):
            row_scans.append(point)
            return original(self, row, point)

        monkeypatch.setattr(FactTable, "key_combinations", spy)
        server = CubeServer(table, oracle, cache_cells=2 * cells)
        with obs.trace() as session:
            sizes = server.sizes()
        assert span_names(session)["columnar.sweep"] == 1
        assert "algo.NAIVE" not in span_names(session)
        with obs.trace() as session:
            warmed = server.warm()
        assert span_names(session)["columnar.sweep"] == 1
        assert "algo.NAIVE" not in span_names(session)
        assert set(warmed) == set(points)
        assert sum(sizes.values()) == cells
        assert row_scans == []

        with obs.trace() as session:
            server._recompute(server._snapshot_table()[1], points[0])
        assert span_names(session)["algo.NAIVE"] == 1
        assert "columnar.sweep" not in span_names(session)
        assert len(row_scans) == len(table.rows)


class TestWrites:
    @pytest.mark.parametrize(
        "function", ["COUNT", "SUM", "MIN", "MAX", "AVG"]
    )
    def test_insert_stays_exact(self, function):
        table, oracle = fresh(n_facts=60)
        table = with_aggregate(table, function)
        initial, delta = split_rows(table, 0.7)
        live = FactTable(table.lattice, list(initial), table.aggregate)
        server = CubeServer(live, oracle)
        assert_serves_exactly(server, live)  # populate the cache
        server.insert(delta)
        assert_serves_exactly(server, live)

    @pytest.mark.parametrize(
        "function", ["COUNT", "SUM", "AVG", "MIN", "MAX"]
    )
    def test_delete_stays_exact(self, function):
        table, oracle = fresh(n_facts=60)
        table = with_aggregate(table, function)
        keep, churn = split_rows(table, 0.7)
        live = FactTable(table.lattice, list(table.rows), table.aggregate)
        server = CubeServer(live, oracle)
        assert_serves_exactly(server, live)
        server.delete(list(churn))
        assert_serves_exactly(server, live)

    def test_count_insert_patches_instead_of_evicting(self):
        table, oracle = fresh(n_facts=60)
        initial, delta = split_rows(table, 0.7)
        live = FactTable(table.lattice, list(initial), table.aggregate)
        server = CubeServer(live, oracle)
        assert_serves_exactly(server, live)
        cached_before = len(server.cache)
        server.insert(delta)
        stats = server.stats()
        assert stats.patched_points > 0
        assert stats.evicted_points == 0
        assert len(server.cache) == cached_before

    def test_sum_delete_evicts_affected(self):
        table, oracle = fresh(n_facts=60)
        table = with_aggregate(table, "SUM")
        live = FactTable(table.lattice, list(table.rows), table.aggregate)
        server = CubeServer(live, oracle)
        assert_serves_exactly(server, live)
        server.delete(list(table.rows[:5]))
        stats = server.stats()
        assert stats.evicted_points > 0
        assert stats.patched_points == 0

    def test_writes_bump_version(self):
        table, oracle = fresh(n_facts=40)
        initial, delta = split_rows(table, 0.5)
        live = FactTable(table.lattice, list(initial), table.aggregate)
        server = CubeServer(live, oracle)
        assert server.version == 0
        assert server.insert(delta[:1]) == 1
        assert server.delete(delta[:1]) == 2
        assert server.version == 2

    @pytest.mark.parametrize(
        "function, delete_patches", [("COUNT", True), ("MIN", False)]
    )
    def test_warmed_selection_follows_writes(self, function, delete_patches):
        """The advisor's warmed cuboids stay exact across an insert and
        a delete: an insert patches them (MIN is state-exact), a delete
        patches COUNT's and evicts every other aggregate's."""
        table, oracle = fresh(n_facts=60)
        table = vary_measures(with_aggregate(table, function))
        initial, delta = split_rows(table, 0.7)
        live = FactTable(table.lattice, list(initial), table.aggregate)
        # Room past the selection's space: the patched cuboids grow.
        server, selection = advised_server(
            live, oracle, 600, cache_cells=4096
        )
        chosen = set(selection.chosen)
        assert chosen and set(server.cache.points()) == chosen
        server.insert(delta)
        stats = server.stats()
        assert stats.patched_points > 0 and stats.evicted_points == 0
        assert set(server.cache.points()) == chosen
        assert_resident_exactly(server, live)
        assert_serves_exactly(server, live)
        before = server.stats()
        resident = set(server.cache.points())
        server.delete(list(delta[:4]))
        after = server.stats()
        if delete_patches:
            assert after.patched_points > before.patched_points
            assert after.evicted_points == before.evicted_points
            assert set(server.cache.points()) == resident
        else:
            assert after.patched_points == before.patched_points
            assert after.evicted_points > before.evicted_points
            assert resident - set(server.cache.points())
        assert_resident_exactly(server, live)
        assert_serves_exactly(server, live)

    def test_a_patch_that_overflows_the_cache_counts_its_evictions(self):
        """An insert that grows resident cuboids past the budget evicts;
        the write's record and the stats count those evictions, and a
        point counts as patched only if it is still resident."""
        table, oracle = fresh(n_facts=60)
        initial, delta = split_rows(table, 0.7)
        live = FactTable(table.lattice, list(initial), table.aggregate)
        server, selection = advised_server(live, oracle, 600)
        assert (len(selection.chosen), server.cache.used_cells) == (8, 86)
        server.insert(delta)
        (write,) = server.events.named("serve.write")
        attrs = write.spans[0].attrs
        evicted = [e for e in attrs["cache_audit"] if e.kind == "evicted"]
        resident = set(server.cache.points())
        assert evicted and len(resident) < len(selection.chosen)
        assert attrs["evicted_points"] == len(evicted)
        assert attrs["patched_points"] == len(resident) == 7
        stats = server.stats()
        assert (stats.patched_points, stats.evicted_points) == (
            len(resident), len(evicted)
        )
        assert_resident_exactly(server, live)

    def test_a_write_replaces_what_readers_hold(self):
        """A published cuboid is never written again: the resident
        object and a served answer held across an insert and a COUNT
        delete keep their values, the cache swaps in a successor exact
        at the new version, and a cache hit's payload is the resident
        (packed, read-only) object itself, not a copy."""
        table, oracle = fresh(n_facts=60)
        initial, delta = split_rows(table, 0.7)
        live = FactTable(table.lattice, list(initial), table.aggregate)
        server = CubeServer(live, oracle, cache_cells=100000)
        point = table.lattice.top
        assert server.warm([point]) == [point]
        resident = server.cache.peek(point)
        result = server.query(Query(point=point))
        assert result.tier == "cache"
        assert result.payload is resident
        held = [(resident, dict(resident)), (result.payload, dict(resident))]
        for op, rows in (("insert", delta), ("delete", delta[:3])):
            getattr(server, op)(list(rows))
            assert all(dict(obj) == snapshot for obj, snapshot in held)
            successor = server.cache.peek(point)
            assert successor is not resident
            assert successor == reference_cuboid(live, live.rows, point)
            result = server.query(Query(point=point))
            assert result.tier == "cache"
            assert result.version == (server.version,)
            assert result.payload is successor
            held += [(successor, dict(successor))]
            resident = successor
        assert server.stats().patched_points == 2

    def test_delete_unknown_row_rejected(self):
        table, oracle = fresh(n_facts=40)
        initial, delta = split_rows(table, 0.5)
        live = FactTable(table.lattice, list(initial), table.aggregate)
        server = CubeServer(live, oracle)
        with pytest.raises(CubeError):
            server.delete(delta[:1])  # never inserted

    def test_insert_of_present_fact_id_rejected(self):
        """An insert naming a fact id the table holds (or naming one
        twice) changes nothing: otherwise the fact could never be
        deleted again."""
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        apex = cuboid_of(server, table.lattice.bottom)
        fresh_row = replace(table.rows[0], fact_id=(99, 99))
        for batch in ([table.rows[0]], [fresh_row, fresh_row]):
            present = list(table.rows)
            with pytest.raises(CubeError):
                server.insert(batch)
            assert table.rows == present
            assert server.version == 0
            assert cuboid_of(server, table.lattice.bottom) == apex
        server.delete([table.rows[0]])
        assert_serves_exactly(server, table)

    def test_routed_through_incremental(self, monkeypatch):
        """Writes go through ``repro.core.incremental``'s row helpers,
        one call per batch."""
        table, oracle = fresh(n_facts=60)
        initial, delta = split_rows(table, 0.7)
        live = FactTable(table.lattice, list(initial), table.aggregate)
        server = CubeServer(live, oracle)
        calls = []
        for name in ("ingest_rows", "retract_rows"):
            original = getattr(server_module, name)
            monkeypatch.setattr(
                server_module,
                name,
                lambda t, rows, name=name, original=original: (
                    calls.append((name, len(rows))), original(t, rows)
                ),
            )
        server.insert(delta)
        assert_serves_exactly(server, live)
        server.delete(delta)
        assert_serves_exactly(server, live)
        assert calls == [
            ("ingest_rows", len(delta)),
            ("retract_rows", len(delta)),
        ]


class TestConcurrency:
    def test_stampede_recomputes_once(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        point = table.lattice.top
        release = threading.Event()
        original = server._recompute

        def gated(rows, target, publish=None):
            assert release.wait(timeout=5.0)
            return original(rows, target, publish)

        server._recompute = gated
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cuboid_of(server, point))
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for _ in range(2000):
            if server._flight.shared_total == 3:
                break
            threading.Event().wait(0.005)
        release.set()
        for thread in threads:
            thread.join(timeout=10.0)
        expected = reference_cuboid(table, table.rows, point)
        assert results == [expected] * 4
        assert server.stats().singleflight_led == 1
        assert server.stats().singleflight_shared == 3
        assert server.stats().tiers["recompute"] == 4

    def test_overtaken_recompute_not_admitted(self):
        table, oracle = fresh(n_facts=60)
        initial, delta = split_rows(table, 0.8)
        live = FactTable(table.lattice, list(initial), table.aggregate)
        server = CubeServer(live, oracle)
        point = live.lattice.top
        release = threading.Event()
        entered = threading.Event()
        original = server._recompute

        def gated(rows, target, publish=None):
            entered.set()
            assert release.wait(timeout=5.0)
            return original(rows, target, publish)

        server._recompute = gated
        outcome = {}

        def read():
            result = server.query(Query(point=point))
            outcome["cuboid"] = result.as_cuboid()
            outcome["version"] = result.version[0]

        reader = threading.Thread(target=read)
        reader.start()
        assert entered.wait(timeout=5.0)
        server.insert(delta)  # overtakes the in-flight recompute
        release.set()
        reader.join(timeout=10.0)

        # Correct for the snapshot it started from...
        assert outcome["version"] == 0
        assert outcome["cuboid"] == reference_cuboid(
            live, initial, point
        )
        # ...but never admitted: the next read recomputes fresh.
        server._recompute = original
        assert cuboid_of(server, point) == reference_cuboid(
            live, live.rows, point
        )


    def test_census_does_not_block_writes(self, monkeypatch):
        table, oracle = fresh(n_facts=60)
        initial, delta = split_rows(table, 0.8)
        live = FactTable(table.lattice, list(initial), table.aggregate)
        server = CubeServer(live, oracle)
        before = cuboid_sizes(live, live.lattice)
        entered = threading.Event()
        release = threading.Event()

        def slow_census(snapshot, lattice, points=None):
            entered.set()
            assert release.wait(timeout=5.0)
            return cuboid_sizes(snapshot, lattice, points)

        monkeypatch.setattr(server_module, "cuboid_sizes", slow_census)
        outcome = {}
        census = threading.Thread(
            target=lambda: outcome.update(sizes=server.sizes())
        )
        census.start()
        assert entered.wait(timeout=5.0)
        writer = threading.Thread(
            target=lambda: outcome.update(version=server.insert(delta))
        )
        writer.start()
        writer.join(timeout=5.0)
        # The write finished while the census was still counting.
        assert not writer.is_alive() and outcome["version"] == 1
        assert census.is_alive()
        release.set()
        census.join(timeout=10.0)
        assert not census.is_alive()

        # The overtaken census answered for its own snapshot and was
        # not cached: the next call counts the table the write left.
        assert outcome["sizes"] == before
        monkeypatch.undo()
        after = cuboid_sizes(live, live.lattice)
        assert after != before
        assert server.sizes() == after


class TestSnapshotPerVersion:
    """One table copy — so one encode, one set of state views — per
    version, whichever jobs read it."""

    @pytest.fixture()
    def encodes(self, monkeypatch):
        """Counts of ``from_table`` calls and of state-view builds."""
        counts = Counter()
        from_table = ColumnarFactTable.from_table.__func__
        build_view = ColumnarFactTable._build_view

        def counting_from_table(cls, table):
            counts["encode"] += 1
            return from_table(cls, table)

        def counting_build_view(self, axis_position, state_index):
            counts[(id(self), axis_position, state_index)] += 1
            return build_view(self, axis_position, state_index)

        monkeypatch.setattr(
            ColumnarFactTable, "from_table", classmethod(counting_from_table)
        )
        monkeypatch.setattr(
            ColumnarFactTable, "_build_view", counting_build_view
        )
        return counts

    def test_sizes_and_warm_encode_once(self, encodes):
        table, oracle = fresh(n_facts=60)
        server = CubeServer(table, oracle, cache_cells=100000)
        server.sizes()
        assert set(server.warm()) == set(table.lattice.points())
        assert encodes.pop("encode") == 1
        assert encodes and set(encodes.values()) == {1}

    @pytest.mark.parametrize("op", ["insert", "delete"])
    def test_a_write_between_jobs_encodes_again(self, encodes, op):
        table, oracle = fresh(n_facts=60)
        initial, delta = split_rows(table, 0.8)
        rows = initial if op == "insert" else table.rows
        live = FactTable(table.lattice, list(rows), table.aggregate)
        server = CubeServer(live, oracle, cache_cells=100000)
        before = server.sizes()
        stale = server._snapshot_table()[1]
        getattr(server, op)(delta)
        assert set(server.warm()) == set(live.lattice.points())
        assert encodes["encode"] == 2
        assert server._snapshot_table()[1] is not stale
        # What was warmed and counted is the table the write left.
        assert_resident_exactly(server, live)
        assert server.sizes() == cuboid_sizes(live, live.lattice) != before

    def test_threads_at_one_version_read_one_snapshot(self):
        table, oracle = fresh(n_facts=60)
        server = CubeServer(table, oracle)
        expected = cuboid_sizes(table, table.lattice)
        seen, failures = [], []
        start = threading.Barrier(4)

        def job():
            try:
                start.wait(timeout=5.0)
                seen.append(server._snapshot_table())
                assert server.sizes() == expected
            except Exception as error:  # surfaced by the assert below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=job) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == [] and len(seen) == 4
        assert all(version == 0 for version, _ in seen)
        assert len({id(snapshot) for _, snapshot in seen}) == 1


class TestTableDictionaries:
    """A recompute packs with the table's dictionaries: computed once,
    widened by inserts, kept by deletes."""

    def test_an_insert_of_seen_parts_keeps_the_dictionaries(self):
        table, oracle = fresh(n_facts=80)
        initial, _ = split_rows(table, 0.7)
        live = FactTable(table.lattice, list(initial), table.aggregate)
        server = CubeServer(live, oracle, cache_cells=100000)
        point = table.lattice.top
        kept = table.lattice.kept_axes(point)
        assert server.query(Query(point=point)).tier == "recompute"
        resident = server.cache.peek(point)
        assert resident.axes == tuple(live.dictionaries()[axis] for axis in kept)
        # New facts whose parts the table has seen, in new combinations:
        # each row's first axis with another row's others.
        mixed = [
            FactRow(
                fact_id=(99, number),
                measure=first.measure,
                axes=(first.axes[0],) + second.axes[1:],
            )
            for number, (first, second) in enumerate(
                zip(initial[:20], initial[7:27])
            )
        ]
        keys = {key for row in mixed for key in live.key_combinations(row, point)}
        assert keys - set(resident)  # the patch adds cells...
        server.insert(mixed)
        patched = server.cache.peek(point)
        assert patched is not resident
        # ... and re-ranks nothing: the dictionaries are the table's own.
        assert patched.axes is resident.axes
        assert all(
            axis is live.dictionaries()[position]
            for axis, position in zip(patched.axes, kept)
        )
        assert patched == reference_cuboid(table, live.rows, point)

    def test_reads_collect_the_dictionaries_once(self, monkeypatch):
        collected = []
        bound_values = bindings_module.bound_values

        def counting(rows, axis_count):
            collected.append(len(rows))
            return bound_values(rows, axis_count)

        monkeypatch.setattr(bindings_module, "bound_values", counting)
        table, oracle = fresh(n_facts=80)
        initial, delta = split_rows(table, 0.7)
        live = FactTable(table.lattice, list(initial), table.aggregate)
        server = CubeServer(live, oracle, cache_cells=1)
        server.sizes()
        assert collected == []  # the columnar census needs none
        points = list(table.lattice.points())
        for point in points[:5]:
            assert server.query(Query(point=point)).tier == "recompute"
        assert collected == [len(initial)]
        server.insert(delta)  # widened by the batch alone
        server.delete(delta[:3])  # kept as they are
        for point in points[:5]:
            assert server.query(Query(point=point)).tier == "recompute"
        assert collected == [len(initial), len(delta)]
        assert_serves_exactly(server, live)


    def test_a_one_point_warm_up_shares_the_collection(self, monkeypatch):
        """A one-point warm-up runs NAIVE on the version's snapshot with
        the live table's dictionaries, so the recompute rung after it
        collects nothing again."""
        collected = []
        bound_values = bindings_module.bound_values

        def counting(rows, axis_count):
            collected.append(len(rows))
            return bound_values(rows, axis_count)

        monkeypatch.setattr(bindings_module, "bound_values", counting)
        table = small_workload(n_facts=80).fact_table()
        server = CubeServer(table, None)
        top = table.lattice.top
        assert server.warm([top]) == [top]
        other = next(p for p in table.lattice.points() if p != top)
        assert server.query(Query(point=other)).tier == "recompute"
        assert collected == [len(table.rows)]
        assert_serves_exactly(server, table)


class TestStats:
    def test_summary_mentions_tiers_and_costs(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        point = table.lattice.top
        cuboid_of(server, point)
        cuboid_of(server, point)
        text = server.stats().summary()
        assert "2 requests" in text
        assert "cache=1" in text and "recompute=1" in text
        assert "hit rate 50%" in text

    def test_modeled_cost_below_cold_on_hits(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        point = table.lattice.top
        for _ in range(5):
            cuboid_of(server, point)
        stats = server.stats()
        assert stats.modeled_cost_seconds < stats.cold_cost_seconds
        assert stats.modeled_speedup > 1.0

    def test_empty_server_stats(self):
        table, oracle = fresh()
        stats = CubeServer(table, oracle).stats()
        assert stats.requests == 0
        assert stats.hit_rate == 0.0
        assert stats.version == 0


class TestCacheBudgetSweep:
    """One skewed 120-request replay under growing cache budgets."""

    def test_hit_rate_and_cost_follow_the_budget(self):
        prepared = treebank_workload("dense", coverage=True, disjoint=True)
        table = prepared.table
        points = sample_points(table.lattice, 120, 13)
        total_cells = sum(cuboid_sizes(table, table.lattice).values())
        sweep = []
        for fraction in (0.0, 0.05, 0.25, 1.0):
            server = CubeServer(
                table, prepared.oracle, cache_cells=int(total_cells * fraction)
            )
            replay(server, points)
            sweep.append(server.stats())
        rates = [stats.hit_rate for stats in sweep]
        assert rates == sorted(rates), rates
        assert rates[0] == 0.0  # zero budget answers nothing above recompute
        for stats in sweep[1:]:
            assert stats.modeled_cost_seconds < stats.cold_cost_seconds
        cold, full = sweep[0], sweep[-1]
        assert full.modeled_cost_seconds < cold.modeled_cost_seconds
        assert full.hit_rate > 0.5
        assert full.modeled_speedup > 1.0
        assert full.cache["evictions"] == 0
