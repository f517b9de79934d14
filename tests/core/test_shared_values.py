"""What a cube cell shares instead of allocating.

Every cuboid is packed (:class:`repro.core.packed.PackedCuboid`) — what
every algorithm returns on either kernel, roll-up, the serving ladder's
cache and both its write patches, and the cluster's merge build — so a
cell has no float object of its own: its value lives in an
``array('d')``.  A finalized COUNT the aggregate hands out is the one
float of :data:`repro.core.aggregates.COUNT_VALUES` for its count.  A
NAIVE row memo shares its ``(axis, state)`` keys with every other row,
and its value tuples with every row of its table.  The memory guard at
the end bounds what a packed cube retains per cell, absolutely and
relative to the same cells as dicts, so it holds on every interpreter
tracemalloc sizes differently.
"""

import gc
import tracemalloc
from collections import Counter

import pytest

from repro.cluster import ClusterCoordinator
from repro.core.aggregates import COUNT_VALUES, CountAggregate, get_function
from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.incremental import split_rows
from repro.core.merge import merge_finalized
from repro.core.packed import PackedCuboid
from repro.core.properties import PropertyOracle
from repro.core.rollup import rollup_cuboid, structural_drop_only
from repro.serve import CubeServer
from repro.testing import messy_workload, small_workload
from tests.conftest import cuboid_of

ALGORITHMS = ("NAIVE", "COLUMNAR", "COUNTER", "BUC", "BUCOPT", "TD", "TDOPT")
OPTIMIZED = ("BUCOPT", "TDOPT")


def seeded_table(n_facts=120, messy=True, **overrides):
    """A seeded COUNT table; ``messy``: neither summarizability property
    holds, so a fact lands in several groups.  BUCOPT and TDOPT assume
    disjointness, so their runs read the clean table."""
    make = messy_workload if messy else small_workload
    return make(n_facts=n_facts, seed=23, **overrides).fact_table()


def counted(table, rows, point):
    """The count of every group at ``point``, from the rows alone."""
    return Counter(
        key for row in rows for key in table.key_combinations(row, point)
    )


def assert_packed(cuboid, counts):
    """Every value is ``float(count)``, and the values live in the
    cuboid's ``array('d')``: no float object per cell."""
    assert cuboid
    assert isinstance(cuboid, PackedCuboid)
    assert cuboid.cells.typecode == "d"
    assert len(cuboid.cells) == len(cuboid) == len(counts)
    for key, value in cuboid.items():
        assert value == float(counts[key]), key


class TestCountValues:
    def test_table_holds_each_count_as_its_float(self):
        assert all(value == float(n) for n, value in enumerate(COUNT_VALUES))
        assert all(type(value) is float for value in COUNT_VALUES)

    def test_finalize_shares_ints_and_integral_floats(self):
        finalize = CountAggregate().finalize
        assert finalize(7) is COUNT_VALUES[7]
        assert finalize(7.0) is COUNT_VALUES[7]
        assert finalize(0) is COUNT_VALUES[0]

    def test_counts_past_the_table_are_plain_floats(self):
        past = len(COUNT_VALUES)
        value = CountAggregate().finalize(past)
        assert value == float(past) and type(value) is float


class TestEveryCountPathShares:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_algorithms(self, algorithm):
        """Every algorithm packs its cells, NAIVE and the top-down
        family too."""
        table = seeded_table(messy=algorithm not in OPTIMIZED)
        cube = compute_cube(
            table,
            ExecutionOptions(
                algorithm=algorithm, oracle=PropertyOracle.from_data(table)
            ),
        )
        assert any(
            value > 1.0
            for cuboid in cube.cuboids.values()
            for value in cuboid.values()
        )
        for point, cuboid in cube.cuboids.items():
            assert isinstance(cuboid, PackedCuboid)
            if cuboid:
                assert_packed(cuboid, counted(table, table.rows, point))

    @pytest.mark.parametrize("algorithm", ["BUC", "BUCOPT", "TD", "TDOPT"])
    def test_dict_kernels(self, algorithm):
        table = seeded_table(60, messy=algorithm not in OPTIMIZED)
        cube = compute_cube(
            table,
            ExecutionOptions(
                algorithm=algorithm,
                encoding="dict",
                oracle=PropertyOracle.from_data(table),
            ),
        )
        for point, cuboid in cube.cuboids.items():
            assert isinstance(cuboid, PackedCuboid)
            if cuboid:
                assert_packed(cuboid, counted(table, table.rows, point))

    @pytest.mark.parametrize("engine", ["thread", "process"])
    def test_parallel_engines(self, engine):
        """A worker's cuboids reach the parent packed — from a process,
        unpickled as their three parts — and equal the serial run's."""
        table = seeded_table(80, messy=False)
        cube = compute_cube(
            table,
            ExecutionOptions(algorithm="TD", workers=2, engine=engine),
        )
        assert cube.metrics.engine == engine
        serial = compute_cube(table, ExecutionOptions(algorithm="TD"))
        assert cube.cuboids == serial.cuboids
        for point, cuboid in cube.cuboids.items():
            assert isinstance(cuboid, PackedCuboid)
            if cuboid:
                assert_packed(cuboid, counted(table, table.rows, point))

    def test_rollup_cuboid(self):
        table = seeded_table()
        lattice = table.lattice
        cube = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        targets = [
            point
            for point in lattice.points()
            if point != lattice.top
            and structural_drop_only(lattice, lattice.top, point)
        ]
        assert targets
        for target in targets:
            rolled = rollup_cuboid(
                lattice,
                cube.cuboids[lattice.top],
                lattice.top,
                target,
                get_function("COUNT"),
            )
            # Rolled from the top of a messy table, the counts are the
            # paper's wrong ones; each is still a whole count in the array.
            assert_packed(rolled, {key: int(n) for key, n in rolled.items()})

    def test_merge_finalized(self):
        table = seeded_table()
        point = table.lattice.top
        halves = [table.rows[0::2], table.rows[1::2]]
        shard_cuboids = [
            compute_cube(
                FactTable(table.lattice, rows, table.aggregate),
                ExecutionOptions(algorithm="NAIVE", points=(point,)),
            ).cuboids[point]
            for rows in halves
        ]
        merged = merge_finalized("COUNT", shard_cuboids)
        assert_packed(merged, counted(table, table.rows, point))

    def test_server_write_patches(self):
        table = seeded_table()
        oracle = PropertyOracle.from_data(table)
        initial, delta = split_rows(table, 0.7)
        live = FactTable(table.lattice, list(initial), table.aggregate)
        server = CubeServer(live, oracle)
        for point in table.lattice.points():
            cuboid_of(server, point)  # fill the cache
        cached = server.cache.points()
        assert cached

        server.insert(delta)
        assert server.stats().patched_points > 0
        for point in cached:
            cuboid = server.cache.peek(point)
            assert_packed(cuboid, counted(table, live.rows, point))

        server.delete(list(delta))
        for point in server.cache.points():
            cuboid = server.cache.peek(point)
            if cuboid:
                assert_packed(cuboid, counted(table, live.rows, point))

    def test_cluster_read(self):
        table = seeded_table()
        with ClusterCoordinator(
            table, 3, 2, oracle=PropertyOracle.from_data(table)
        ) as coordinator:
            for point in table.lattice.points():
                cuboid = cuboid_of(coordinator, point)
                if cuboid:
                    assert_packed(cuboid, counted(table, table.rows, point))


def retained_bytes(build):
    """Bytes still allocated after ``build()`` returns, and its result."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, built
    finally:
        tracemalloc.stop()


#: What a packed NAIVE cube of :meth:`TestMemoryGuard`'s table may
#: retain per cell: its 8-byte code and 8-byte value, plus each
#: cuboid's share of its object and array headers.  Measured at 26.3 B
#: on CPython 3.11 (the same cells as dicts: 127.7 B).
PACKED_BYTES_PER_CELL = 32


class TestMemoryGuard:
    def test_packed_cube_retains_few_bytes_per_cell(self):
        table = seeded_table(300, n_axes=4)
        options = ExecutionOptions(algorithm="NAIVE")
        compute_cube(table, options)  # the row memos and dictionaries

        packed_bytes, cube = retained_bytes(
            lambda: compute_cube(table, options)
        )
        dict_bytes, _ = retained_bytes(
            lambda: {
                point: dict(cuboid.items())
                for point, cuboid in cube.cuboids.items()
            }
        )
        cells = cube.total_cells()
        assert cells > 1000
        assert packed_bytes <= PACKED_BYTES_PER_CELL * cells, (
            packed_bytes / cells
        )
        assert packed_bytes <= 0.25 * dict_bytes, (packed_bytes, dict_bytes)

    def test_row_memos_share_keys_and_value_tuples(self):
        table = seeded_table()
        compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        first, second = (
            row.__dict__["_values_cache"] for row in table.rows[:2]
        )
        assert first.keys() == second.keys()
        keys_of_second = {key: key for key in second}
        for key in first:
            assert keys_of_second[key] is key
        for memo in (first, second):
            for values in memo.values():
                assert type(values) is tuple
                assert table.value_sets[values] is values
