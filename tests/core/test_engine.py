"""Unit tests for the parallel execution engine: partitioning, merging,
metrics, and result-identity with the direct serial path."""

import pytest

from repro.core.cube import (
    ExecutionOptions,
    compute_cube,
)
from repro.core.engine.merge import (
    PartitionOutcome,
    merge_costs,
    merge_cuboids,
    merged_algorithm_name,
)
from repro.core.engine.partition import (
    partition_cut_edges,
    partition_points,
    point_weight,
)
from repro.errors import CubeError
from repro.testing import treebank_workload


def options(**overrides):
    defaults = dict(algorithm="NAIVE", workers=2, engine="thread")
    defaults.update(overrides)
    return ExecutionOptions(**defaults)


class TestPartitioning:
    @pytest.mark.parametrize("n_partitions", [1, 2, 3, 5])
    def test_disjoint_cover(self, fig1_table, n_partitions):
        lattice = fig1_table.lattice
        points = list(lattice.points())
        partitions = partition_points(lattice, points, n_partitions)
        assert 1 <= len(partitions) <= n_partitions
        seen = [p for part in partitions for p in part.points]
        assert len(seen) == len(points)
        assert set(seen) == set(points)

    def test_deterministic(self, fig1_table):
        lattice = fig1_table.lattice
        points = list(lattice.points())
        first = partition_points(lattice, points, 4)
        second = partition_points(lattice, list(reversed(points)), 4)
        assert [p.points for p in first] == [p.points for p in second]

    def test_balanced_is_weight_balanced(self, fig1_table):
        lattice = fig1_table.lattice
        partitions = partition_points(lattice, list(lattice.points()), 4)
        weights = [part.weight for part in partitions]
        assert max(weights) <= min(weights) + max(
            point_weight(lattice, point) for point in lattice.points()
        )

    def test_respects_point_subset(self, fig1_table):
        lattice = fig1_table.lattice
        subset = [lattice.top, lattice.bottom]
        partitions = partition_points(lattice, subset, 8)
        covered = {p for part in partitions for p in part.points}
        assert covered == set(subset)

    def test_cut_edges_zero_for_single_partition(self, fig1_table):
        lattice = fig1_table.lattice
        points = list(lattice.points())
        assert partition_cut_edges(lattice, [points]) == 0
        split = partition_points(lattice, points, 4)
        assert partition_cut_edges(
            lattice, [list(part.points) for part in split]
        ) > 0

    def test_cut_edges_bounded_by_total_edges(self, fig1_table):
        lattice = fig1_table.lattice
        points = list(lattice.points())
        total_edges = sum(
            len(lattice.successors(point)) for point in points
        )
        parts = partition_points(lattice, points, 4)
        cut = partition_cut_edges(
            lattice, [list(part.points) for part in parts]
        )
        assert 0 < cut <= total_edges


def outcome(index, cuboids, sim=1.0, worker="w0", passes=1):
    return PartitionOutcome(
        index=index,
        points=len(cuboids),
        cuboids=cuboids,
        cost={"cpu_ops": 10.0, "page_reads": 2.0, "simulated_seconds": sim},
        passes=passes,
        algorithm="NAIVE",
        worker=worker,
        queue_wait_seconds=0.01,
        wall_seconds=0.5,
    )


class TestMerge:
    def test_union_of_disjoint_points(self):
        merged = merge_cuboids(
            [
                outcome(0, {(0, 0): {("a",): 1.0}}),
                outcome(1, {(0, 1): {("b",): 2.0}}),
            ]
        )
        assert set(merged) == {(0, 0), (0, 1)}

    def test_overlap_rejected(self):
        with pytest.raises(CubeError):
            merge_cuboids(
                [
                    outcome(0, {(0, 0): {}}),
                    outcome(1, {(0, 0): {}}),
                ]
            )

    def test_cost_sums_and_critical_path(self):
        cost = merge_costs(
            [
                outcome(0, {(0, 0): {}}, sim=1.0, worker="w0"),
                outcome(1, {(0, 1): {}}, sim=2.0, worker="w1"),
                outcome(2, {(0, 2): {}}, sim=0.5, worker="w0"),
            ],
            merge_seconds=0.1,
            total_wall_seconds=3.0,
        )
        assert cost.cpu_ops == 30
        assert cost.page_reads == 6
        assert cost.simulated_seconds == pytest.approx(3.5)
        # Busiest worker: w1 at 2.0 > w0 at 1.5.
        assert cost.parallel_simulated_seconds == pytest.approx(2.0)
        assert cost.speedup_estimate == pytest.approx(3.5 / 2.0)
        assert cost.merge_seconds == pytest.approx(0.1)
        assert cost.wall_seconds == pytest.approx(3.0)
        assert {w.worker for w in cost.workers} == {"w0", "w1"}

    def test_scheduled_critical_path_is_deterministic_lpt(self):
        from repro.core.engine.merge import scheduled_critical_path

        # LPT: 2.0 | 1.0 + 0.5 — independent of which thread ran what.
        assert scheduled_critical_path([1.0, 2.0, 0.5], 2) == pytest.approx(2.0)
        assert scheduled_critical_path([], 4) == 0.0
        assert scheduled_critical_path([1.0], 0) == 0.0
        # More workers than partitions: path = heaviest partition.
        assert scheduled_critical_path([0.5, 0.25], 8) == pytest.approx(0.5)

    def test_merge_costs_uses_schedule_when_pool_size_known(self):
        outcomes = [
            outcome(0, {(0, 0): {}}, sim=1.0, worker="w0"),
            outcome(1, {(0, 1): {}}, sim=2.0, worker="w0"),
            outcome(2, {(0, 2): {}}, sim=0.5, worker="w0"),
        ]
        # All three ran on one thread (a stalled pool), but the modeled
        # path must still be the 2-worker LPT schedule.
        cost = merge_costs(
            outcomes, merge_seconds=0.0, total_wall_seconds=1.0, max_workers=2
        )
        assert cost.parallel_simulated_seconds == pytest.approx(2.0)

    def test_algorithm_name_merge(self):
        same = [outcome(0, {(0, 0): {}}), outcome(1, {(0, 1): {}})]
        assert merged_algorithm_name(same) == "NAIVE"


class TestEngineExecution:
    @pytest.mark.parametrize("engine", ["thread", "process"])
    @pytest.mark.parametrize("algorithm", ["NAIVE", "COUNTER", "BUC", "TD"])
    def test_parallel_matches_serial(self, fig1_table, engine, algorithm):
        serial = compute_cube(
            fig1_table, ExecutionOptions(algorithm=algorithm)
        )
        parallel = compute_cube(
            fig1_table, options(algorithm=algorithm, engine=engine)
        )
        assert parallel.same_contents(serial), parallel.diff(serial)

    def test_serial_fallback_identical_costs(self, fig1_table):
        direct = compute_cube(fig1_table, ExecutionOptions(algorithm="BUC"))
        engine = compute_cube(
            fig1_table,
            ExecutionOptions(algorithm="BUC", workers=1, engine="serial"),
        )
        assert engine.same_contents(direct)
        assert engine.cost.cpu_ops == direct.cost.cpu_ops
        assert engine.cost.simulated_seconds == pytest.approx(
            direct.cost.simulated_seconds
        )
        assert engine.metrics.engine == "serial"

    def test_metrics_populated(self, fig1_table):
        result = compute_cube(fig1_table, options(workers=4))
        metrics = result.metrics
        assert metrics.engine == "thread"
        assert metrics.requested_workers == 4
        assert 1 <= metrics.workers_used <= 4
        assert sum(metrics.partition_sizes) == fig1_table.lattice.size()
        assert metrics.merge_seconds >= 0.0
        assert metrics.total_wall_seconds > 0.0
        assert metrics.queue_wait_seconds >= 0.0
        assert "engine=thread" in metrics.summary()
        assert metrics.as_dict()["n_partitions"] == len(metrics.partitions)

    def test_per_worker_breakdown_in_cost(self, fig1_table):
        result = compute_cube(fig1_table, options(workers=2))
        assert result.cost.workers
        assert sum(w.points for w in result.cost.workers) == (
            fig1_table.lattice.size()
        )
        total = sum(w.simulated_seconds for w in result.cost.workers)
        assert total == pytest.approx(result.cost.simulated_seconds)
        assert result.cost.parallel_simulated_seconds <= total + 1e-12

    def test_min_support_filter_applies_per_partition(self, fig1_table):
        serial = compute_cube(
            fig1_table, ExecutionOptions(algorithm="BUC", min_support=2)
        )
        parallel = compute_cube(
            fig1_table, options(algorithm="BUC", min_support=2)
        )
        assert parallel.same_contents(serial)

    def test_points_restriction_respected(self, fig1_table):
        lattice = fig1_table.lattice
        wanted = (lattice.top, lattice.bottom)
        result = compute_cube(fig1_table, options(points=wanted, workers=2))
        assert set(result.cuboids) == set(wanted)

    def test_stateful_algorithms_safe_under_thread_pool(self):
        """Regression: BUC/TD keep per-run state on ``self``; the engine
        must give each thread-pool task a fresh instance, not the
        registry singleton, or concurrent partitions clobber each other
        (observed as overlap errors / wrong cuboids on larger lattices).
        """
        from repro.datagen.workload import WorkloadConfig, build_workload

        workload = build_workload(
            WorkloadConfig(
                kind="treebank",
                n_facts=200,
                n_axes=4,
                density="dense",
                coverage=True,
                disjoint=True,
            )
        )
        table = workload.fact_table()
        oracle = workload.oracle(table)
        serial = compute_cube(
            table, ExecutionOptions(algorithm="NAIVE", oracle=oracle)
        )
        for algorithm in ("BUC", "TD", "AUTO"):
            for _ in range(3):
                parallel = compute_cube(
                    table,
                    ExecutionOptions(
                        algorithm=algorithm,
                        oracle=oracle,
                        workers=4,
                        engine="thread",
                    ),
                )
                assert parallel.same_contents(serial), algorithm

    def test_auto_engine_resolution(self):
        assert ExecutionOptions(workers=1).effective_engine == "serial"
        assert ExecutionOptions(workers=2).effective_engine == "thread"
        assert (
            ExecutionOptions(workers=2, engine="process").effective_engine
            == "process"
        )


class TestModeledSpeedup:
    """Four workers must beat the serial critical path by > 1.5x in
    modeled time (total cost-model work over the busiest worker's) on
    each of the paper's Treebank settings; wall time cannot show it on a
    one-CPU host."""

    @pytest.mark.parametrize(
        "density, coverage, n_facts",
        [
            ("sparse", False, 300),
            ("dense", False, 300),
            ("sparse", True, 600),
            ("dense", True, 300),
        ],
    )
    def test_thread_engine_on_every_figure_setting(
        self, density, coverage, n_facts
    ):
        prepared = treebank_workload(
            density, coverage=coverage, disjoint=True, n_facts=n_facts
        )
        serial = prepared.run("NAIVE")
        assert serial.cost.speedup_estimate == pytest.approx(1.0)
        parallel = prepared.run("NAIVE", workers=4, engine="thread")
        assert parallel.same_contents(serial)
        assert parallel.metrics.requested_workers == 4
        assert parallel.cost.speedup_estimate > 1.5

    def test_process_engine(self):
        prepared = treebank_workload("dense", coverage=True, disjoint=True)
        parallel = prepared.run("NAIVE", workers=4, engine="process")
        assert parallel.same_contents(prepared.run("NAIVE"))
        assert parallel.cost.speedup_estimate > 1.5
