"""Unit tests for the benchmark harness."""

from repro.bench.harness import run_algorithm, run_config, run_workload
from repro.core.cube import ExecutionOptions, compute_cube
from repro.datagen.workload import WorkloadConfig, build_workload


def options(algorithm):
    return ExecutionOptions(algorithm=algorithm)


def tiny_config(**overrides):
    defaults = dict(kind="treebank", n_facts=30, n_axes=2)
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


class TestRunAlgorithm:
    def test_measures_filled(self):
        workload = build_workload(tiny_config())
        table = workload.fact_table()
        run = run_algorithm(table, options("BUC"), workload_name="w")
        assert run.algorithm == "BUC"
        assert run.workload == "w"
        assert run.simulated_seconds > 0
        assert run.wall_seconds > 0
        assert run.cells > 0
        assert run.correct is None

    def test_validation_flag(self):
        workload = build_workload(tiny_config())
        table = workload.fact_table()
        reference = compute_cube(table, options("NAIVE"))
        run = run_algorithm(table, options("COUNTER"), reference=reference)
        assert run.correct is True

    def test_dnf_marking(self):
        workload = build_workload(tiny_config())
        table = workload.fact_table()
        run = run_algorithm(table, options("TD"), dnf_simulated_limit=1e-9)
        assert run.dnf

    def test_as_row_keys(self):
        workload = build_workload(tiny_config())
        run = run_algorithm(workload.fact_table(), options("BUC"))
        row = run.as_row()
        assert {"algorithm", "sim_seconds", "cells", "passes"} <= set(row)

    def test_artifact_row_round_trips(self):
        from repro.bench.harness import AlgorithmRun

        workload = build_workload(tiny_config())
        run = run_algorithm(
            workload.fact_table(), options("BUC"), workload_name="w"
        )
        back = AlgorithmRun.from_row({"figure": "fig4", **run.as_row()})
        assert back.as_row() == run.as_row()


class TestRunWorkload:
    def test_runs_all_algorithms(self):
        workload = build_workload(tiny_config())
        runs = run_workload(workload, ["COUNTER", "BUC"], validate=True)
        assert [run.algorithm for run in runs] == ["COUNTER", "BUC"]
        assert all(run.correct for run in runs)

    def test_run_config_shortcut(self):
        runs = run_config(tiny_config(), ["NAIVE"])
        assert runs[0].n_facts == 30
        assert runs[0].n_axes == 2

    def test_optimized_flagged_incorrect_on_messy_data(self):
        config = tiny_config(coverage=False, disjoint=False, n_facts=60)
        runs = run_config(config, ["BUC", "BUCOPT"], validate=True)
        by_name = {run.algorithm: run for run in runs}
        assert by_name["BUC"].correct is True
        assert by_name["BUCOPT"].correct is False
