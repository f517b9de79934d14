"""Shared test helpers (importable under ``PYTHONPATH=src``).

The single home of the workload builders: ``tests/conftest.py`` keeps
only thin ``@pytest.fixture`` wrappers, so the plain functions stay
importable from anywhere (goldens, property tests)
without pytest in the loop.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.datagen.workload import WorkloadConfig, build_workload

BENCH_AXES = 4
BENCH_MEMORY = 4000


def small_workload(**overrides):
    """A fast controlled Treebank workload for algorithm tests."""
    defaults = dict(
        kind="treebank",
        n_facts=80,
        n_axes=3,
        density="dense",
        coverage=True,
        disjoint=True,
        seed=5,
    )
    defaults.update(overrides)
    return build_workload(WorkloadConfig(**defaults))


def messy_workload(**overrides):
    """Neither summarizability property holds."""
    defaults = dict(coverage=False, disjoint=False, seed=9)
    defaults.update(overrides)
    return small_workload(**defaults)


def vary_measures(table: FactTable) -> FactTable:
    """Give rows distinct, order-sensitive measures so SUM/AVG/MIN/MAX
    actually exercise fold order (the generators use constant measures)."""
    rows = [
        replace(row, measure=((index * 37) % 11) + (index % 3) * 0.125 + 0.25)
        for index, row in enumerate(table.rows)
    ]
    return FactTable(table.lattice, rows, table.aggregate)


class PreparedWorkload:
    """A workload extracted once, reusable across runs."""

    def __init__(
        self, config: WorkloadConfig, memory_entries: int = BENCH_MEMORY
    ):
        self.config = config
        self.workload = build_workload(config)
        self.table = self.workload.fact_table()
        self.oracle = self.workload.oracle(self.table)
        self.memory_entries = memory_entries

    def run(
        self,
        algorithm: str,
        workers: int = 1,
        engine: str = "auto",
        encoding: str = "auto",
    ):
        return compute_cube(
            self.table,
            ExecutionOptions(
                algorithm=algorithm,
                oracle=self.oracle,
                memory_entries=self.memory_entries,
                workers=workers,
                engine=engine,
                encoding=encoding,
            ),
        )


def treebank_workload(
    density, coverage, disjoint, n_facts=300, n_axes=BENCH_AXES
):
    """A prepared Treebank workload in one of the figure settings."""
    return PreparedWorkload(
        WorkloadConfig(
            kind="treebank",
            n_facts=n_facts,
            n_axes=n_axes,
            density=density,
            coverage=coverage,
            disjoint=disjoint,
        )
    )
