"""Ablation benchmarks for the design choices DESIGN.md calls out.

A1 — the shared most-relaxed-pattern evaluation: extracting the annotated
     fact table once is far cheaper than matching a separate relaxed
     pattern per lattice point (the Sec. 3.4 argument for Fig. 2).
A2 — identity tracking: what the fact-id bookkeeping costs when
     disjointness actually holds (BUC vs BUCOPT, TD vs TDOPT).
A3 — buffer sensitivity: the memory budget drives external-sort I/O in
     the TD family.
"""

import pytest

from benchmarks.conftest import bench_once
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.extract import extract_fact_table
from repro.datagen.workload import WorkloadConfig, build_workload
from repro.patterns.match import match_document
from repro.patterns.relaxation import most_relaxed_pattern


@pytest.fixture(scope="module")
def clean_workload():
    return build_workload(
        WorkloadConfig(
            kind="treebank",
            n_facts=200,
            n_axes=3,
            density="dense",
            coverage=True,
            disjoint=True,
        )
    )


class TestA1SharedExtraction:
    def test_shared_extraction(self, benchmark, clean_workload):
        """One annotated extraction feeds every cuboid."""
        result = bench_once(
            benchmark,
            lambda: extract_fact_table(
                clean_workload.documents, clean_workload.query
            ),
        )
        assert len(result) == 200

    def test_per_cuboid_matching_is_slower(self, clean_workload):
        """Matching the pattern separately per lattice point does
        lattice-size times the work of the one shared extraction."""
        import time

        begin = time.perf_counter()
        extract_fact_table(clean_workload.documents, clean_workload.query)
        shared = time.perf_counter() - begin

        pattern = most_relaxed_pattern(
            clean_workload.query.rigid_pattern(),
            clean_workload.query.relaxation_specs(),
        )
        lattice_size = clean_workload.query.lattice().size()
        begin = time.perf_counter()
        for _ in range(lattice_size):
            for doc in clean_workload.documents:
                match_document(doc, pattern)
        per_cuboid = time.perf_counter() - begin
        assert per_cuboid > shared


class TestA2IdentityTracking:
    def test_identity_tracking(self, benchmark, clean_workload):
        table = clean_workload.fact_table()
        safe = bench_once(benchmark, lambda: compute_cube(
            table, ExecutionOptions(algorithm="BUC")
        ))
        fast = compute_cube(table, ExecutionOptions(algorithm="BUCOPT"))
        # The bookkeeping is pure overhead when disjointness holds.
        assert fast.simulated_seconds < safe.simulated_seconds
        assert fast.same_contents(safe)

    def test_td_identity_overhead(self, clean_workload):
        table = clean_workload.fact_table()
        td = compute_cube(table, ExecutionOptions(algorithm="TD"))
        tdopt = compute_cube(table, ExecutionOptions(algorithm="TDOPT"))
        assert tdopt.simulated_seconds < td.simulated_seconds


class TestA3BufferSensitivity:
    @pytest.mark.parametrize("memory_entries", [64, 1024, 100_000])
    def test_buffer_sensitivity(self, benchmark, clean_workload, memory_entries):
        table = clean_workload.fact_table()
        result = bench_once(
            benchmark,
            lambda: compute_cube(
                table, ExecutionOptions(algorithm="TD", memory_entries=memory_entries)
            ),
        )
        benchmark.extra_info["simulated_seconds"] = result.simulated_seconds
        benchmark.extra_info["page_writes"] = result.cost.page_writes

    def test_io_monotone_in_budget(self, clean_workload):
        table = clean_workload.fact_table()
        tight = compute_cube(table, ExecutionOptions(algorithm="TD", memory_entries=64))
        roomy = compute_cube(
            table, ExecutionOptions(algorithm="TD", memory_entries=100_000)
        )
        assert tight.cost.page_writes > roomy.cost.page_writes
        assert tight.simulated_seconds > roomy.simulated_seconds
        assert tight.same_contents(roomy)


class TestCounterMemorySweep:
    """Sec. 4.6's memory ceiling (the paper's 2 GB Windows limit) as a
    sweep: shrinking the counter budget multiplies passes and I/O."""

    @pytest.mark.parametrize("memory_entries", [400, 2000, 100_000])
    def test_counter_memory(self, benchmark, clean_workload, memory_entries):
        table = clean_workload.fact_table()
        result = bench_once(
            benchmark,
            lambda: compute_cube(
                table,
                ExecutionOptions(algorithm="COUNTER", memory_entries=memory_entries),
            ),
        )
        benchmark.extra_info["passes"] = result.passes

    def test_passes_monotone_in_memory(self, clean_workload):
        table = clean_workload.fact_table()
        passes = [
            compute_cube(
                table, ExecutionOptions(algorithm="COUNTER", memory_entries=memory)
            ).passes
            for memory in (400, 2000, 100_000)
        ]
        assert passes[0] >= passes[1] >= passes[2] == 1
        results = [
            compute_cube(
                table, ExecutionOptions(algorithm="COUNTER", memory_entries=memory)
            )
            for memory in (400, 100_000)
        ]
        assert results[0].same_contents(results[1])
