"""Unit tests for the cost model and memory budget."""

import pytest

from repro.cost import CostModel, IOStats, MemoryBudget


class TestIOStats:
    def test_snapshot_and_total(self):
        stats = IOStats(page_reads=2, page_writes=3)
        assert stats.total_io == 5
        snap = stats.snapshot()
        assert snap["page_reads"] == 2

    def test_reset(self):
        stats = IOStats(page_reads=2)
        stats.reset()
        assert stats.total_io == 0


class TestCostModel:
    def test_simulated_seconds(self):
        cost = CostModel(cpu_op_cost=1.0, page_io_cost=10.0)
        cost.charge_cpu(3)
        cost.charge_read(2)
        cost.charge_write(1)
        assert cost.simulated_seconds() == 3 + 30.0

    def test_io_dominates_cpu(self):
        cost = CostModel()
        cost.charge_cpu(1)
        cpu_only = cost.simulated_seconds()
        cost.charge_read(1)
        assert cost.simulated_seconds() > 1000 * cpu_only

    def test_reset(self):
        cost = CostModel()
        cost.charge_cpu(5)
        cost.charge_read(2)
        cost.reset()
        assert cost.simulated_seconds() == 0.0

    def test_snapshot_keys(self):
        snap = CostModel().snapshot()
        assert {"cpu_ops", "page_reads", "simulated_seconds"} <= set(snap)


class TestMemoryBudget:
    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)

    def test_acquire_release_all(self):
        budget = MemoryBudget(10)
        budget.acquire(6)
        budget.acquire(7)  # over capacity: the caller spills, nothing raises
        assert budget.used_entries == 13
        budget.release_all()
        assert budget.used_entries == 0

    def test_pages_rounding(self):
        budget = MemoryBudget(100, entries_per_page=10)
        assert budget.pages(1) == 1
        assert budget.pages(10) == 1
        assert budget.pages(11) == 2
        budget.acquire(25)
        assert budget.pages() == 3
