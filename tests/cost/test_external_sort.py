"""Unit tests for cost-accounted sorting."""

from repro.cost import CostModel, MemoryBudget, quicksort_cost, sorted_with_cost


class TestQuicksortCost:
    def test_trivial_sizes_free(self):
        assert quicksort_cost(0) == 0
        assert quicksort_cost(1) == 0

    def test_superlinear_growth(self):
        assert quicksort_cost(1000) > 10 * quicksort_cost(100) / 2


class TestInMemory:
    def test_sorts_correctly(self):
        cost = CostModel()
        out = sorted_with_cost([3, 1, 2], cost)
        assert out == [1, 2, 3]
        assert cost.cpu_ops > 0

    def test_key_function(self):
        cost = CostModel()
        out = sorted_with_cost(["bb", "a"], cost, key=len)
        assert out == ["a", "bb"]

    def test_no_io_when_fits(self):
        cost = CostModel()
        budget = MemoryBudget(100)
        sorted_with_cost(list(range(50)), cost, budget=budget)
        assert cost.io.total_io == 0


class TestExternal:
    def test_external_sorts_correctly(self):
        cost = CostModel()
        budget = MemoryBudget(10, entries_per_page=4)
        data = list(range(100, 0, -1))
        assert sorted_with_cost(data, cost, budget=budget) == sorted(data)

    def test_external_charges_io(self):
        cost = CostModel()
        budget = MemoryBudget(10, entries_per_page=4)
        sorted_with_cost(list(range(100)), cost, budget=budget)
        assert cost.io.page_reads > 0
        assert cost.io.page_writes > 0

    def test_external_costs_more_than_memory(self):
        small = CostModel()
        big_budget = MemoryBudget(1000)
        sorted_with_cost(list(range(100)), small, budget=big_budget)
        external = CostModel()
        tiny_budget = MemoryBudget(8, entries_per_page=4)
        sorted_with_cost(list(range(100)), external, budget=tiny_budget)
        assert (
            external.simulated_seconds() > small.simulated_seconds()
        )

    def test_more_runs_more_passes(self):
        def io_for(n):
            cost = CostModel()
            budget = MemoryBudget(8, entries_per_page=4)
            sorted_with_cost(list(range(n)), cost, budget=budget)
            return cost.io.total_io

        assert io_for(400) > io_for(40)

