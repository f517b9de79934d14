"""Tests for the analytic cost estimator: ranking fidelity vs. reality."""

import pytest

from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.estimate import CostEstimator, TableStatistics
from tests.conftest import small_workload


def prepared(**overrides):
    defaults = dict(n_facts=200, n_axes=4, density="dense", seed=8)
    defaults.update(overrides)
    return small_workload(**defaults).fact_table()


class TestStatistics:
    def test_counts(self, fig1_table):
        stats = TableStatistics.collect(fig1_table)
        assert stats.n_facts == 4
        # $y rigid (position 2): three facts bind a year.
        assert stats.coverage_rate[2][0] == pytest.approx(3 / 4)
        # $n rigid: pub1 has two names -> multiplicity > 1.
        assert stats.avg_multiplicity[0][0] > 1.0
        assert stats.cardinality[0][0] == 3  # John, Jane, Anna

    def test_empty_table(self):
        from repro.core.bindings import FactTable
        from repro.datagen.publications import query1

        stats = TableStatistics.collect(FactTable(query1().lattice(), []))
        assert stats.n_facts == 0


class TestExpectations:
    def test_expected_cells_close_to_actual(self):
        table = prepared()
        estimator = CostEstimator(table)
        cube = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        actual = cube.total_cells()
        predicted = estimator.total_cells()
        assert predicted == pytest.approx(actual, rel=0.8)

    def test_expected_rows_at_bottom(self):
        table = prepared()
        estimator = CostEstimator(table)
        assert estimator.expected_rows(table.lattice.bottom) == len(table)


class TestRankingFidelity:
    """The estimator must predict the figures' winners."""

    def _actual(self, table, algorithms, memory):
        return {
            name: compute_cube(
                table, ExecutionOptions(algorithm=name, memory_entries=memory)
            ).simulated_seconds
            for name in algorithms
        }

    def test_dense_summarizable_ranking(self):
        table = prepared(density="dense", coverage=True, disjoint=True)
        estimator = CostEstimator(table, memory_entries=4000)
        algorithms = ["COUNTER", "BUC", "TD", "TDOPTALL"]
        actual = self._actual(table, algorithms, 4000)
        # Whoever is predicted fastest must actually be in the top 2,
        # and TD must be predicted (and be) the slowest.
        predicted_order = estimator.rank(algorithms)
        actual_order = sorted(algorithms, key=actual.get)
        assert predicted_order[0] in actual_order[:2]
        assert predicted_order[-1] == actual_order[-1] == "TD"

    def test_sparse_ranking_prefers_buc_over_td(self):
        table = prepared(
            density="sparse", coverage=False, disjoint=True, n_facts=300
        )
        estimator = CostEstimator(table, memory_entries=4000)
        assert estimator.estimate("BUC") < estimator.estimate("TD")
        actual = self._actual(table, ["BUC", "TD"], 4000)
        assert actual["BUC"] < actual["TD"]

    def test_counter_thrash_predicted(self):
        table = prepared(
            density="sparse", coverage=False, disjoint=True,
            n_facts=300, n_axes=5,
        )
        starved = CostEstimator(table, memory_entries=500)
        roomy = CostEstimator(table, memory_entries=10**6)
        assert starved.estimate("COUNTER") > 2 * roomy.estimate("COUNTER")

    def test_tdoptall_predicted_cheaper_than_tdopt(self):
        table = prepared(density="dense", coverage=False, disjoint=True)
        estimator = CostEstimator(table)
        assert estimator.estimate("TDOPTALL") < estimator.estimate("TDOPT")
        assert estimator.estimate("TDOPT") < estimator.estimate("TD")

    def test_unknown_algorithm_rejected(self):
        table = prepared()
        with pytest.raises(ValueError):
            CostEstimator(table).estimate("MAGIC")
