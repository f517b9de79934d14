"""Tests for the analytic cost estimator: ranking fidelity vs. reality."""

import pytest

from repro.core.algorithms.base import table_pages
from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.estimate import CostEstimator, TableStatistics
from repro.datagen.publications import query1
from repro.datagen.workload import WorkloadConfig, build_workload
from tests.conftest import small_workload
from tests.core.test_columnar_differential import E2E_SHAPED


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
        stats = TableStatistics.collect(FactTable(query1().lattice(), []))
        assert stats.n_facts == 0

    @pytest.mark.parametrize("shape", ["figure1", "empty", *sorted(E2E_SHAPED)])
    def test_encoding_read_equals_a_row_scan(self, fig1_table, shape):
        """``collect`` reads the columnar state views; a scan of
        ``FactRow.values_under`` gives the same numbers, floats to the
        bit."""
        if shape == "figure1":
            table = fig1_table
        elif shape == "empty":
            table = FactTable(query1().lattice(), [])
        else:
            table = build_workload(
                WorkloadConfig(kind="treebank", seed=17, **E2E_SHAPED[shape][0])
            ).fact_table()
        assert TableStatistics.collect(table) == row_statistics(table)


def row_statistics(table):
    """``TableStatistics`` recomputed from the rows, one scan per (axis,
    state)."""
    n = max(1, len(table.rows))
    cardinality, multiplicity, coverage = {}, {}, {}
    for position, states in enumerate(table.lattice.axis_states):
        cardinality[position] = {}
        multiplicity[position] = {}
        coverage[position] = {}
        for state in range(len(states.states)):
            bound = [row.values_under(position, state) for row in table.rows]
            bound_rows = sum(1 for values in bound if values)
            cardinality[position][state] = table.axis_cardinality(
                position, state
            )
            multiplicity[position][state] = (
                sum(map(len, bound)) / bound_rows if bound_rows else 0.0
            )
            coverage[position][state] = bound_rows / n
    return TableStatistics(
        n_facts=len(table.rows),
        base_pages=table_pages(table),
        cardinality=cardinality,
        avg_multiplicity=multiplicity,
        coverage_rate=coverage,
    )


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
