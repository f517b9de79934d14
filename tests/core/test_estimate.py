"""Tests for AUTO's estimate of the cube: the statistics it reads off the
encoding, its cell counts against the census, and the advisor's pick
against the costs the algorithms actually charge."""

import pytest

from repro.core.advisor import estimate_cells, recommend_for_table
from repro.core.bindings import FactTable
from repro.core.columnar import StateStatistics
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.materialize import cuboid_sizes
from repro.core.properties import PropertyOracle
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
        encoded = fig1_table.columnar()
        assert encoded.n_rows == 4
        # $y rigid (position 2): three facts bind a year.
        assert encoded.statistics(2, 0).bound_rows == 3
        # $n rigid: pub1 has two names -> more values than bound rows.
        names = encoded.statistics(0, 0)
        assert names.values > names.bound_rows
        assert names.cardinality == 3  # John, Jane, Anna

    def test_empty_table(self):
        table = FactTable(query1().lattice(), [])
        assert table.columnar().statistics(0, 0).bound_rows == 0
        assert estimate_cells(table) == (0.0, 0.0)

    @pytest.mark.parametrize("shape", ["figure1", "empty", *sorted(E2E_SHAPED)])
    def test_encoding_read_equals_a_row_scan(self, fig1_table, shape):
        """``statistics`` reads the columnar state views; a scan of
        ``FactRow.values_under`` gives the same numbers."""
        if shape == "figure1":
            table = fig1_table
        elif shape == "empty":
            table = FactTable(query1().lattice(), [])
        else:
            table = build_workload(
                WorkloadConfig(kind="treebank", seed=17, **E2E_SHAPED[shape][0])
            ).fact_table()
        encoded = table.columnar()
        for position, states in enumerate(table.lattice.axis_states):
            for state in range(len(states.states)):
                assert encoded.statistics(position, state) == row_statistics(
                    table, position, state
                )


def row_statistics(table, position, state):
    """One (axis, state)'s statistics recomputed from the rows."""
    bound = [row.values_under(position, state) for row in table.rows]
    bound_rows = sum(1 for values in bound if values)
    return StateStatistics(
        cardinality=table.axis_cardinality(position, state),
        bound_rows=bound_rows,
        values=sum(map(len, bound)),
        disjoint=all(len(values) <= 1 for values in bound),
        covered=bound_rows == len(table.rows),
    )


class TestExpectations:
    def test_expected_cells_close_to_actual(self):
        table = prepared()
        cells, top = estimate_cells(table)
        sizes = cuboid_sizes(table, table.lattice)
        assert cells == pytest.approx(sum(sizes.values()), rel=0.2)
        assert top == pytest.approx(sizes[table.lattice.top], rel=0.2)

    @pytest.mark.parametrize("kind", ["treebank", "dblp"])
    @pytest.mark.parametrize("density", ["dense", "sparse"])
    @pytest.mark.parametrize("regime", [(True, True), (False, False)])
    @pytest.mark.parametrize("n_axes", [2, 4, 6])
    def test_within_a_fifth_of_the_census(self, kind, density, regime, n_axes):
        coverage, disjoint = regime
        table = build_workload(
            WorkloadConfig(
                kind=kind, n_facts=200, n_axes=n_axes, density=density,
                coverage=coverage, disjoint=disjoint, seed=3,
            )
        ).fact_table()
        cells, _ = estimate_cells(table)
        actual = sum(cuboid_sizes(table, table.lattice).values())
        assert cells == pytest.approx(actual, rel=0.2)


class TestRankingFidelity:
    """The advisor's pick must agree with what the algorithms charge."""

    def _actual(self, table, algorithms, memory, oracle):
        return {
            name: compute_cube(
                table,
                ExecutionOptions(
                    algorithm=name, memory_entries=memory, oracle=oracle
                ),
            ).simulated_seconds
            for name in algorithms
        }

    def test_dense_summarizable_ranking(self):
        table = prepared(density="dense", coverage=True, disjoint=True)
        oracle = PropertyOracle.from_flags(table.lattice, True, True)
        algorithms = ["COLUMNAR", "COUNTER", "BUC", "BUCOPT", "TD", "TDOPTALL"]
        for memory in (100, 4000):
            actual = self._actual(table, algorithms, memory, oracle)
            # The pick is among the two cheapest runs; TD is the slowest.
            pick = recommend_for_table(table, oracle, memory).algorithm
            actual_order = sorted(algorithms, key=actual.get)
            assert pick in actual_order[:2], (memory, actual_order)
            assert actual_order[-1] == "TD"

    def test_sparse_ranking_prefers_buc_over_td(self):
        table = prepared(
            density="sparse", coverage=False, disjoint=True, n_facts=300
        )
        oracle = PropertyOracle.from_flags(table.lattice, True, False)
        assert recommend_for_table(table, oracle, 4000).algorithm == "BUCOPT"
        actual = self._actual(table, ["BUCOPT", "BUC", "TD"], 4000, oracle)
        assert actual["BUCOPT"] < actual["BUC"] < actual["TD"]

    def test_counter_thrash_predicted(self):
        """The counter strategy is picked only when the estimated cells
        fit the budget; starved, it really does thrash."""
        table = prepared(
            density="sparse", coverage=False, disjoint=True,
            n_facts=300, n_axes=4,
        )
        oracle = PropertyOracle.from_flags(table.lattice, True, False)
        def pick(memory):
            return recommend_for_table(table, oracle, memory).algorithm

        assert pick(500) != "COLUMNAR"
        assert pick(10**6) == "COLUMNAR"
        starved = self._actual(table, ["COLUMNAR"], 500, oracle)
        roomy = self._actual(table, ["COLUMNAR"], 10**6, oracle)
        assert starved["COLUMNAR"] > 2 * roomy["COLUMNAR"]
