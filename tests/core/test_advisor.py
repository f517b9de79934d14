"""Direct tests for the Sec. 4.6 advisor on derived table statistics."""

import pytest

from repro.core.advisor import recommend_for_table
from repro.core.algorithms.base import DEFAULT_MEMORY_ENTRIES
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.properties import PropertyOracle
from repro.datagen.workload import WorkloadConfig, build_workload
from tests.conftest import small_workload
from tests.core.test_columnar_differential import E2E_SHAPED


def recommend(table, disjoint, covered, memory=4000):
    oracle = PropertyOracle.from_flags(table.lattice, disjoint, covered)
    return recommend_for_table(table, oracle, memory), oracle


class TestRecommendForTable:
    def test_small_cube_gets_columnar_counter(self):
        table = small_workload(n_facts=40, n_axes=3).fact_table()
        rec, _ = recommend(table, False, False, memory=100_000)
        # The single-pass counter strategy, in its vectorized columnar
        # implementation (same semantics, same cost regime, faster).
        assert rec.algorithm == "COLUMNAR"

    def test_dense_summarizable_gets_tdoptall(self):
        # 400 facts over a 4^3-value domain: the top cuboid has far
        # fewer cells than facts, i.e. a dense cube.
        table = small_workload(
            n_facts=400, n_axes=3, density="dense"
        ).fact_table()
        rec, _ = recommend(table, True, True, memory=100)
        assert rec.algorithm == "TDOPTALL"

    def test_sparse_disjoint_gets_bucopt(self):
        table = small_workload(
            n_facts=400, n_axes=5, density="sparse"
        ).fact_table()
        rec, _ = recommend(table, True, False, memory=200)
        assert rec.algorithm == "BUCOPT"

    def test_nothing_holds_gets_safe_buc(self):
        table = small_workload(
            n_facts=400, n_axes=5, density="sparse",
            coverage=False, disjoint=False,
        ).fact_table()
        rec, _ = recommend(table, False, False, memory=200)
        assert rec.algorithm == "BUC"

    def test_recommendation_is_always_runnable_and_correct_when_honest(self):
        """Whatever the advisor picks with a *truthful* oracle must
        reproduce NAIVE."""
        for coverage in (True, False):
            for disjoint in (True, False):
                table = small_workload(
                    n_facts=80, coverage=coverage, disjoint=disjoint,
                    seed=21,
                ).fact_table()
                oracle = PropertyOracle.from_data(table)
                rec = recommend_for_table(table, oracle, 4000)
                result = compute_cube(
                    table,
                    ExecutionOptions(
                        algorithm=rec.algorithm,
                        oracle=oracle,
                        memory_entries=4000,
                    ),
                )
                reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
                assert result.same_contents(reference), rec

    def test_rationales_cite_the_paper(self):
        table = small_workload(n_facts=40).fact_table()
        rec, _ = recommend(table, True, True, memory=100_000)
        assert "Sec" in rec.rationale or "Fig" in rec.rationale

    def test_characteristics_come_from_the_table_statistics(
        self, monkeypatch
    ):
        """The characteristics are the statistics' cell estimates; no
        sweep runs and no row is scanned to get them."""
        from repro.core import advisor
        from repro.core.algorithms import columnar_sweep
        from repro.core.bindings import FactTable

        table = small_workload(n_facts=120, n_axes=3, seed=4).fact_table()
        cells, top = advisor.estimate_cells(table)
        seen = {}

        def spy(oracle, **characteristics):
            seen.update(characteristics)
            return "decided"

        def refuse(*args, **kwargs):
            raise AssertionError("recommend_for_table counted cuboids")

        monkeypatch.setattr(advisor, "choose_algorithm", spy)
        monkeypatch.setattr(FactTable, "key_combinations", refuse)
        monkeypatch.setattr(columnar_sweep, "sweep_trie", refuse)
        oracle = PropertyOracle.from_flags(table.lattice, False, False)
        assert recommend_for_table(table, oracle, 4000) == "decided"
        assert seen["cube_cells_estimate"] == cells
        assert seen["dense"] == (top < 0.5 * len(table))


class TestDelegationPinned:
    """AUTO's pick on the ``benchmarks/e2e`` table shapes, with the
    workloads' declared oracle and the default budget, as the cell
    census decided it before AUTO estimated from statistics."""

    PICKS = {
        "xml_to_cube": "BUC",
        "api_hot": "BUCOPT",
        "cluster_scatter": "BUCOPT",
    }

    @pytest.mark.parametrize("seed", [17, 23])
    @pytest.mark.parametrize("shape", sorted(PICKS))
    def test_same_pick_as_the_census(self, shape, seed):
        config = E2E_SHAPED[shape][0]
        table = build_workload(
            WorkloadConfig(kind="treebank", seed=seed, **config)
        ).fact_table()
        oracle = PropertyOracle.from_flags(
            table.lattice, config["disjoint"], config["coverage"]
        )
        pick = recommend_for_table(table, oracle, DEFAULT_MEMORY_ENTRIES)
        assert pick.algorithm == self.PICKS[shape]
