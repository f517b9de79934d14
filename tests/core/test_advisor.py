"""Direct tests for the Sec. 4.6 advisor on derived table statistics."""

from repro.core.advisor import recommend_for_table
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.properties import PropertyOracle
from tests.conftest import small_workload


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

    def test_characteristics_come_from_the_columnar_census(
        self, monkeypatch
    ):
        """The table statistics are the exact NAIVE cell counts, taken
        by the count-only sweep, never by a per-point row scan."""
        from repro.core import advisor
        from repro.core.bindings import FactTable

        table = small_workload(n_facts=120, n_axes=3, seed=4).fact_table()
        cube = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        seen = {}

        def spy(oracle, **characteristics):
            seen.update(characteristics)
            return "decided"

        def no_row_scan(self, row, point):
            raise AssertionError("recommend_for_table scanned rows")

        monkeypatch.setattr(advisor, "choose_algorithm", spy)
        monkeypatch.setattr(FactTable, "key_combinations", no_row_scan)
        oracle = PropertyOracle.from_flags(table.lattice, False, False)
        assert recommend_for_table(table, oracle, 4000) == "decided"
        assert seen["cube_cells_estimate"] == cube.total_cells()
        top = len(cube.cuboids[table.lattice.top])
        assert seen["dense"] == (top < 0.5 * len(table))
