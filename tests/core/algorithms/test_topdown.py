"""Unit tests for the top-down family (Sec. 3.5)."""

from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.properties import PropertyOracle
from tests.conftest import small_workload


class TestTd:
    def test_correct_everywhere(self, fig1_table):
        naive = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        td = compute_cube(fig1_table, ExecutionOptions(algorithm="TD"))
        assert td.same_contents(naive)

    def test_cost_scales_with_lattice_size(self):
        small = small_workload(n_axes=2, n_facts=100).fact_table()
        large = small_workload(n_axes=5, n_facts=100).fact_table()
        cheap = compute_cube(small, ExecutionOptions(algorithm="TD"))
        costly = compute_cube(large, ExecutionOptions(algorithm="TD"))
        # 2^5/2^2 = 8x the cuboids: at least several times the cost.
        assert costly.simulated_seconds > 4 * cheap.simulated_seconds

    def test_external_sorts_when_budget_tiny(self):
        table = small_workload(n_facts=200).fact_table()
        cube = compute_cube(table, ExecutionOptions(algorithm="TD", memory_entries=64))
        roomy = compute_cube(
            table, ExecutionOptions(algorithm="TD", memory_entries=1_000_000)
        )
        assert cube.same_contents(roomy)
        assert cube.cost.page_writes > roomy.cost.page_writes
        assert cube.simulated_seconds > roomy.simulated_seconds


class TestTdOpt:
    def test_null_groups_fix_coverage(self):
        """TDOPT stays correct when coverage fails but disjointness
        holds — the paper applied it in exactly that setting (Fig. 4-6)."""
        table = small_workload(
            coverage=False, disjoint=True, n_facts=150, seed=31
        ).fact_table()
        naive = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        tdopt = compute_cube(table, ExecutionOptions(algorithm="TDOPT"))
        assert tdopt.same_contents(naive)

    def test_double_counts_without_disjointness(self, fig1_table):
        naive = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        tdopt = compute_cube(fig1_table, ExecutionOptions(algorithm="TDOPT"))
        point = fig1_table.lattice.point_by_description(
            "$n:LND, $p:rigid, $y:LND"
        )
        # Rolling up the (publisher, year) cuboid over year is fine, but
        # rolling up over the repeated-author axis double-counts pub1.
        author_point = fig1_table.lattice.point_by_description(
            "$n:LND, $p:LND, $y:LND"
        )
        assert tdopt.cuboids[author_point][()] > naive.cuboids[
            author_point
        ][()]
        assert point in tdopt.cuboids

    def test_cheaper_than_td(self):
        table = small_workload(n_facts=200, n_axes=4).fact_table()
        td = compute_cube(table, ExecutionOptions(algorithm="TD"))
        tdopt = compute_cube(table, ExecutionOptions(algorithm="TDOPT"))
        assert tdopt.simulated_seconds < td.simulated_seconds


class TestTdOptAll:
    def test_fast_on_dense_lnd_lattice(self):
        table = small_workload(
            density="dense", n_facts=300, n_axes=5
        ).fact_table()
        td = compute_cube(table, ExecutionOptions(algorithm="TD"))
        tdoptall = compute_cube(table, ExecutionOptions(algorithm="TDOPTALL"))
        assert tdoptall.same_contents(compute_cube(
            table, ExecutionOptions(algorithm="NAIVE")
        ))
        assert tdoptall.simulated_seconds < td.simulated_seconds / 5

    def test_undercounts_on_coverage_gap(self):
        """The paper's motivating roll-up failure, isolated: a fact
        missing one dimension never reaches the coarser cuboid via
        roll-up from the finer one."""
        from repro.core.axes import AxisSpec
        from repro.core.extract import extract_fact_table
        from repro.core.query import X3Query
        from repro.xmlmodel.parser import parse

        doc = parse(
            "<r>"
            "<f><a>x</a><b>u</b></f>"
            "<f><b>u</b></f>"  # no <a>: the online-article analogue
            "</r>"
        )
        query = X3Query(
            fact_tag="f",
            axes=(
                AxisSpec.from_path("$a", "a"),
                AxisSpec.from_path("$b", "b"),
            ),
            fact_id_path="",
        )
        table = extract_fact_table(doc, query)
        naive = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        tdoptall = compute_cube(table, ExecutionOptions(algorithm="TDOPTALL"))
        b_point = table.lattice.point_by_description("$a:LND, $b:rigid")
        assert naive.cuboids[b_point][("u",)] == 2.0
        assert tdoptall.cuboids[b_point][("u",)] == 1.0  # f2 lost

    def test_structural_twin_assumption(self, fig1_table):
        """TDOPTALL equates structurally relaxed points with their rigid
        twins - visibly wrong on Figure 1 (PC-AD finds Smith)."""
        naive = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        tdoptall = compute_cube(fig1_table, ExecutionOptions(algorithm="TDOPTALL"))
        pcad_point = fig1_table.lattice.point_by_description(
            "$n:PC-AD, $p:LND, $y:LND"
        )
        rigid_point = fig1_table.lattice.point_by_description(
            "$n:rigid, $p:LND, $y:LND"
        )
        assert tdoptall.cuboids[pcad_point] == tdoptall.cuboids[rigid_point]
        assert naive.cuboids[pcad_point] != naive.cuboids[rigid_point]


class TestTdCust:
    def test_correct_with_schema_oracle(self):
        from repro.core.extract import extract_fact_table
        from repro.datagen.dblp import (
            DblpConfig, dblp_dtd, dblp_query, generate_dblp,
        )

        doc = generate_dblp(DblpConfig(n_articles=300, seed=8))
        table = extract_fact_table(doc, dblp_query())
        oracle = PropertyOracle.from_schema(
            table.lattice, dblp_dtd(), "article"
        )
        naive = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        cust = compute_cube(table, ExecutionOptions(algorithm="TDCUST", oracle=oracle))
        assert cust.same_contents(naive)

    def test_between_td_and_tdopt(self):
        from repro.core.extract import extract_fact_table
        from repro.datagen.dblp import (
            DblpConfig, dblp_dtd, dblp_query, generate_dblp,
        )

        doc = generate_dblp(DblpConfig(n_articles=400, seed=6))
        table = extract_fact_table(doc, dblp_query())
        oracle = PropertyOracle.from_schema(
            table.lattice, dblp_dtd(), "article"
        )
        td = compute_cube(table, ExecutionOptions(algorithm="TD"))
        tdopt = compute_cube(table, ExecutionOptions(algorithm="TDOPT"))
        cust = compute_cube(table, ExecutionOptions(algorithm="TDCUST", oracle=oracle))
        assert tdopt.simulated_seconds < cust.simulated_seconds
        assert cust.simulated_seconds < td.simulated_seconds

    def test_pessimistic_oracle_degenerates_to_safe(self, fig1_table):
        naive = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        cust = compute_cube(
            fig1_table, ExecutionOptions(algorithm="TDCUST")
        )  # default: nothing holds
        assert cust.same_contents(naive)
