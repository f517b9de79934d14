"""Unit tests for the bottom-up family (Sec. 3.4)."""

from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.properties import PropertyOracle
from tests.conftest import small_workload


class TestBucCorrectness:
    def test_bottom_group_counts_each_fact_once(self, fig1_table):
        cube = compute_cube(fig1_table, ExecutionOptions(algorithm="BUC"))
        assert cube.cuboids[fig1_table.lattice.bottom] == {(): 4.0}

    def test_overlapping_partitions_replicate(self, fig1_table):
        cube = compute_cube(fig1_table, ExecutionOptions(algorithm="BUC"))
        point = fig1_table.lattice.point_by_description(
            "$n:rigid, $p:LND, $y:LND"
        )
        # pub1 lands in both the John and Jane partitions.
        assert cube.cuboids[point][("John",)] == 2.0  # pub1 + pub2
        assert cube.cuboids[point][("Jane",)] == 1.0


class TestBucOptWrongness:
    def test_first_value_placement_undercounts(self, fig1_table):
        cube = compute_cube(fig1_table, ExecutionOptions(algorithm="BUCOPT"))
        point = fig1_table.lattice.point_by_description(
            "$n:rigid, $p:LND, $y:LND"
        )
        cuboid = cube.cuboids[point]
        # pub1 went only to its first author's partition: Jane's group
        # lost it entirely.
        assert cuboid.get(("Jane",), 0.0) == 0.0
        assert cuboid[("John",)] == 2.0


class TestCosts:
    def test_bucopt_cheaper_on_disjoint_data(self):
        table = small_workload(
            disjoint=True, coverage=True, n_facts=200, n_axes=4
        ).fact_table()
        safe = compute_cube(table, ExecutionOptions(algorithm="BUC"))
        fast = compute_cube(table, ExecutionOptions(algorithm="BUCOPT"))
        assert fast.simulated_seconds < safe.simulated_seconds
        assert fast.same_contents(safe)

    def test_sparse_buc_beats_td(self):
        table = small_workload(
            density="sparse", n_facts=200, n_axes=4
        ).fact_table()
        buc = compute_cube(table, ExecutionOptions(algorithm="BUC"))
        td = compute_cube(table, ExecutionOptions(algorithm="TD"))
        assert buc.simulated_seconds < td.simulated_seconds


class TestBucCust:
    def test_oracle_guides_partitioning(self):
        workload = small_workload(
            disjoint=False, coverage=True, n_facts=150, seed=23
        )
        table = workload.fact_table()
        naive = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        # With a truthful per-axis oracle BUCCUST stays correct.
        truthful = PropertyOracle.from_data(table)
        cust = compute_cube(
            table, ExecutionOptions(algorithm="BUCCUST", oracle=truthful)
        )
        assert cust.same_contents(naive)

    def test_buccust_between_buc_and_bucopt(self):
        """On mixed data (some axes disjoint, some not), BUCCUST should
        cost between the safe and the fully-optimistic variants."""
        from repro.datagen.dblp import DblpConfig, dblp_dtd, dblp_query, generate_dblp
        from repro.core.extract import extract_fact_table

        doc = generate_dblp(DblpConfig(n_articles=400, seed=6))
        table = extract_fact_table(doc, dblp_query())
        oracle = PropertyOracle.from_schema(
            table.lattice, dblp_dtd(), "article"
        )
        buc = compute_cube(table, ExecutionOptions(algorithm="BUC"))
        bucopt = compute_cube(table, ExecutionOptions(algorithm="BUCOPT"))
        cust = compute_cube(table, ExecutionOptions(algorithm="BUCCUST", oracle=oracle))
        assert bucopt.simulated_seconds <= cust.simulated_seconds
        assert cust.simulated_seconds <= buc.simulated_seconds
        # ... while staying correct, unlike BUCOPT.
        naive = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        assert cust.same_contents(naive)
        assert not bucopt.same_contents(naive)
