"""Unit tests for the COUNTER algorithm's memory behaviour (Sec. 3.3)."""

from repro.core.cube import ExecutionOptions, compute_cube
from tests.conftest import small_workload


def table_of(**overrides):
    return small_workload(**overrides).fact_table()


class TestPasses:
    def test_single_pass_when_fits(self, fig1_table):
        cube = compute_cube(
            fig1_table, ExecutionOptions(algorithm="COUNTER", memory_entries=10_000)
        )
        assert cube.passes == 1

    def test_multipass_when_tight(self):
        table = table_of(density="sparse", n_facts=120, n_axes=4)
        roomy = compute_cube(
            table, ExecutionOptions(algorithm="COUNTER", memory_entries=100_000)
        )
        tight = compute_cube(
            table, ExecutionOptions(algorithm="COUNTER", memory_entries=100)
        )
        assert roomy.passes == 1
        assert tight.passes > 1
        # Results stay correct either way.
        assert tight.same_contents(roomy)

    def test_more_axes_more_passes(self):
        def passes(n_axes):
            table = table_of(
                density="sparse", n_facts=100, n_axes=n_axes
            )
            return compute_cube(
                table, ExecutionOptions(algorithm="COUNTER", memory_entries=500)
            ).passes

        assert passes(5) >= passes(3)

    def test_thrashing_costs_io(self):
        table = table_of(density="sparse", n_facts=120, n_axes=4)
        roomy = compute_cube(
            table, ExecutionOptions(algorithm="COUNTER", memory_entries=100_000)
        )
        tight = compute_cube(
            table, ExecutionOptions(algorithm="COUNTER", memory_entries=100)
        )
        assert tight.cost.page_reads > roomy.cost.page_reads
        assert tight.simulated_seconds > roomy.simulated_seconds


class TestCombinatorialIncrement:
    def test_multi_valued_fact_increments_combinations(self, fig1_table):
        cube = compute_cube(fig1_table, ExecutionOptions(algorithm="COUNTER"))
        point = fig1_table.lattice.point_by_description(
            "$n:rigid, $p:rigid, $y:rigid"
        )
        # pub1 (2 authors) increments both (John,p1,2003) and
        # (Jane,p1,2003); pub2 (2 years) both (John,p2,2004/2005).
        assert cube.cuboids[point] == {
            ("John", "p1", "2003"): 1.0,
            ("Jane", "p1", "2003"): 1.0,
            ("John", "p2", "2004"): 1.0,
            ("John", "p2", "2005"): 1.0,
        }

    def test_correct_on_any_regime(self):
        for coverage in (True, False):
            for disjoint in (True, False):
                table = table_of(
                    coverage=coverage, disjoint=disjoint, n_facts=50
                )
                counter = compute_cube(table, ExecutionOptions(algorithm="COUNTER"))
                naive = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
                assert counter.same_contents(naive)
