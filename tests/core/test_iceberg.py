"""Unit tests for iceberg cubes (min-support pruning)."""

import pytest

from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.packed import PackedCuboid
from repro.errors import CubeError
from tests.conftest import small_workload


@pytest.fixture(scope="module")
def table():
    return small_workload(n_facts=150, density="dense", seed=2).fact_table()


class TestIcebergSemantics:
    def test_filtered_equals_postfiltered_naive(self, table):
        support = 5
        full = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        iceberg = compute_cube(
            table, ExecutionOptions(algorithm="NAIVE", min_support=support)
        )
        for point, cuboid in full.cuboids.items():
            expected = {
                key: value
                for key, value in cuboid.items()
                if value >= support
            }
            assert iceberg.cuboids[point] == expected

    @pytest.mark.parametrize(
        "algorithm", ["COUNTER", "BUC", "TD", "BUCCUST", "TDCUST"]
    )
    def test_all_correct_algorithms_agree(self, table, algorithm):
        support = 4
        reference = compute_cube(
            table, ExecutionOptions(algorithm="NAIVE", min_support=support)
        )
        result = compute_cube(
            table, ExecutionOptions(algorithm=algorithm, min_support=support)
        )
        assert result.same_contents(reference), algorithm

    def test_zero_support_is_full_cube(self, table):
        assert compute_cube(
            table, ExecutionOptions(algorithm="BUC", min_support=0)
        ).same_contents(
            compute_cube(table, ExecutionOptions(algorithm="BUC"))
        )

    def test_high_support_leaves_only_big_groups(self, table):
        iceberg = compute_cube(
            table, ExecutionOptions(algorithm="BUC", min_support=len(table))
        )
        bottom = table.lattice.bottom
        # Only the grand-total group can reach support == |facts|.
        for point, cuboid in iceberg.cuboids.items():
            if point != bottom:
                assert cuboid == {}
        assert iceberg.cuboids[bottom] == {(): float(len(table))}


class TestIcebergKeepsPackedForm:
    @pytest.mark.parametrize("encoding", ["columnar", "dict"])
    def test_buc_cut_stays_packed_and_equals_naives(self, table, encoding):
        """The cut filters a packed cuboid's codes and cells: BUC's
        answer stays packed, in wire order, equal to NAIVE's cut."""
        full = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        result = compute_cube(
            table,
            ExecutionOptions(algorithm="BUC", encoding=encoding, min_support=2),
        )
        assert list(result.cuboids) == list(full.cuboids)
        dropped = 0
        for point, cuboid in full.cuboids.items():
            cut = result.cuboids[point]
            expected = {key: value for key, value in cuboid.items() if value >= 2}
            assert isinstance(cut, PackedCuboid)
            assert cut.cells.typecode == "d"
            assert cut == expected
            assert list(cut) == sorted(expected)
            dropped += len(cuboid) - len(cut)
        assert dropped > 0


class TestIcebergPruning:
    def test_buc_prunes_work(self, table):
        full = compute_cube(table, ExecutionOptions(algorithm="BUC"))
        iceberg = compute_cube(table, ExecutionOptions(algorithm="BUC", min_support=8))
        assert iceberg.cost.cpu_ops < full.cost.cpu_ops

    def test_higher_support_prunes_more(self, table):
        low = compute_cube(table, ExecutionOptions(algorithm="BUC", min_support=2))
        high = compute_cube(table, ExecutionOptions(algorithm="BUC", min_support=20))
        assert high.cost.cpu_ops < low.cost.cpu_ops


class TestIcebergValidation:
    def test_non_count_rejected(self):
        from repro.core.aggregates import AggregateSpec
        from repro.core.axes import AxisSpec
        from repro.core.extract import extract_fact_table
        from repro.core.query import X3Query
        from repro.xmlmodel.parser import parse

        doc = parse('<r><f w="1"><a>x</a></f></r>')
        query = X3Query(
            fact_tag="f",
            axes=(AxisSpec.from_path("$a", "a"),),
            aggregate=AggregateSpec("SUM", "@w"),
            fact_id_path="",
        )
        table = extract_fact_table(doc, query)
        with pytest.raises(CubeError):
            compute_cube(table, ExecutionOptions(algorithm="BUC", min_support=2))
