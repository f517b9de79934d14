"""The central correctness matrix (paper Sec. 3/4).

Across every summarizability regime and density:

- NAIVE, COUNTER, BUC, TD, BUCCUST, TDCUST are ALWAYS correct;
- BUCOPT and TDOPT are correct iff disjointness holds;
- TDOPTALL is correct iff both properties hold (in the LND-only
  workloads the generators produce for the coverage-holds settings).
"""

import pytest

from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.properties import PropertyOracle
from tests.conftest import small_workload

REGIMES = [
    (True, True),
    (True, False),
    (False, True),
    (False, False),
]

ALWAYS = ["COUNTER", "BUC", "TD", "BUCCUST", "TDCUST"]
NEEDS_DISJOINT = ["BUCOPT", "TDOPT"]
NEEDS_BOTH = ["TDOPTALL"]


def build(coverage, disjoint, density, seed=17, n_facts=60):
    workload = small_workload(
        coverage=coverage,
        disjoint=disjoint,
        density=density,
        seed=seed,
        n_facts=n_facts,
    )
    table = workload.fact_table()
    oracle = PropertyOracle.from_flags(
        table.lattice, disjoint, coverage
    )
    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    return table, oracle, reference


@pytest.mark.parametrize("coverage,disjoint", REGIMES)
@pytest.mark.parametrize("density", ["sparse", "dense"])
class TestMatrix:
    def test_always_correct_algorithms(self, coverage, disjoint, density):
        table, oracle, reference = build(coverage, disjoint, density)
        for name in ALWAYS:
            result = compute_cube(
                table, ExecutionOptions(algorithm=name, oracle=oracle)
            )
            assert result.same_contents(reference), (
                f"{name} wrong on coverage={coverage} disjoint={disjoint} "
                f"{density}: {result.diff(reference)[:3]}"
            )

    def test_disjointness_dependent(self, coverage, disjoint, density):
        table, oracle, reference = build(coverage, disjoint, density)
        for name in NEEDS_DISJOINT:
            result = compute_cube(
                table, ExecutionOptions(algorithm=name, oracle=oracle)
            )
            if disjoint:
                assert result.same_contents(reference), (
                    f"{name} must be correct when disjointness holds: "
                    f"{result.diff(reference)[:3]}"
                )

    def test_tdoptall_correct_when_both_hold(
        self, coverage, disjoint, density
    ):
        table, oracle, reference = build(coverage, disjoint, density)
        result = compute_cube(
            table, ExecutionOptions(algorithm="TDOPTALL", oracle=oracle)
        )
        if coverage and disjoint:
            assert result.same_contents(reference), result.diff(reference)[:3]


class TestExpectedWrongness:
    """The optimized variants must actually be wrong where the paper
    says they compute incorrect results (Fig. 9 ran them anyway)."""

    def test_opt_wrong_without_disjointness(self):
        table, oracle, reference = build(
            coverage=True, disjoint=False, density="dense", n_facts=120
        )
        for name in NEEDS_DISJOINT:
            result = compute_cube(
                table, ExecutionOptions(algorithm=name, oracle=oracle)
            )
            assert not result.same_contents(reference), (
                f"{name} should double-count on non-disjoint data"
            )

    def test_tdoptall_wrong_without_coverage(self):
        table, oracle, reference = build(
            coverage=False, disjoint=True, density="dense", n_facts=120
        )
        result = compute_cube(
            table, ExecutionOptions(algorithm="TDOPTALL", oracle=oracle)
        )
        assert not result.same_contents(reference)

    def test_figure1_wrongness(self, fig1_table):
        reference = compute_cube(fig1_table, ExecutionOptions(algorithm="NAIVE"))
        for name in NEEDS_DISJOINT + NEEDS_BOTH:
            result = compute_cube(fig1_table, ExecutionOptions(algorithm=name))
            assert not result.same_contents(reference)


class TestSumAggregateEquivalence:
    """The paper: other distributive/algebraic operators behave alike."""

    @pytest.mark.parametrize("function,measure", [("SUM", "@w"), ("AVG", "@w")])
    def test_all_correct_algorithms_agree(self, function, measure):
        import random

        from repro.core.aggregates import AggregateSpec
        from repro.core.axes import AxisSpec
        from repro.core.extract import extract_fact_table
        from repro.core.query import X3Query
        from repro.xmlmodel.nodes import Document, Element

        rng = random.Random(4)
        root = Element("r")
        for number in range(50):
            fact = root.make_child("f", attrs={"w": str(rng.randrange(10))})
            if rng.random() < 0.8:
                fact.make_child("a", text=f"a{rng.randrange(4)}")
            fact.make_child("b", text=f"b{rng.randrange(3)}")
            if rng.random() < 0.3:
                fact.make_child("b", text=f"b{rng.randrange(3)}")
        doc = Document(root)
        query = X3Query(
            fact_tag="f",
            axes=(
                AxisSpec.from_path("$a", "a"),
                AxisSpec.from_path("$b", "b"),
            ),
            aggregate=AggregateSpec(function, measure),
            fact_id_path="",
        )
        table = extract_fact_table(doc, query)
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        for name in ALWAYS:
            oracle = PropertyOracle.from_data(table)
            result = compute_cube(
                table, ExecutionOptions(algorithm=name, oracle=oracle)
            )
            assert result.same_contents(reference), (
                f"{name} with {function}: {result.diff(reference)[:3]}"
            )


class TestMinMaxEquivalence:
    @pytest.mark.parametrize("function", ["MIN", "MAX"])
    def test_always_correct_agree(self, function):
        import random

        from repro.core.aggregates import AggregateSpec
        from repro.core.axes import AxisSpec
        from repro.core.extract import extract_fact_table
        from repro.core.query import X3Query
        from repro.xmlmodel.nodes import Document, Element

        rng = random.Random(11)
        root = Element("r")
        for number in range(40):
            fact = root.make_child(
                "f", attrs={"w": str(rng.randrange(1, 100))}
            )
            fact.make_child("a", text=f"a{rng.randrange(3)}")
        query = X3Query(
            fact_tag="f",
            axes=(AxisSpec.from_path("$a", "a"),),
            aggregate=AggregateSpec(function, "@w"),
            fact_id_path="",
        )
        table = extract_fact_table(Document(root), query)
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        from repro.core.properties import PropertyOracle

        oracle = PropertyOracle.from_data(table)
        for name in ALWAYS:
            result = compute_cube(
                table, ExecutionOptions(algorithm=name, oracle=oracle)
            )
            assert result.same_contents(reference), (name, function)
