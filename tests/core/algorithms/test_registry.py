"""Unit tests for the algorithm registry."""

import re
import sys
import threading
from pathlib import Path

import pytest

from repro.core.algorithms.registry import (
    ALWAYS_CORRECT,
    COLUMNAR_CAPABLE,
    META,
    NEEDS_BOTH,
    NEEDS_DISJOINTNESS,
    available,
    get_algorithm,
)
from repro.core.cube import ExecutionOptions, compute_cube
from repro.errors import CubeError
from repro.testing import small_workload

DESIGN = Path(__file__).resolve().parents[3] / "DESIGN.md"


class TestRegistry:
    def test_all_algorithms_registered(self):
        assert set(available()) == {
            "AUTO", "NAIVE", "COUNTER", "COLUMNAR", "BUC", "BUCOPT",
            "BUCCUST", "TD", "TDOPT", "TDOPTALL", "TDCUST",
        }

    def test_lookup_case_insensitive(self):
        assert get_algorithm("buc").name == "BUC"

    def test_unknown_raises(self):
        with pytest.raises(CubeError):
            get_algorithm("nope")

    def test_classification_partitions_lineup(self):
        tagged = (
            set(ALWAYS_CORRECT)
            | set(NEEDS_DISJOINTNESS)
            | set(NEEDS_BOTH)
            | set(META)
        )
        assert tagged == set(available())
        assert not set(ALWAYS_CORRECT) & set(NEEDS_DISJOINTNESS)

    def test_instances_are_singletons(self):
        assert get_algorithm("TD") is get_algorithm("TD")

    def test_name_tuples_are_what_the_classes_declare(self):
        """The four tuples are derived; these are the contents the bench
        harness and the differential suites were written against."""
        assert set(ALWAYS_CORRECT) == {
            "NAIVE", "COUNTER", "COLUMNAR", "BUC", "TD", "BUCCUST", "TDCUST",
        }
        assert NEEDS_DISJOINTNESS == ("BUCOPT", "TDOPT")
        assert NEEDS_BOTH == ("TDOPTALL",)
        assert COLUMNAR_CAPABLE == (
            "BUC", "BUCOPT", "BUCCUST", "TD", "TDOPT", "TDOPTALL", "TDCUST",
        )
        for name in available():
            algorithm = get_algorithm(name)
            assert algorithm.requires in (
                (), ("disjointness",), ("disjointness", "coverage")
            )
            assert set(algorithm.encodings) <= {"columnar", "dict"}
        assert get_algorithm("COLUMNAR").encodings == ("columnar",)
        assert get_algorithm("NAIVE").encodings == ("dict",)

    def test_design_table_lists_the_registry_with_its_requirements(self):
        """DESIGN.md Sec. 5: one row per registered algorithm (AUTO, the
        delegate, aside), "Requires" as the class declares it."""
        section = DESIGN.read_text(encoding="utf-8").split("## 5. Algorithms")[1]
        section = section.split("\n## ")[0]
        rows = re.findall(r"^\| `(\w+)` \| [^|]+ \| ([^|]+) \|", section, re.M)
        assert dict(rows) == {
            name: " + ".join(get_algorithm(name).requires) or "—"
            for name in available()
            if name not in META
        }
        assert len(rows) == len(available()) - len(META)


@pytest.mark.parametrize("name", available())
@pytest.mark.parametrize(
    "point", [(99, 99, 99), (0, 0), (0, 0, 0, 0), (0, -1, 0)]
)
def test_points_entry_that_is_no_lattice_point_is_a_cube_error(
    fig1_table, name, point
):
    """Used to be a bare ``KeyError`` from TDOPT/TDOPTALL/TDCUST and a
    silently empty cuboid from everything else (AUTO through its
    delegate)."""
    with pytest.raises(CubeError, match=re.escape(repr(point))):
        compute_cube(
            fig1_table, ExecutionOptions(algorithm=name, points=(point,))
        )


def _run_cases():
    """(name, encoding) for every registered algorithm; both kernels of
    the ones that have two."""
    return [
        (name, encoding)
        for name in available()
        for encoding in (
            ("columnar", "dict") if name in COLUMNAR_CAPABLE else ("auto",)
        )
    ]


@pytest.fixture(scope="module")
def two_tables():
    """Two clean tables of different shapes (every algorithm is right on
    them), each with its truthful oracle and serial NAIVE answer."""
    out = []
    for overrides in (
        dict(seed=5, n_facts=200), dict(seed=6, n_facts=300, n_axes=4)
    ):
        workload = small_workload(**overrides)
        table = workload.fact_table()
        naive = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        out.append((table, workload.oracle(table), naive))
    return out


@pytest.mark.parametrize("name, encoding", _run_cases())
class TestStateless:
    """The registry hands out one instance per name, and the serial
    engine path, serving and cluster recomputes share it across threads:
    no algorithm may keep per-run state on ``self``."""

    def test_run_leaves_the_registry_instance_as_it_was(
        self, two_tables, name, encoding
    ):
        algorithm = get_algorithm(name)
        before = dict(vars(algorithm))
        table, oracle, _ = two_tables[0]
        algorithm.run(table, oracle=oracle, encoding=encoding)
        assert vars(algorithm) == before

    def test_concurrent_runs_on_one_instance_equal_naive(
        self, two_tables, name, encoding
    ):
        failures = []
        start = threading.Barrier(len(two_tables))

        def work(table, oracle, naive):
            try:
                start.wait(timeout=60)
                for _ in range(10):
                    result = get_algorithm(name).run(
                        table, oracle=oracle, encoding=encoding
                    )
                    if not result.same_contents(naive):
                        failures.append("wrong cuboid")
            except Exception as exc:  # reported below, with its type
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two runs finely
        try:
            threads = [
                threading.Thread(target=work, args=case) for case in two_tables
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestAuto:
    def test_auto_registered(self):
        assert "AUTO" in available()

    def test_auto_delegates_and_is_correct(self, fig1_table):
        from repro.core.cube import ExecutionOptions, compute_cube
        from repro.core.properties import PropertyOracle

        oracle = PropertyOracle.from_data(fig1_table)
        result = compute_cube(
            fig1_table, ExecutionOptions(algorithm="AUTO", oracle=oracle)
        )
        assert result.algorithm.startswith("AUTO->")
        assert result.same_contents(compute_cube(
            fig1_table, ExecutionOptions(algorithm="NAIVE")
        ))

    def test_auto_with_pessimistic_default(self, fig1_table):
        from repro.core.cube import ExecutionOptions, compute_cube

        result = compute_cube(fig1_table, ExecutionOptions(algorithm="AUTO"))
        assert result.same_contents(compute_cube(
            fig1_table, ExecutionOptions(algorithm="NAIVE")
        ))

    def test_auto_picks_safe_choice_on_clean_data(self):
        from repro.core.cube import ExecutionOptions, compute_cube
        from repro.core.properties import PropertyOracle
        from tests.conftest import small_workload

        table = small_workload(
            n_facts=300, n_axes=5, density="sparse"
        ).fact_table()
        oracle = PropertyOracle.from_flags(table.lattice, True, True)
        result = compute_cube(
            table, ExecutionOptions(algorithm="AUTO", oracle=oracle, memory_entries=500)
        )
        # Sparse, high-dimensional, disjoint: the advisor goes bottom-up.
        assert result.algorithm == "AUTO->BUCOPT"
        assert result.same_contents(compute_cube(
            table, ExecutionOptions(algorithm="NAIVE")
        ))
