"""Fig. 10 — the DBLP experiment: cube article by /author, /month,
/year, /journal with the full algorithm line-up, properties derived from
the DBLP DTD (Sec. 4.5)."""

import pytest

from benchmarks.conftest import bench_once
from repro.core.cube import ExecutionOptions, compute_cube

ALGORITHMS = [
    "COUNTER", "BUC", "BUCOPT", "BUCCUST", "TD", "TDOPT", "TDOPTALL",
    "TDCUST",
]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fig10_algorithm(benchmark, dblp, algorithm):
    result = bench_once(benchmark, lambda: dblp.run(algorithm))
    benchmark.extra_info["simulated_seconds"] = result.simulated_seconds
    assert result.total_cells() > 0


def test_fig10_shape(dblp):
    sim = {name: dblp.simulated(name) for name in ALGORITHMS}
    # "The DBLP cube is dense, and the dimension number is low (4), so it
    # is not a surprise the COUNTER wins."
    assert sim["COUNTER"] == min(sim.values())
    # "BUCCUST has performance significantly better than BUC" while
    # remaining correct, "which the even faster BUCOPT does not".
    assert sim["BUCOPT"] <= sim["BUCCUST"] <= sim["BUC"]
    # "TDCUST does a little better than TD, but not as well as TDOPT,
    # let alone TDOPTALL".
    assert sim["TDCUST"] < sim["TD"]
    assert sim["TDOPT"] < sim["TDCUST"]
    assert sim["TDOPTALL"] <= sim["TDOPT"] * 1.5


def test_fig10_correctness_split(dblp):
    reference = compute_cube(dblp.table, ExecutionOptions(algorithm="NAIVE"))
    correct = {"COUNTER", "BUC", "BUCCUST", "TD", "TDCUST"}
    for name in ALGORITHMS:
        matches = dblp.run(name).same_contents(reference)
        assert matches == (name in correct), name
