"""Fig. 9 — dense cubes, neither property holds.  The paper ran the
optimized variants anyway 'just to see what the running time would be':
BUCOPT/TDOPT buy little despite wrong results, TDOPTALL is very fast
(and wrong), COUNTER is comparable at low dimensions then melts down."""

import pytest

from benchmarks.conftest import bench_once
from repro.core.cube import ExecutionOptions, compute_cube

ALGORITHMS = ["COUNTER", "BUC", "BUCOPT", "TD", "TDOPT", "TDOPTALL"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fig9_algorithm(benchmark, dense_nocov_nodisj, algorithm):
    result = bench_once(benchmark, lambda: dense_nocov_nodisj.run(algorithm))
    benchmark.extra_info["simulated_seconds"] = result.simulated_seconds
    assert result.total_cells() > 0


def test_fig9_shape(dense_nocov_nodisj):
    sim = {name: dense_nocov_nodisj.simulated(name) for name in ALGORITHMS}
    # The wrong-but-timed optimized variants buy little over the safe ones
    # ... except TDOPTALL, which "did very well indeed".
    assert sim["BUCOPT"] > sim["BUC"] / 3
    assert sim["TDOPT"] > sim["TD"] / 10
    assert sim["TDOPTALL"] < sim["TD"] / 10
    assert sim["TDOPTALL"] < sim["BUC"]


def test_fig9_optimized_results_are_wrong(dense_nocov_nodisj):
    reference = compute_cube(
        dense_nocov_nodisj.table, ExecutionOptions(algorithm="NAIVE")
    )
    for name in ("BUCOPT", "TDOPT", "TDOPTALL"):
        assert not dense_nocov_nodisj.run(name).same_contents(reference), (
            f"{name} should be incorrect in the fig9 regime"
        )
    for name in ("COUNTER", "BUC", "TD"):
        assert dense_nocov_nodisj.run(name).same_contents(reference)
