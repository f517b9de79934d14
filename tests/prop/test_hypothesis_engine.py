"""Property-based tests for the parallel execution engine: on random
``datagen.workload`` configurations, every registered algorithm run
through the engine (any worker count, any pool) produces exactly the
cube the serial NAIVE oracle produces."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms.registry import available
from repro.core.cube import ExecutionOptions, compute_cube
from repro.datagen.workload import WorkloadConfig, build_workload

# Coverage + disjointness hold on these workloads (and the workload
# oracle reports them truthfully), so *every* registered algorithm —
# including the optimized variants that assume the properties — must
# match NAIVE exactly.
ALGORITHMS = tuple(available())
WORKER_COUNTS = (1, 2, 4)


@lru_cache(maxsize=None)
def _prepared(n_facts, n_axes, density, seed):
    config = WorkloadConfig(
        kind="treebank",
        n_facts=n_facts,
        n_axes=n_axes,
        density=density,
        coverage=True,
        disjoint=True,
        seed=seed,
    )
    workload = build_workload(config)
    table = workload.fact_table()
    oracle = workload.oracle(table)
    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    return table, oracle, reference


workload_params = st.tuples(
    st.integers(min_value=5, max_value=60),       # n_facts
    st.integers(min_value=2, max_value=3),        # n_axes
    st.sampled_from(["sparse", "dense"]),         # density
    st.integers(min_value=0, max_value=5),        # seed
)


@given(
    params=workload_params,
    algorithm=st.sampled_from(ALGORITHMS),
    workers=st.sampled_from(WORKER_COUNTS),
)
@settings(max_examples=60, deadline=None)
def test_parallel_engine_matches_serial_naive(params, algorithm, workers):
    table, oracle, reference = _prepared(*params)
    result = compute_cube(
        table,
        ExecutionOptions(
            algorithm=algorithm,
            oracle=oracle,
            workers=workers,
            engine="thread" if workers > 1 else "auto",
        ),
    )
    assert result.same_contents(reference), (
        algorithm,
        workers,
        result.diff(reference)[:3],
    )


@given(params=workload_params)
@settings(max_examples=10, deadline=None)
def test_process_engine_matches_serial_naive(params):
    table, oracle, reference = _prepared(*params)
    result = compute_cube(
        table,
        ExecutionOptions(
            algorithm="BUC",
            oracle=oracle,
            workers=2,
            engine="process",
        ),
    )
    assert result.same_contents(reference), result.diff(reference)[:3]


def test_every_algorithm_every_worker_count_deterministic():
    """Non-random safety net: the full algorithm line-up at every worker
    count on one fixed workload."""
    table, oracle, reference = _prepared(40, 3, "sparse", 42)
    for algorithm in ALGORITHMS:
        for workers in WORKER_COUNTS:
            result = compute_cube(
                table,
                ExecutionOptions(
                    algorithm=algorithm,
                    oracle=oracle,
                    workers=workers,
                ),
            )
            assert result.same_contents(reference), (algorithm, workers)
