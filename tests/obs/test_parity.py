"""Metrics parity: the registry's totals equal the cost model's counters.

The registry absorbs the run's final merged cost snapshot, so for both
the serial and the parallel engine the unified counters must equal the
``CubeResult.cost`` numbers exactly — no double counting across workers,
no lost partitions.
"""

import pytest

from repro.core.cube import ExecutionOptions, compute_cube
from repro.testing import small_workload

PARITY_FIELDS = (
    ("cpu_ops", "x3_cost_cpu_ops_total"),
    ("page_reads", "x3_cost_page_reads_total"),
    ("page_writes", "x3_cost_page_writes_total"),
)


def _assert_parity(result):
    registry = result.trace.metrics
    cost = result.cost.as_dict()
    for field, metric in PARITY_FIELDS:
        assert registry.total(metric) == pytest.approx(
            float(cost.get(field, 0.0))
        ), f"{metric} != cost.{field}"
    assert registry.total(
        "x3_cost_simulated_seconds_total"
    ) == pytest.approx(result.cost.simulated_seconds)


@pytest.mark.parametrize("algorithm", ["NAIVE", "COUNTER", "BUC", "TD"])
def test_serial_parity(algorithm):
    table = small_workload().fact_table()
    result = compute_cube(
        table, ExecutionOptions(algorithm=algorithm, trace=True)
    )
    _assert_parity(result)


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_parity(workers):
    table = small_workload().fact_table()
    result = compute_cube(
        table,
        ExecutionOptions(
            algorithm="BUC", workers=workers, engine="thread", trace=True
        ),
    )
    assert result.metrics is not None and result.metrics.engine == "thread"
    _assert_parity(result)


def test_process_engine_parity_and_span_propagation():
    """Process workers ship their span batches back on the outcome; the
    parent adopts them into one coherent tree.  A forked child inherits
    the parent's bound span, so this exercises the worker-side session
    bound to the shipped context in ``_run_partition``.  Where the host
    cannot fork, the pool falls back to threads (RuntimeWarning) and the
    copied-context path must produce the same tree shape."""
    import warnings

    table = small_workload().fact_table()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = compute_cube(
            table,
            ExecutionOptions(
                algorithm="BUC", workers=2, engine="process", trace=True
            ),
        )
    _assert_parity(result)
    trace = result.trace
    run = trace.spans_named("engine.run")[0]
    partitions = trace.spans_named("engine.partition")
    assert len(partitions) >= 2
    assert all(p.parent_id == run.span_id for p in partitions)
    ids = {s.span_id for s in trace.records}
    assert len(ids) == len(trace.records)
    assert all(
        s.parent_id == "" or s.parent_id in ids for s in trace.records
    )
    assert "algorithm" in trace.categories()

    # Worker-local counters (sorts, phases) ride back on the outcome and
    # must match an identical thread run, where the shared registry sees
    # them directly.
    threaded = compute_cube(
        table,
        ExecutionOptions(
            algorithm="BUC", workers=2, engine="thread", trace=True
        ),
    )
    # ... and so must the span ids: derived, not allocated, so a worker
    # in another process computes what a pool thread would have.
    assert {s.span_id for s in threaded.trace.records} == ids
    for name in ("x3_sorts_total", "x3_sorted_items_total"):
        assert trace.metrics.total(name) == pytest.approx(
            threaded.trace.metrics.total(name)
        ), name
    assert trace.metrics.total("x3_sorts_total") > 0


def test_parallel_matches_serial_costs():
    """Same totals whether the registry absorbed one or many partitions."""
    table = small_workload().fact_table()
    serial = compute_cube(
        table, ExecutionOptions(algorithm="TD", trace=True)
    )
    parallel = compute_cube(
        table,
        ExecutionOptions(
            algorithm="TD", workers=2, engine="thread", trace=True
        ),
    )
    assert serial.trace.metrics.total(
        "x3_cost_cpu_ops_total"
    ) == pytest.approx(serial.cost.cpu_ops)
    assert parallel.trace.metrics.total(
        "x3_cost_cpu_ops_total"
    ) == pytest.approx(parallel.cost.cpu_ops)
