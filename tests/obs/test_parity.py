"""Count parity: a run's phases do not depend on tracing or the engine.

``CubeResult.phases`` is filled from the run's own execution context
on every run — base scans, placements, roll-ups, sorts by kind — so the
numbers are the same untraced and traced, and a process pool (whose
workers ship their phases back on the partition outcome) counts what a
thread pool counts.  The ``algo.<NAME>`` span carries the same phases
as attrs.  The last test checks the span tree a process pool ships
back: parenting, unique ids, and ids equal to a thread pool's.
"""

import warnings
from contextlib import nullcontext

import pytest

from repro import obs
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.engine.partition import partition_points
from repro.testing import small_workload


def _run(algorithm, trace=False, **options):
    """One cube run; ``trace`` runs it inside an ``obs.trace()`` session
    of its own, whose report is ``result.trace``."""
    table = small_workload().fact_table()
    with warnings.catch_warnings(), (
        obs.trace() if trace else nullcontext()
    ):
        # Where the host cannot fork, the process pool falls back to
        # threads with a RuntimeWarning; the counts must not change.
        warnings.simplefilter("ignore", RuntimeWarning)
        return compute_cube(
            table, ExecutionOptions(algorithm=algorithm, **options)
        )


@pytest.mark.parametrize("algorithm", ["NAIVE", "COUNTER", "BUC", "TD"])
def test_serial_parity(algorithm):
    untraced = _run(algorithm)
    traced = _run(algorithm, trace=True)
    assert untraced.trace is None
    assert untraced.phases
    assert untraced.phases == traced.phases
    (span,) = traced.trace.spans_named(f"algo.{algorithm}")
    assert {k: span.attrs[k] for k in traced.phases} == traced.phases


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_parity(workers):
    untraced = _run("BUC", workers=workers, engine="thread")
    traced = _run("BUC", workers=workers, engine="thread", trace=True)
    assert traced.metrics is not None and traced.metrics.engine == "thread"
    assert untraced.phases == traced.phases
    assert untraced.phases["sorts_counting"] > 0


def test_parallel_matches_serial_costs():
    """The engine's merge sums what its partitions counted: a thread
    run's phases and cost counters equal those of serial runs over the
    same partitions of the lattice."""
    table = small_workload().fact_table()
    parallel = compute_cube(
        table, ExecutionOptions(algorithm="TD", workers=2, engine="thread")
    )
    points = list(table.lattice.points())
    phases, cpu_ops = {}, 0
    for part in partition_points(table.lattice, points, n_partitions=4):
        serial = compute_cube(
            table, ExecutionOptions(algorithm="TD", points=part.points)
        )
        cpu_ops += serial.cost.cpu_ops
        for phase, value in serial.phases.items():
            phases[phase] = phases.get(phase, 0) + value
    assert parallel.phases == phases
    assert parallel.cost.cpu_ops == cpu_ops


@pytest.mark.parametrize("traced", [False, True])
def test_process_engine_parity(traced):
    """Process workers ship their phases back on the outcome; they must
    equal an identical thread run's."""
    process = _run("BUC", workers=2, engine="process", trace=traced)
    thread = _run("BUC", workers=2, engine="thread", trace=traced)
    assert process.phases == thread.phases
    assert process.phases["sorts_counting"] > 0


def test_process_engine_span_propagation():
    """Process workers ship their span batches back on the outcome; the
    parent adopts them into one coherent tree.  A forked child inherits
    the parent's bound span, so this exercises the worker-side session
    bound to the shipped context in ``_run_partition``.  Where the host
    cannot fork, the pool falls back to threads (RuntimeWarning) and the
    copied-context path must produce the same tree shape."""
    trace = _run("BUC", workers=2, engine="process", trace=True).trace
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
    # Span ids are derived, not allocated, so a worker in another
    # process computes what a pool thread would have.
    threaded = _run("BUC", workers=2, engine="thread", trace=True).trace
    assert {s.span_id for s in threaded.records} == ids
