"""The engine proper: partition, dispatch, run, merge.

``execute`` is what :func:`repro.core.cube.compute_cube` calls.  One
worker (or a one-point lattice) takes the deterministic serial path —
the registered algorithm runs exactly as it always has, so serial results
and costs are bit-identical to the pre-engine code.  More workers fan the
partitions out over ``concurrent.futures`` pools:

- ``thread``: cheap dispatch, shared memory; the GIL serializes pure
  Python, so wall-clock gains need multiple cores mostly for the I/O-ish
  parts — but the *modeled* speedup (cost-model critical path) is exact
  either way.
- ``process``: true parallelism at the price of forking and pickling the
  fact table once per worker; wins for CPU-bound cubes on multi-core
  hosts.  Falls back to threads (with a ``RuntimeWarning``) where the
  host cannot create worker processes.

Every partition is an ordinary ``algorithm.run(points=...)`` call, so any
registered algorithm — including AUTO's delegation — parallelizes without
knowing about the engine.

Observability (:mod:`repro.obs`): when a recording span is bound — an
``obs.trace()`` session or a sampled request trace — the run produces
one coherent span tree (``engine.run`` > ``engine.plan`` /
``engine.partition`` / ``engine.merge``, with algorithm and sort spans
nested under each partition).  Thread workers run in a copy of the
dispatcher's context and report into the same trace directly; process
workers bind a local session to the ``engine.run`` span's context, and
their (picklable) spans ride back on the :class:`PartitionOutcome` to be
adopted as-is.  The report is attached as ``result.trace``.  Counts
never travel through the trace: each partition's ``CubeResult.phases``
rides back on its outcome like its cuboids, and the merge sums them.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from contextvars import copy_context
from functools import partial
from typing import List, Optional, Tuple

from repro import obs
from repro.core.bindings import FactTable
from repro.core.cube import CubeResult, ExecutionOptions
from repro.core.engine.merge import (
    PartitionOutcome,
    merge_costs,
    merge_cuboids,
    merge_passes,
    merged_algorithm_name,
    sum_counts,
)
from repro.core.engine.metrics import EngineMetrics, PartitionStats
from repro.core.engine.partition import (
    Partition,
    partition_cut_edges,
    partition_points,
)
from repro.core.lattice import LatticePoint
from repro.core.properties import PropertyOracle

PARTITIONS_PER_WORKER = 2
"""Oversubscription factor: more partitions than workers lets the pool
rebalance when partitions turn out unequal."""


def _worker_id() -> str:
    thread = threading.current_thread()
    if thread is threading.main_thread():
        return f"pid-{os.getpid()}"
    return f"pid-{os.getpid()}/{thread.name}"


def _run_partition(
    table: FactTable,
    partition_index: int,
    algorithm: str,
    oracle: Optional[PropertyOracle],
    memory_entries: Optional[int],
    min_support: float,
    encoding: str,
    points: Tuple[LatticePoint, ...],
    submitted_at: float,
    remote: Optional[obs.TraceContext] = None,
) -> PartitionOutcome:
    """One partition, run by whichever worker picks it up.

    Module-level so process pools can pickle it; clocks use
    ``time.monotonic`` (system-wide on Linux) so queue wait is comparable
    across processes.

    Tracing: a thread worker runs in a copy of the dispatcher's context,
    so the partition span lands in the parent trace directly, under the
    bound ``engine.run`` span.  A process worker gets that span's
    context as ``remote`` and records into a local session bound to it
    (a *forked* child also inherits the parent's binding, but recording
    into that copy would be lost with the process); its spans are
    returned in the outcome for the parent to take over.
    The partition's span id is keyed by its index, so it is the same
    either way.
    """
    from repro.core.algorithms.registry import get_algorithm

    with (
        obs.trace(remote=remote) if remote is not None else nullcontext()
    ) as local:
        started = time.monotonic()
        with obs.span(
            "engine.partition",
            category="engine",
            key=f"p{partition_index}",
            index=partition_index,
            points=len(points),
        ) as span:
            result = get_algorithm(algorithm).run(
                table,
                oracle=oracle,
                memory_entries=memory_entries,
                points=list(points),
                min_support=min_support,
                encoding=encoding,
            )
            span.annotate(sim_seconds=result.cost.simulated_seconds)
    spans = tuple(local.records()) if local is not None else ()
    finished = time.monotonic()
    return PartitionOutcome(
        index=partition_index,
        points=len(points),
        cuboids=result.cuboids,
        cost=result.cost.as_dict(),
        passes=result.passes,
        algorithm=result.algorithm,
        worker=_worker_id(),
        queue_wait_seconds=max(0.0, started - submitted_at),
        wall_seconds=finished - started,
        phases=result.phases,
        spans=spans,
    )


def _serial_result(
    table: FactTable,
    options: ExecutionOptions,
    points: List[LatticePoint],
    total_begin: float,
) -> CubeResult:
    """The deterministic fallback: one direct algorithm run."""
    from repro.core.algorithms.registry import get_algorithm

    result = get_algorithm(options.algorithm).run(
        table,
        oracle=options.oracle,
        memory_entries=options.memory_entries,
        points=points,
        min_support=options.min_support,
        encoding=options.encoding,
    )
    wall = time.perf_counter() - total_begin
    result.metrics = EngineMetrics(
        engine="serial",
        requested_workers=options.workers,
        workers_used=1,
        partitions=(
            PartitionStats(
                index=0,
                points=len(points),
                weight=float(len(points)),
                worker="serial",
                queue_wait_seconds=0.0,
                wall_seconds=result.cost.wall_seconds,
                simulated_seconds=result.cost.simulated_seconds,
            ),
        ),
        cut_edges=0,
        partition_seconds=0.0,
        merge_seconds=0.0,
        total_wall_seconds=wall,
    )
    return result


def _make_pool(engine: str, max_workers: int) -> Executor:
    if engine == "process":
        try:
            pool = ProcessPoolExecutor(max_workers=max_workers)
            # Surface broken multiprocessing (sandboxes without /dev/shm,
            # missing sem_open) now, not at first submit.
            pool.submit(os.getpid).result()
            return pool
        except (OSError, PermissionError, RuntimeError) as error:
            warnings.warn(
                f"process pool unavailable ({error}); falling back to "
                f"threads",
                RuntimeWarning,
                stacklevel=3,
            )
    return ThreadPoolExecutor(
        max_workers=max_workers, thread_name_prefix="x3-engine"
    )


def execute(table: FactTable, options: ExecutionOptions) -> CubeResult:
    """Run one cube computation under the given options.

    With nothing recording (no bound span) the run allocates no spans
    and ``result.trace`` stays ``None``.  Inside an ``obs.trace()``
    session the run joins it, and ``result.trace`` is the session's
    report.
    """
    result = _execute(table, options)
    session = obs.session()
    if session is not None:
        result.trace = session.trace()
    return result


def _execute(table: FactTable, options: ExecutionOptions) -> CubeResult:
    total_begin = time.perf_counter()
    points: List[LatticePoint] = (
        list(options.points)
        if options.points is not None
        else list(table.lattice.points())
    )
    engine = options.effective_engine
    if engine == "serial" or options.workers <= 1 or len(points) <= 1:
        with obs.span(
            "engine.run",
            category="engine",
            engine="serial",
            algorithm=options.algorithm,
            points=len(points),
        ):
            return _serial_result(table, options, points, total_begin)

    with obs.span(
        "engine.run",
        category="engine",
        engine=engine,
        algorithm=options.algorithm,
        workers=options.workers,
        points=len(points),
    ) as run_span:
        lattice = table.lattice
        partition_begin = time.perf_counter()
        with obs.span("engine.plan", category="engine"):
            partitions: List[Partition] = partition_points(
                lattice,
                points,
                n_partitions=min(
                    len(points), options.workers * PARTITIONS_PER_WORKER
                ),
            )
            cut_edges = partition_cut_edges(
                lattice, [list(part.points) for part in partitions]
            )
        partition_seconds = time.perf_counter() - partition_begin

        max_workers = min(options.workers, len(partitions))
        outcomes: List[PartitionOutcome] = []
        submit_offsets: List[float] = []
        pool = _make_pool(engine, max_workers)
        # Threads inherit the binding through a context copy; processes
        # cannot, so they get the run span's context in the payload.
        in_processes = isinstance(pool, ProcessPoolExecutor)
        remote = (
            run_span.context if in_processes and run_span.enabled else None
        )
        try:
            futures = []
            for part in partitions:
                submit_offsets.append(run_span.now())
                futures.append(
                    pool.submit(
                        _run_partition
                        if in_processes
                        else partial(copy_context().run, _run_partition),
                        table,
                        part.index,
                        options.algorithm,
                        options.oracle,
                        options.memory_entries,
                        options.min_support,
                        options.encoding,
                        part.points,
                        time.monotonic(),
                        remote,
                    )
                )
            outcomes = [future.result() for future in futures]
        finally:
            pool.shutdown(wait=True)

        # Take over what process workers shipped back (thread workers
        # recorded into this trace already and ship nothing).
        for offset, outcome in zip(submit_offsets, outcomes):
            run_span.adopt(
                outcome.spans, shift=offset + outcome.queue_wait_seconds
            )

        merge_begin = time.perf_counter()
        with obs.span(
            "engine.merge", category="engine", partitions=len(outcomes)
        ):
            cuboids = merge_cuboids(outcomes)
        merge_seconds = time.perf_counter() - merge_begin
        total_wall = time.perf_counter() - total_begin
        cost = merge_costs(outcomes, merge_seconds, total_wall, max_workers)

        by_index = {outcome.index: outcome for outcome in outcomes}
        stats = tuple(
            PartitionStats(
                index=part.index,
                points=len(part.points),
                weight=part.weight,
                worker=by_index[part.index].worker,
                queue_wait_seconds=by_index[part.index].queue_wait_seconds,
                wall_seconds=by_index[part.index].wall_seconds,
                simulated_seconds=by_index[part.index].simulated_seconds,
            )
            for part in partitions
        )
        metrics = EngineMetrics(
            engine=engine,
            requested_workers=options.workers,
            workers_used=len({outcome.worker for outcome in outcomes}),
            partitions=stats,
            cut_edges=cut_edges,
            partition_seconds=partition_seconds,
            merge_seconds=merge_seconds,
            total_wall_seconds=total_wall,
        )
        run_span.annotate(
            sim_seconds=cost.simulated_seconds,
            speedup=round(cost.speedup_estimate, 4),
        )
        return CubeResult(
            lattice=lattice,
            cuboids=cuboids,
            algorithm=merged_algorithm_name(outcomes),
            cost=cost,
            passes=merge_passes(outcomes),
            aggregate=table.aggregate.function.upper(),
            phases=sum_counts(outcome.phases for outcome in outcomes),
            metrics=metrics,
        )
