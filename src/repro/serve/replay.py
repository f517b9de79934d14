"""The replay workload every serving tool and benchmark drives.

One deterministic request mix (:func:`sample_points`), one deterministic
write plan (:func:`plan_writes`) and the one loop that runs them against
a :class:`~repro.core.query.CubeBackend` (:func:`replay`).  ``x3 serve``,
``x3 serve explain --verify``, ``x3 top``, ``x3 cluster`` and the
replays of ``x3 bench --smoke`` all run through here, so a request mix
means the same thing in every artifact.  What the reads cost is read
back from the backend's request log (:func:`logged_read_seconds`), by
``x3 cluster`` after a replay and by ``x3 server`` after its load run.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.bindings import FactRow
from repro.core.lattice import CubeLattice, LatticePoint
from repro.core.query import CubeBackend, Query, QueryResult

#: Write batches keyed by the request index they precede.
WritePlan = Dict[int, Tuple[str, List[FactRow]]]

#: The request-log record each backend leaves per read.
READ_RECORDS = ("serve.request", "cluster.read")


def sample_points(
    lattice: CubeLattice, n: int, seed: int
) -> List[LatticePoint]:
    """A deterministic skewed request mix: finer points drawn more often
    (dashboards hammer detailed cuboids), with a long tail over the rest.
    """
    points = lattice.topo_finer_first()
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(len(points))]
    return rng.choices(points, weights=weights, k=n)


def plan_writes(
    rows: Sequence[FactRow], requests: int, writes: int
) -> WritePlan:
    """Deterministic write batches keyed by the request index they
    precede: rotating deletes and re-inserts of fact slices."""
    if writes <= 0 or not rows:
        return {}
    batch = max(1, len(rows) // (2 * writes))
    gap = max(1, requests // (writes + 1))
    plan: WritePlan = {}
    removed: List[List[FactRow]] = []
    cursor = 0
    for index in range(writes):
        position = (index + 1) * gap
        if index % 2 == 0:
            slice_rows = list(rows[cursor : cursor + batch])
            cursor += batch
            if not slice_rows:
                break
            removed.append(slice_rows)
            plan[position] = ("delete", slice_rows)
        else:
            plan[position] = ("insert", removed.pop())
    return plan


def replay(
    backend: CubeBackend,
    points: Sequence[LatticePoint],
    writes: Optional[WritePlan] = None,
    *,
    before: Optional[Callable[[int, Query], None]] = None,
    after: Optional[Callable[[int, Query, QueryResult], None]] = None,
) -> None:
    """Run the request mix against ``backend``, applying each planned
    write batch ahead of the request it precedes.

    ``before(index, query)`` sees the backend as the request will find
    it (``explain --verify`` records its prediction there);
    ``after(index, query, result)`` sees the answer (``top --watch``
    redraws, ``cluster --validate`` checks it against serial NAIVE).
    """
    for index, point in enumerate(points):
        if writes and index in writes:
            op, batch = writes[index]
            if op == "delete":
                backend.delete(batch)
            else:
                backend.insert(batch)
        query = Query(point=point)
        if before is not None:
            before(index, query)
        result = backend.query(query)
        if after is not None:
            after(index, query, result)


def logged_read_seconds(backend: CubeBackend) -> List[float]:
    """The modeled latency of every successful read the backend's
    request log still holds, oldest first."""
    return [
        record.sim_seconds
        for record in backend.events.traces()
        if record.name in READ_RECORDS and record.status == "ok"
    ]


def coverage_note(backend: CubeBackend, logged: int, reads: int) -> str:
    """What a latency line adds once the request log's ring has dropped
    reads: its quantiles cover only the ``logged`` of ``reads``."""
    if logged >= reads:
        return ""
    return (
        f" (last {logged} of {reads} reads: the request log keeps"
        f" {backend.events.capacity} records)"
    )
