"""Cube results, execution options and the ``compute_cube`` entry point.

The one public way to run a cube computation is::

    options = ExecutionOptions(algorithm="BUC", workers=4, engine="thread")
    result = compute_cube(table, options)

:class:`ExecutionOptions` is the single options object threaded through
``compute_cube``, :class:`repro.warehouse.CubeSession`, the bench harness
and both CLIs.

Cost accounting is typed: :class:`CubeResult.cost` is a
:class:`CostSnapshot` (page I/O, CPU ops, simulated and wall seconds,
plus a per-worker breakdown when the parallel engine ran); read its
attributes, or :meth:`CostSnapshot.as_dict` for a flat mapping.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine.metrics import EngineMetrics
    from repro.obs import Trace

from repro.core.bindings import FactTable, GroupKey
from repro.core.lattice import CubeLattice, LatticePoint
from repro.core.packed import PackedCuboid, pack
from repro.core.properties import PropertyOracle
from repro.errors import CubeError

ENGINE_CHOICES = ("auto", "serial", "thread", "process")
ENCODING_CHOICES = ("auto", "columnar", "dict")


# ----------------------------------------------------------------------
# execution options
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionOptions:
    """Everything one cube run needs, in one immutable object.

    Attributes:
        algorithm: registered algorithm name (see
            :func:`repro.core.algorithms.registry.available`).
        oracle: property oracle for the optimized/customized variants;
            ``None`` means the pessimistic oracle (no property assumed).
        memory_entries: operator memory budget in entries (``None`` uses
            the default budget).
        points: restrict computation to these lattice points (``None``
            means the whole lattice); normalized to a tuple.
        min_support: iceberg threshold — only groups with COUNT >= this
            value are reported (COUNT cubes only).
        workers: worker pool size for the parallel engine; ``1`` runs the
            deterministic serial path.
        engine: ``"auto"`` | ``"serial"`` | ``"thread"`` | ``"process"``.
            ``auto`` resolves to ``serial`` for one worker and ``thread``
            otherwise (see :mod:`repro.core.engine`).
        encoding: which physical fact representation the algorithm
            iterates — ``"auto"`` lets each algorithm pick its fastest
            path (the BUC/TD families run on the dictionary-encoded
            columns), ``"columnar"`` asks for the encoded path
            explicitly, and ``"dict"`` forces the legacy
            :class:`~repro.core.bindings.FactRow` path (what the
            columnar-vs-dict duels and cross-checks pin).  Algorithms
            with a single physical path (NAIVE, COUNTER, COLUMNAR)
            ignore it.
    """

    algorithm: str = "NAIVE"
    oracle: Optional[PropertyOracle] = None
    memory_entries: Optional[int] = None
    points: Optional[Tuple[LatticePoint, ...]] = None
    min_support: float = 0.0
    workers: int = 1
    engine: str = "auto"
    encoding: str = "auto"

    def __post_init__(self) -> None:
        if self.points is not None and not isinstance(self.points, tuple):
            object.__setattr__(self, "points", tuple(self.points))
        if self.workers < 1:
            raise CubeError(f"workers must be >= 1, got {self.workers}")
        if self.engine not in ENGINE_CHOICES:
            raise CubeError(
                f"unknown engine {self.engine!r}; choose from "
                f"{ENGINE_CHOICES}"
            )
        if self.encoding not in ENCODING_CHOICES:
            raise CubeError(
                f"unknown encoding {self.encoding!r}; choose from "
                f"{ENCODING_CHOICES}"
            )

    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "ExecutionOptions":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    @property
    def effective_engine(self) -> str:
        """The engine ``"auto"`` resolves to for this worker count."""
        if self.engine != "auto":
            return self.engine
        return "serial" if self.workers <= 1 else "thread"


# ----------------------------------------------------------------------
# cost accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerCost:
    """One worker's share of a parallel run."""

    worker: str
    partitions: int
    points: int
    wall_seconds: float
    simulated_seconds: float
    queue_wait_seconds: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "worker": self.worker,
            "partitions": self.partitions,
            "points": self.points,
            "wall_seconds": self.wall_seconds,
            "simulated_seconds": self.simulated_seconds,
            "queue_wait_seconds": self.queue_wait_seconds,
        }


@dataclass(frozen=True)
class CostSnapshot:
    """Typed cost-model snapshot of one cube run.

    ``simulated_seconds`` is the total simulated work summed over all
    partitions; ``parallel_simulated_seconds`` is the critical path under
    the worker schedule that actually ran (equal to ``simulated_seconds``
    for serial runs), so ``simulated_seconds / parallel_simulated_seconds``
    is the modeled speedup.
    """

    cpu_ops: int = 0
    page_reads: int = 0
    page_writes: int = 0
    simulated_seconds: float = 0.0
    wall_seconds: float = 0.0
    merge_seconds: float = 0.0
    parallel_simulated_seconds: float = 0.0
    workers: Tuple[WorkerCost, ...] = ()

    _INT_FIELDS = ("cpu_ops", "page_reads", "page_writes")
    _FLOAT_FIELDS = (
        "simulated_seconds",
        "wall_seconds",
        "merge_seconds",
        "parallel_simulated_seconds",
    )

    def __post_init__(self) -> None:
        if self.parallel_simulated_seconds == 0.0 and self.simulated_seconds:
            object.__setattr__(
                self, "parallel_simulated_seconds", self.simulated_seconds
            )

    # ------------------------------------------------------------------
    @property
    def total_io(self) -> int:
        return self.page_reads + self.page_writes

    @property
    def speedup_estimate(self) -> float:
        """Modeled speedup: total simulated work over the critical path."""
        if self.parallel_simulated_seconds <= 0.0:
            return 1.0
        return self.simulated_seconds / self.parallel_simulated_seconds

    # ------------------------------------------------------------------
    @staticmethod
    def from_mapping(
        data: Mapping[str, float], wall_seconds: float = 0.0
    ) -> "CostSnapshot":
        """Build from a :meth:`repro.cost.CostModel.snapshot`."""
        kwargs: Dict[str, Any] = {}
        for name in CostSnapshot._INT_FIELDS:
            if name in data:
                kwargs[name] = int(data[name])
        for name in CostSnapshot._FLOAT_FIELDS:
            if name in data:
                kwargs[name] = float(data[name])
        if wall_seconds:
            kwargs["wall_seconds"] = wall_seconds
        return CostSnapshot(**kwargs)

    def as_dict(self) -> Dict[str, float]:
        """Flat mapping for the CSV writers (per-worker rows excluded)."""
        out: Dict[str, float] = {}
        for name in self._INT_FIELDS + self._FLOAT_FIELDS:
            out[name] = getattr(self, name)
        out["n_workers"] = len(self.workers)
        return out


def _coerce_cost(
    cost: Union[CostSnapshot, Mapping[str, float], None]
) -> CostSnapshot:
    if cost is None:
        return CostSnapshot()
    if isinstance(cost, CostSnapshot):
        return cost
    return CostSnapshot.from_mapping(cost)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class CubeResult:
    """The full cube: one cuboid per lattice point, plus run metadata.

    Attributes:
        lattice: the lattice the cube was computed over.
        cuboids: point -> (group key -> aggregate value), each a
            read-only :class:`~repro.core.packed.PackedCuboid` in wire
            order.  Every algorithm packs its cuboids itself; any other
            mapping given here is packed on construction.
        algorithm: name of the algorithm that produced it.
        cost: typed cost snapshot taken right after the run.
        passes: number of data passes (COUNTER reports thrashing here).
        phases: the run's phase counters — base scans, partition calls,
            placements, roll-ups, sorts by kind (``sorts_<kind>`` /
            ``sorted_items_<kind>``), ... — summed over partitions when
            the parallel engine ran; filled on every run, traced or
            not.  A phase the run never reached is absent.
        metrics: engine-level metrics — partitioning, queue wait and
            merge when the parallel engine ran, one partition under
            ``engine="serial"`` otherwise.  Every :func:`compute_cube`
            result has them; only a result an algorithm's ``run``
            returns directly has ``None``.
        trace: the run's span forest when it ran inside an
            ``obs.trace()`` session; ``None`` otherwise.  It carries
            time, not counts: those are :attr:`cost` and :attr:`phases`.
    """

    lattice: CubeLattice
    cuboids: Dict[LatticePoint, PackedCuboid]
    algorithm: str = ""
    cost: CostSnapshot = field(default_factory=CostSnapshot)
    passes: int = 1
    aggregate: str = "COUNT"
    phases: Dict[str, float] = field(default_factory=dict)
    metrics: Optional["EngineMetrics"] = None
    trace: Optional["Trace"] = None

    def __post_init__(self) -> None:
        self.cost = _coerce_cost(self.cost)
        self.cuboids = {
            point: pack(cuboid) for point, cuboid in self.cuboids.items()
        }

    # ------------------------------------------------------------------
    def cuboid(self, point: LatticePoint) -> PackedCuboid:
        try:
            return self.cuboids[point]
        except KeyError:
            raise CubeError(
                f"no cuboid at {self.lattice.describe(point)}"
            ) from None

    def cuboid_by_description(self, text: str) -> PackedCuboid:
        return self.cuboid(self.lattice.point_by_description(text))

    def cell(self, point: LatticePoint, key: GroupKey) -> Optional[float]:
        return self.cuboids.get(point, {}).get(key)

    def total_cells(self) -> int:
        return sum(len(cuboid) for cuboid in self.cuboids.values())

    @property
    def simulated_seconds(self) -> float:
        return self.cost.simulated_seconds

    @property
    def wall_seconds(self) -> float:
        return self.cost.wall_seconds

    # ------------------------------------------------------------------
    def same_contents(self, other: "CubeResult", tol: float = 1e-9) -> bool:
        """Value equality of every cuboid (used to validate algorithms):
        the same points, the same keys, values within ``tol``."""
        return self.cuboids.keys() == other.cuboids.keys() and not any(
            left is None or right is None or abs(left - right) > tol
            for point, cuboid in self.cuboids.items()
            for _, left, right in _differences(cuboid, other.cuboids[point])
        )

    def diff(self, other: "CubeResult") -> List[str]:
        """Human-readable differences (first few) for test messages."""
        out: List[str] = []
        empty = pack({})
        for point in sorted(set(self.cuboids) | set(other.cuboids)):
            mine = self.cuboids.get(point, empty)
            theirs = other.cuboids.get(point, empty)
            for key, left, right in _differences(mine, theirs):
                out.append(
                    f"{self.lattice.describe(point)} {key}: {left} != {right}"
                )
                if len(out) >= 10:
                    return out
        return out

    def summary(self) -> str:
        return (
            f"{self.algorithm}: {len(self.cuboids)} cuboids, "
            f"{self.total_cells()} cells, "
            f"{self.simulated_seconds:.3f} sim-s, passes={self.passes}"
        )


def _differences(
    mine: PackedCuboid, theirs: PackedCuboid
) -> Iterator[Tuple[GroupKey, Optional[float], Optional[float]]]:
    """``(key, mine, theirs)`` for every key whose values differ, in key
    order, ``None`` where a side lacks the key: one merge of the two
    cuboids' items, which both yield in key order."""
    left, right = iter(mine.items()), iter(theirs.items())
    a, b = next(left, None), next(right, None)
    while a is not None and b is not None:
        if a[0] < b[0]:
            yield a[0], a[1], None
            a = next(left, None)
        elif b[0] < a[0]:
            yield b[0], None, b[1]
            b = next(right, None)
        else:
            if a[1] != b[1]:
                yield a[0], a[1], b[1]
            a, b = next(left, None), next(right, None)
    if a is not None:
        yield from ((key, value, None) for key, value in chain([a], left))
    if b is not None:
        yield from ((key, None, value) for key, value in chain([b], right))


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def compute_cube(
    table: FactTable, options: Optional[ExecutionOptions] = None
) -> CubeResult:
    """Compute the cube of an extracted fact table::

        compute_cube(table, ExecutionOptions(algorithm="BUC", workers=4))

    ``options`` defaults to ``ExecutionOptions()`` (serial NAIVE over
    the whole lattice).
    """
    if options is None:
        options = ExecutionOptions()
    elif not isinstance(options, ExecutionOptions):
        raise CubeError(
            f"compute_cube takes ExecutionOptions, got {options!r}"
        )

    from repro.core.engine import execute

    return execute(table, options)
