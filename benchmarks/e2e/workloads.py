"""The four workloads and their seeded inputs.

Everything in this module runs before any timer starts: it turns a
``--seed`` into the XML text, the cube query, the serial-NAIVE reference
cube and the fixed op plan one run replays.  The program under test
only ever sees the text, the query and the rows.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.bindings import FactRow, FactTable, GroupKey
from repro.core.cube import CubeResult, ExecutionOptions, compute_cube
from repro.core.lattice import CubeLattice, LatticePoint
from repro.core.query import Query, X3Query
from repro.datagen.workload import WorkloadConfig, build_workload
from repro.xmlmodel.serializer import serialize

#: Catalog name of the one cube the API workloads serve.
CUBE_NAME = "tb"

#: Read-kind mix, the shape of ``repro.server.loadgen.KIND_WEIGHTS``
#: with ``cell`` in place of ``explain`` so every read has an answer to
#: check (explain is timed on its own in the ledger).
KIND_PATTERN: Tuple[str, ...] = (
    ("aggregate",) * 6 + ("slice",) * 2 + ("dice", "cell")
)


@dataclass(frozen=True)
class WorkloadSpec:
    """One row of the workload table (sizes are for ``--scale full``)."""

    name: str
    why: str
    door: str  #: "serve" | "api" | "http" | "cluster"
    density: str
    coverage: bool
    disjoint: bool
    n_axes: int
    facts: int
    zipf: bool  #: 1/rank point skew (as ``sample_queries``) or uniform
    reads: int  #: reads per pass
    write_pairs: int  #: delete/insert pairs per pass
    write_rows: int  #: facts per write batch
    cache_share: float  #: cache budget as a share of the cube's cells
    warm: bool  #: ``warm()`` the cache at set-up


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="xml_to_cube",
        why=(
            "Paper's hardest regime (no coverage, no disjointness): no "
            "roll-up is sound, cache is 10% of the cells, so reads "
            "recompute; stresses xmlmodel, extract, columnar, "
            "algorithms, engine, incremental."
        ),
        door="serve",
        density="sparse",
        coverage=False,
        disjoint=False,
        n_axes=4,
        facts=1200,
        zipf=False,
        reads=140,
        write_pairs=30,
        write_rows=4,
        cache_share=0.10,
        warm=False,
    ),
    WorkloadSpec(
        name="api_hot",
        why=(
            "Working set fits the warmed cache: the engine is "
            "bypassed and X3Api.handle's time is X3QL compile, "
            "admission, ladder hit, envelope, JSON encode; the serve "
            "layer used the opposite way from xml_to_cube."
        ),
        door="api",
        density="dense",
        coverage=True,
        disjoint=True,
        n_axes=6,
        facts=1800,
        zipf=True,
        reads=57,
        write_pairs=2,
        write_rows=4,
        cache_share=2.0,
        warm=True,
    ),
    WorkloadSpec(
        name="http_keepalive",
        why=(
            "Same table, catalog, warm-up and plan as api_hot over one "
            "keep-alive loopback connection: only the transport "
            "differs, so the gap to api_hot is the socket cost "
            "(the delayed-ACK stall)."
        ),
        door="http",
        density="dense",
        coverage=True,
        disjoint=True,
        n_axes=6,
        facts=1800,
        zipf=True,
        reads=57,
        write_pairs=2,
        write_rows=4,
        cache_share=2.0,
        warm=True,
    ),
    WorkloadSpec(
        name="cluster_scatter",
        why=(
            "Only workload where scatter, hedging, version vectors and "
            "core.merge run and shard servers answer from the rollup "
            "rung (sound here, unsound in xml_to_cube); guards the "
            "second backend."
        ),
        door="cluster",
        density="dense",
        coverage=True,
        disjoint=True,
        n_axes=6,
        facts=4000,
        zipf=True,
        reads=160,
        write_pairs=20,
        write_rows=4,
        cache_share=0.25,
        warm=False,
    ),
)

SCALES = ("full", "tiny")

#: Seeds the one fixed shuffle of the reads (see :func:`build_plan`).
_ORDER_SEED = 20070415

#: ``--scale tiny`` (the smoke test): the same shape, a sliver of data.
_TINY_FACTS = 60
_TINY_DIVISOR = 10


def spec_by_name(name: str) -> WorkloadSpec:
    for spec in WORKLOADS:
        if spec.name == name:
            return spec
    raise KeyError(
        f"unknown workload {name!r}; choose from "
        f"{[spec.name for spec in WORKLOADS]}"
    )


# ----------------------------------------------------------------------
# the op plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReadOp:
    """One read, door-neutral: the doors render it to their wire form."""

    point: LatticePoint
    described: str
    kind: str  #: aggregate | slice | dice | cell
    text: bool  #: X3QL text (API doors) instead of the JSON route
    axis: Optional[str] = None  #: slice/dice axis name (``"$m1"``)
    values: Tuple[str, ...] = ()  #: slice value / dice allowed values
    key: Optional[GroupKey] = None  #: cell key

    def query(self) -> Query:
        """The backend request this read denotes."""
        if self.kind == "slice":
            return Query(
                self.described,
                kind="slice",
                axis=self.axis,
                value=self.values[0],
            )
        if self.kind == "dice":
            assert self.axis is not None
            return Query(
                self.described,
                kind="dice",
                filters=((self.axis, self.values),),
            )
        if self.kind == "cell":
            return Query(self.described, kind="cell", key=self.key)
        return Query(self.described)

    def canonical(self) -> List[Any]:
        return [
            "read", self.described, self.kind, self.text, self.axis,
            list(self.values), None if self.key is None else list(self.key),
        ]


@dataclass(frozen=True)
class WriteOp:
    """One ``delete(rows)`` or ``insert(rows)`` call on the backend."""

    op: str  #: "delete" | "insert"
    rows: Tuple[FactRow, ...]

    def canonical(self) -> List[Any]:
        return [self.op, [list(row.fact_id) for row in self.rows]]


Op = Any  # ReadOp | WriteOp


@dataclass
class Inputs:
    """Everything one run needs, generated from the seed."""

    spec: WorkloadSpec
    scale: str
    seed: int
    xml_text: str
    x3_query: X3Query
    lattice: CubeLattice
    reference: CubeResult  #: serial NAIVE over the generated facts
    rows: List[FactRow]  #: generation-side rows (write batches, operands)
    cache_cells: int
    plan: Tuple[Op, ...]
    plan_digest: str

    @property
    def facts(self) -> int:
        return len(self.rows)

    def reads(self) -> List[int]:
        """Plan slots holding reads."""
        return [
            slot
            for slot, op in enumerate(self.plan)
            if isinstance(op, ReadOp)
        ]

    def writes(self) -> List[int]:
        return [
            slot
            for slot, op in enumerate(self.plan)
            if isinstance(op, WriteOp)
        ]


def _quotas(weights: Sequence[float], total: int) -> List[int]:
    """Largest-remainder apportionment of ``total`` over ``weights``.

    The plan's *composition* is a property of the workload, not of the
    seed: every seed issues exactly the same number of reads per lattice
    point, and only their order and operands change.  (An i.i.d. draw
    moves a percentile whenever the sample happens to shift a few reads
    across a latency cluster boundary — noise that says nothing about
    the program.)
    """
    scale = total / sum(weights)
    exact = [weight * scale for weight in weights]
    counts = [int(value) for value in exact]
    by_remainder = sorted(
        range(len(weights)),
        key=lambda index: (counts[index] - exact[index], index),
    )
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return counts


def build_plan(
    spec: WorkloadSpec,
    table: FactTable,
    seed: int,
    reads: int,
    write_pairs: int,
) -> Tuple[Op, ...]:
    """The fixed op sequence one pass replays.

    Points are weighted exactly like ``sample_queries`` (1/rank over
    ``topo_finer_first``) on the skewed workloads and uniformly on
    ``xml_to_cube``; kinds cycle through :data:`KIND_PATTERN`; on the
    API doors every other read is X3QL text.  Writes are
    ``delete(batch)`` / ``insert(batch)`` pairs over seeded batches of
    existing facts, each pair adjacent-in-time so at most one batch is
    out and every pass ends on the fact set it started from.

    The seed draws the operands and the write batches (and, before
    this, the data).  The *order* of the reads is one fixed shuffle,
    the same for every seed: where the cache is marginal
    (``cluster_scatter``) another order is another eviction trajectory
    — a ±10 % swing in ``read_p50_ms`` between seeds that says nothing
    about the program.
    """
    lattice = table.lattice
    rng = random.Random(seed)
    points = lattice.topo_finer_first()
    weights = [
        1.0 / (rank + 1) if spec.zipf else 1.0
        for rank in range(len(points))
    ]
    read_ops: List[ReadOp] = []
    turn = 0
    for point, count in zip(points, _quotas(weights, reads)):
        for _ in range(count):
            kind = KIND_PATTERN[turn % len(KIND_PATTERN)]
            text = spec.door in ("api", "http") and (
                turn // len(KIND_PATTERN)
            ) % 2 == 0
            turn += 1
            read_ops.append(_read_op(table, point, kind, text, rng))
    random.Random(_ORDER_SEED).shuffle(read_ops)

    # Disjoint batches, so overlapping pairs never delete a fact twice.
    held_out = rng.sample(table.rows, write_pairs * spec.write_rows)
    batches = [
        tuple(held_out[start:start + spec.write_rows])
        for start in range(0, len(held_out), spec.write_rows)
    ]
    plan: List[Op] = list(read_ops)
    # Spread the pairs evenly; each insert follows its delete two reads
    # later, so some reads land on the version with the batch out.
    # Placed back to front so earlier positions stay valid.
    stride = max(1, len(plan) // write_pairs)
    for index in reversed(range(write_pairs)):
        at = min(len(plan), index * stride + stride // 2)
        plan.insert(min(len(plan), at + 2), WriteOp("insert", batches[index]))
        plan.insert(at, WriteOp("delete", batches[index]))
    return tuple(plan)


def _read_op(
    table: FactTable,
    point: LatticePoint,
    kind: str,
    text: bool,
    rng: random.Random,
) -> ReadOp:
    lattice = table.lattice
    described = lattice.describe(point)
    kept = lattice.kept_axes(point)
    key: Optional[GroupKey] = None
    if kept and kind != "aggregate":
        # Operands come from a fact that really is in the cuboid, so
        # slices, dices and cells have non-empty answers to check.
        for _ in range(64):
            keys = table.key_combinations(rng.choice(table.rows), point)
            if keys:
                key = keys[0]
                break
    if key is None:
        return ReadOp(point, described, "aggregate", text)
    if kind == "cell":
        return ReadOp(point, described, "cell", text, key=key)
    position = rng.randrange(len(kept))
    axis = lattice.axes[kept[position]].name
    value = key[position]
    assert value is not None
    if kind == "slice":
        return ReadOp(
            point, described, "slice", text, axis=axis, values=(value,)
        )
    other = table.key_combinations(rng.choice(table.rows), point)
    values = {value}
    if other and other[0][position] is not None:
        values.add(other[0][position])
    return ReadOp(
        point, described, "dice", text, axis=axis,
        values=tuple(sorted(values)),
    )


def plan_digest(plan: Sequence[Op]) -> str:
    payload = json.dumps([op.canonical() for op in plan])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def build_inputs(spec: WorkloadSpec, scale: str, seed: int) -> Inputs:
    """Generate one run's inputs (``repro.datagen`` + serialisation +
    NAIVE reference + plan sampling — all before any timer)."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    tiny = scale == "tiny"
    config = WorkloadConfig(
        kind="treebank",
        n_facts=_TINY_FACTS if tiny else spec.facts,
        n_axes=spec.n_axes,
        density=spec.density,
        coverage=spec.coverage,
        disjoint=spec.disjoint,
        seed=seed,
    )
    workload = build_workload(config)
    xml_text = serialize(workload.documents[0])
    table = workload.fact_table()
    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    divisor = _TINY_DIVISOR if tiny else 1
    plan = build_plan(
        spec,
        table,
        seed,
        reads=max(10, spec.reads // divisor),
        write_pairs=max(1, spec.write_pairs // divisor),
    )
    return Inputs(
        spec=spec,
        scale=scale,
        seed=seed,
        xml_text=xml_text,
        x3_query=workload.query,
        lattice=table.lattice,
        reference=reference,
        rows=list(table.rows),
        cache_cells=max(
            1, int(spec.cache_share * reference.total_cells())
        ),
        plan=plan,
        plan_digest=plan_digest(plan),
    )


# ----------------------------------------------------------------------
# the independent answer check
# ----------------------------------------------------------------------
def expected_payload(
    lattice: CubeLattice,
    cuboid: Dict[GroupKey, float],
    op: ReadOp,
) -> Any:
    """What serial NAIVE says ``op`` must return, given NAIVE's cuboid
    at the op's point: a ``{key: value}`` mapping, or a cell value."""
    if op.kind == "aggregate":
        return dict(cuboid)
    if op.kind == "cell":
        return cuboid.get(op.key)
    kept = lattice.kept_axes(op.point)
    names = [lattice.axes[position].name for position in kept]
    index = names.index(op.axis)
    if op.kind == "slice":
        return {
            key[:index] + key[index + 1:]: value
            for key, value in cuboid.items()
            if key[index] == op.values[0]
        }
    return {
        key: value
        for key, value in cuboid.items()
        if key[index] in op.values
    }
