"""The X^3 query objects: the cube specification and the serving API.

Two layers live here:

- :class:`X3Query` — the structured form of the paper's augmented FLWOR
  expression (Query 1).  It knows how to render itself back to that
  syntax, how to build its cube lattice, and how to build the grouping
  tree pattern (rigid and most-relaxed) that Sec. 2 defines.
- The **unified serving API**: one frozen :class:`Query` request, one
  :class:`QueryResult` envelope, and :class:`CubeBackend`, the read
  core both runtime surfaces (:class:`repro.serve.CubeServer` and
  :class:`repro.cluster.ClusterCoordinator`) inherit.  A backend
  supplies one thing — the cuboid of one lattice point, with the
  version, rung trail and modeled cost it came at — and the core turns
  it into every query kind, so the HTTP front door
  (:mod:`repro.server`), the CLIs and the tests all speak
  :class:`Query` to either backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    ClassVar,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro import obs
from repro.core.axes import AxisSpec
from repro.core.aggregates import AggregateSpec
from repro.core.bindings import FactRow, GroupKey
from repro.core.lattice import CubeLattice, LatticePoint
from repro.core.packed import PackedCuboid
from repro.errors import InvalidQuery, QueryError, StaleVersion
from repro.obs.events import RungDecision
from repro.obs.live import LiveTelemetry
from repro.obs.request_log import RequestLog
from repro.obs.trace_store import TraceStore
from repro.patterns.pattern import EdgeAxis, PatternNode, TreePattern
from repro.patterns.relaxation import Relaxation, most_relaxed_pattern


@dataclass(frozen=True)
class X3Query:
    """A full cube specification.

    Attributes:
        fact_tag: tag of the fact elements (e.g. ``publication``); facts
            are matched anywhere in the documents (``//fact_tag``).
        fact_id_path: path from the fact to its identifier, ``"@id"`` by
            default; node identity is used when the path binds nothing.
        axes: the grouping axes.
        aggregate: the RETURN clause.
        document: display name of the source (``doc("book.xml")``).
    """

    fact_tag: str
    axes: Tuple[AxisSpec, ...]
    aggregate: AggregateSpec = field(default_factory=AggregateSpec)
    fact_id_path: str = "@id"
    document: str = "book.xml"

    def __post_init__(self) -> None:
        if not self.fact_tag:
            raise QueryError("fact tag must be non-empty")
        if not self.axes:
            raise QueryError("an X^3 query needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate axis names in {names}")

    # ------------------------------------------------------------------
    def lattice(self) -> CubeLattice:
        return CubeLattice(self.axes)

    def relaxation_specs(self) -> Dict[str, Set[Relaxation]]:
        return {axis.name: set(axis.relaxations) for axis in self.axes}

    # ------------------------------------------------------------------
    # tree patterns (Sec. 2)
    # ------------------------------------------------------------------
    def rigid_pattern(self) -> TreePattern:
        """The grouping tree pattern of the query text (Fig. 3 (a))."""
        root = PatternNode(self.fact_tag, label="$fact")
        if self.fact_id_path:
            root.add(PatternNode(f"@{self.fact_id_path.lstrip('@')}"))
        for axis in self.axes:
            cursor = root
            for position, (edge, test) in enumerate(axis.steps):
                is_binding = position == len(axis.steps) - 1
                node = PatternNode(
                    test,
                    axis=edge,
                    label=axis.name if is_binding else "",
                )
                cursor.add(node)
                cursor = node
        pattern = TreePattern(root, root_axis=EdgeAxis.DESCENDANT)
        pattern.validate()
        return pattern

    def most_relaxed(self) -> TreePattern:
        """The most relaxed fully instantiated pattern (Fig. 2)."""
        return most_relaxed_pattern(
            self.rigid_pattern(), self.relaxation_specs()
        )

    # ------------------------------------------------------------------
    def to_flwor(self) -> str:
        """Render back to the paper's augmented FLWOR syntax."""
        lines = [f'for $b in doc("{self.document}")//{self.fact_tag},']
        for position, axis in enumerate(self.axes):
            comma = "," if position < len(self.axes) - 1 else ""
            path = axis.path_text()
            sep = "" if path.startswith("/") else "/"
            lines.append(f"    {axis.name} in $b{sep}{path}{comma}")
        id_expr = f"$b/{self.fact_id_path}" if self.fact_id_path else "$b"
        for position, axis in enumerate(self.axes):
            names = ", ".join(
                sorted((r.value for r in axis.relaxations))
            )
            prefix = f"X^3 {id_expr} by " if position == 0 else "       "
            comma = "," if position < len(self.axes) - 1 else ""
            lines.append(f"{prefix}{axis.name} ({names}){comma}")
        measure = self.aggregate.measure_path
        inner = f"$b/{measure}" if measure else "$b"
        lines.append(f"return {self.aggregate.function.upper()}({inner}).")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_flwor()


# ======================================================================
# the unified serving API: Query / QueryResult / CubeBackend
# ======================================================================

#: Spec of the lattice point a query targets: the point itself or its
#: description string (``"$n:LND, $y:rigid"``).
PointSpec = Union[LatticePoint, str]

#: Query kinds the serving API accepts.  ``aggregate`` returns the
#: cuboid at the target point; ``drilldown`` refines the point one
#: relaxation step *finer* on one axis first; ``cell`` / ``slice`` /
#: ``dice`` post-process the resolved cuboid.
QUERY_KINDS = ("aggregate", "drilldown", "cell", "slice", "dice")


@dataclass(frozen=True)
class Query:
    """One serving request, the single request shape of every backend.

    Attributes:
        point: target lattice point (or its description string).
        kind: one of :data:`QUERY_KINDS`.
        axis: axis name (``"$y"``) — the drilldown axis, or the sliced
            axis.
        value: the slice value.
        key: the group key a ``cell`` query asks for.
        filters: dice predicates as ``(axis name, allowed values)``
            pairs; a cell survives when every named axis's key component
            is among the allowed values.
        measure: expected aggregate function name (``"COUNT"``); when
            set, the backend rejects the query unless it matches the
            cube's aggregate — a cheap schema check for remote callers.
        read_version: minimum version token the answer must reflect
            (read-your-writes).  A 1-vector against a single server, a
            per-shard vector against a cluster; :class:`StaleVersion`
            when the backend has not caught up.
        deadline_seconds: modeled-latency budget; the result's
            ``deadline_exceeded`` flag reports an overrun (the answer is
            still returned — the model's time base is simulated, so
            cancelling mid-flight would fake urgency, not model it).
    """

    point: PointSpec
    kind: str = "aggregate"
    axis: Optional[str] = None
    value: Optional[str] = None
    key: Optional[GroupKey] = None
    filters: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    measure: Optional[str] = None
    read_version: Optional[Tuple[int, ...]] = None
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise InvalidQuery(
                f"unknown query kind {self.kind!r}; expected one of "
                f"{QUERY_KINDS}"
            )
        if self.key is not None:
            object.__setattr__(self, "key", tuple(self.key))
        object.__setattr__(
            self,
            "filters",
            tuple(
                (axis, tuple(values)) for axis, values in self.filters
            ),
        )
        if self.read_version is not None:
            object.__setattr__(
                self, "read_version", tuple(self.read_version)
            )
        if self.kind == "drilldown" and not self.axis:
            raise InvalidQuery("drilldown needs an axis name")
        if self.kind == "slice" and (not self.axis or self.value is None):
            raise InvalidQuery("slice needs an axis name and a value")
        if self.kind == "dice" and not self.filters:
            raise InvalidQuery("dice needs at least one filter")
        if self.kind == "cell" and self.key is None:
            raise InvalidQuery("cell needs a group key")

    # ------------------------------------------------------------------
    # wire form
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Query":
        """Build from the HTTP JSON body (:class:`InvalidQuery` on any
        malformed field — transports map it to a 400)."""
        if not isinstance(payload, Mapping):
            raise InvalidQuery(
                f"query body must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        known = {
            "point", "kind", "axis", "value", "key", "filters",
            "measure", "read_version", "deadline_seconds",
        }
        unknown = set(payload) - known
        if unknown:
            raise InvalidQuery(
                f"unknown query fields {sorted(unknown)}; expected a "
                f"subset of {sorted(known)}"
            )
        point = payload.get("point")
        if not isinstance(point, str) or not point.strip():
            raise InvalidQuery(
                "query needs a non-empty 'point' description string"
            )
        try:
            filters = []
            for axis, values in dict(payload.get("filters") or {}).items():
                # A bare string would dice on its characters.
                if not isinstance(values, list):
                    raise TypeError(
                        f"filter {axis!r} takes a list of values, got "
                        f"{type(values).__name__}"
                    )
                filters.append((str(axis), tuple(str(v) for v in values)))
            key = payload.get("key")
            if key is not None:
                key = tuple(
                    None if part is None else str(part) for part in key
                )
            value = payload.get("value")
            if value is not None:
                value = str(value)
            measure = payload.get("measure")
            if measure is not None:
                measure = str(measure)
            read_version = payload.get("read_version")
            if read_version is not None:
                read_version = tuple(int(v) for v in read_version)
            deadline = payload.get("deadline_seconds")
            if deadline is not None:
                deadline = float(deadline)
        except (TypeError, ValueError) as error:
            raise InvalidQuery(f"malformed query field: {error}") from None
        return cls(
            point=point,
            kind=str(payload.get("kind", "aggregate")),
            axis=payload.get("axis"),
            value=value,
            key=key,
            filters=tuple(filters),
            measure=measure,
            read_version=read_version,
            deadline_seconds=deadline,
        )

    def to_dict(self) -> Dict[str, Any]:
        """The JSON wire form (round-trips through :meth:`from_dict`
        when ``point`` is a description string)."""
        out: Dict[str, Any] = {"point": self.point, "kind": self.kind}
        if self.axis is not None:
            out["axis"] = self.axis
        if self.value is not None:
            out["value"] = self.value
        if self.key is not None:
            out["key"] = list(self.key)
        if self.filters:
            out["filters"] = {
                axis: list(values) for axis, values in self.filters
            }
        if self.measure is not None:
            out["measure"] = self.measure
        if self.read_version is not None:
            out["read_version"] = list(self.read_version)
        if self.deadline_seconds is not None:
            out["deadline_seconds"] = self.deadline_seconds
        return out


@dataclass(frozen=True)
class QueryResult:
    """One answered :class:`Query`: payload plus provenance envelope.

    The payload is a read-only
    :class:`~repro.core.packed.PackedCuboid` for ``aggregate`` /
    ``drilldown`` / ``slice`` / ``dice``, stored in wire order
    (``dict(...)`` of it is a mutable copy), and a single cell value (or
    ``None``) for ``cell``.
    The envelope carries everything a remote caller needs to trust and
    reuse the answer: the version token it is exact at, the sound-source
    rung that produced it with the full ladder trail, and the modeled
    cost actually paid.
    """

    kind: str
    point: str  #: described lattice point actually served
    payload: Union[PackedCuboid, float, None]
    version: Tuple[int, ...]  #: version token the answer is exact at
    tier: str  #: resolving rung ("scatter-gather" on a cluster)
    rungs: Tuple[RungDecision, ...]
    modeled_seconds: float
    cells: int  #: size of the resolved cuboid, pre-transform
    deadline_exceeded: bool = False
    trace_id: str = ""  #: 32-hex trace id when the request was sampled

    def as_cuboid(self) -> PackedCuboid:
        if not isinstance(self.payload, Mapping):
            raise InvalidQuery(
                f"{self.kind} result holds a cell value, not a cuboid"
            )
        return self.payload

    def as_cell(self) -> Optional[float]:
        if isinstance(self.payload, Mapping):
            raise InvalidQuery(
                f"{self.kind} result holds a cuboid, not a cell value"
            )
        return self.payload

    def to_dict(self) -> Dict[str, Any]:
        """The JSON wire form the HTTP layer returns: a cuboid's groups
        in the order the payload stores them, keys sorted part by part
        (:mod:`repro.core.packed`)."""
        out: Dict[str, Any] = {
            "kind": self.kind,
            "point": self.point,
            "version": list(self.version),
            "tier": self.tier,
            "modeled_seconds": self.modeled_seconds,
            "cells": self.cells,
            "deadline_exceeded": self.deadline_exceeded,
            "rungs": [decision.to_dict() for decision in self.rungs],
        }
        if self.trace_id:
            out["trace_id"] = self.trace_id
        if isinstance(self.payload, Mapping):
            # A packed cuboid is stored in wire order, and slice/dice
            # filter in order.
            out["groups"] = [
                {"key": list(key), "value": value}
                for key, value in self.payload.items()
            ]
        else:
            out["value"] = self.payload
        return out


@dataclass(frozen=True)
class ShardPlan:
    """One shard's contribution to a cluster query plan."""

    shard: int
    replica: int  #: the healthy replica that would answer
    tier: str  #: the rung that replica's ladder would resolve at
    rungs: Tuple[RungDecision, ...] = ()


@dataclass(frozen=True)
class QueryExplanation:
    """The backend's plan for a query, without executing it.

    For a single server this is the sound-source ladder walk (DESIGN.md
    Sec. 5c): every rung in order, each with the verdict the server
    would reach right now — taken, rejected (with the disjoint/covered
    proof verdicts where the rollup rung is concerned), or not reached
    because a cheaper rung answers first.  For a cluster it is the
    scatter plan — which replica each shard would ask, and the rung
    that replica would answer from — assembled from the replicas' own
    ladders.
    """

    backend: str  #: "serve" or "cluster"
    kind: str
    point: str
    version: Tuple[int, ...]
    tier: str
    rungs: Tuple[RungDecision, ...]
    shards: Tuple[ShardPlan, ...] = ()

    def render(self) -> str:
        """Human-readable decision tree (the ``x3-serve explain`` body).

        The plan is for the *cuboid* the query reads; what the query
        kind does to that cuboid afterwards costs no rung.
        """
        version = ", ".join(str(component) for component in self.version)
        lines = [
            f"explain cuboid {self.point} @ version {version} -> {self.tier}"
        ]
        for index, decision in enumerate(self.rungs, start=1):
            if decision.taken:
                mark = "*"
            elif decision.reason.startswith("not reached"):
                mark = "."
            else:
                mark = "x"
            lines.append(
                f"  {index}. {decision.rung:<11} {mark} {decision.reason}"
            )
        lines.append("  (sound-source ladder, DESIGN.md Sec. 5c)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "kind": self.kind,
            "point": self.point,
            "version": list(self.version),
            "tier": self.tier,
            "rungs": [decision.to_dict() for decision in self.rungs],
            "shards": [
                {
                    "shard": plan.shard,
                    "replica": plan.replica,
                    "tier": plan.tier,
                    "rungs": [
                        decision.to_dict() for decision in plan.rungs
                    ],
                }
                for plan in self.shards
            ],
        }


#: What a backend hands the read core for one lattice point: the
#: cuboid, the version token it is exact at, the rung that resolved it,
#: the full rung trail, and the modeled seconds paid.  The cuboid may be
#: shared with the backend's store and other readers: nobody writes it.
Answer = Tuple[
    PackedCuboid,
    Tuple[int, ...],
    str,
    Tuple[RungDecision, ...],
    float,
]

#: A backend's plan for one lattice point: version token, resolving
#: rung, rung trail, per-shard plans (empty on a single server).
Plan = Tuple[
    Tuple[int, ...],
    str,
    Tuple[RungDecision, ...],
    Tuple[ShardPlan, ...],
]


class CubeBackend:
    """The read core every cube-serving backend inherits.

    Roll-up, drill-down, slice, dice and cell are views of one cuboid
    (Gray et al.; Sec. 2 of the paper has one operator), so a backend
    answers exactly one question — *the cuboid of this lattice point,
    at which version, from which source* (:meth:`_answer`; the
    sound-source ladder in :class:`repro.serve.CubeServer`,
    scatter-gather in :class:`repro.cluster.ClusterCoordinator`) — and
    plans it without executing (:meth:`_plan`).  Everything around that
    is here and therefore identical on both: the trace root, the
    measure check, point resolution, the kind-specific view, the
    read-version fence and the result envelope.

    The contract a subclass fills in: ``lattice``, ``aggregate``,
    ``events``, ``trace_store``, the :attr:`name` class attribute,
    :meth:`_answer`, :meth:`_plan`, :meth:`version_token`,
    :meth:`insert` and :meth:`delete`; :meth:`health`, :meth:`close`
    and ``telemetry`` have defaults.  The HTTP front door
    (:mod:`repro.server`) is written against this class alone.
    """

    #: "serve" or "cluster": names the backend in explanations and
    #: prefixes its span names (``serve.query`` / ``cluster.query``).
    name: ClassVar[str]

    lattice: CubeLattice
    aggregate: AggregateSpec
    #: The request log: one record per served read or write, in the
    #: JSONL ``x3 trace`` reads (``--log-jsonl``).
    events: RequestLog
    #: When set and no span is bound (a direct caller, not the HTTP or
    #: cluster path or an ``obs.trace()`` session), every query opens
    #: its own trace root, so standalone sessions are traceable too.
    trace_store: Optional[TraceStore] = None
    #: Sliding-window telemetry, where the backend keeps one.
    telemetry: Optional[LiveTelemetry] = None

    # ------------------------------------------------------------------
    # what a backend supplies
    # ------------------------------------------------------------------
    def _answer(self, point: LatticePoint, kind: str) -> Answer:
        """Obtain the cuboid for one lattice point (``kind`` labels the
        backend's own request log and spans)."""
        raise NotImplementedError

    def _plan(self, point: LatticePoint) -> Plan:
        """How :meth:`_answer` would obtain ``point`` right now; pure —
        no records, no cache effects, no fault injection."""
        raise NotImplementedError

    def version_token(self) -> Tuple[int, ...]:
        """The current version token reads can be fenced against."""
        raise NotImplementedError

    def insert(self, rows: Sequence[FactRow]) -> object:
        """Ingest delta facts; returns the backend's version token."""
        raise NotImplementedError

    def delete(self, rows: Sequence[FactRow]) -> object:
        """Retract delta facts; returns the backend's version token."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # the one read path
    # ------------------------------------------------------------------
    def query(self, query: Query) -> QueryResult:
        """Answer one :class:`Query` (the single read path).

        Resolves the target point (drilldown refines it one step finer
        on the requested axis), obtains its cuboid once, and wraps the
        kind-specific view of it in a :class:`QueryResult` carrying the
        version it is exact at plus the full rung trail.
        """
        store = self.trace_store
        if store is None or obs.current() is not obs.NULL_SPAN:
            return self._query(query)
        with store.root(
            f"{self.name}.query", category=self.name, kind=query.kind
        ) as root:
            result = self._query(query)
            if root.enabled:
                root.set_sim(result.modeled_seconds).annotate(
                    tier=result.tier, point=result.point
                )
            return result

    def _query(self, query: Query) -> QueryResult:
        point = self._target(query)
        binding = obs.current()
        result = finish_query(
            self.lattice,
            query,
            point,
            *self._answer(point, query.kind),
            trace_id=binding.trace_id_hex,
        )
        if result.deadline_exceeded and result.trace_id:
            binding.set_status("deadline")
        return result

    def explain_query(self, query: Query) -> QueryExplanation:
        """The plan for ``query``, without executing it."""
        point = self._target(query)
        version, tier, rungs, shards = self._plan(point)
        return QueryExplanation(
            backend=self.name,
            kind=query.kind,
            point=self.lattice.describe(point),
            version=version,
            tier=tier,
            rungs=rungs,
            shards=shards,
        )

    def _target(self, query: Query) -> LatticePoint:
        """Reject a query for another measure, then resolve the lattice
        point it reads."""
        if query.measure is not None:
            served = self.aggregate.function.upper()
            if query.measure.upper() != served:
                raise InvalidQuery(
                    f"measure {query.measure!r} does not match this "
                    f"cube's aggregate {served}"
                )
        return resolve_target(self.lattice, query)

    def resolve_point(self, spec: PointSpec) -> LatticePoint:
        """Accept a lattice point or its description string
        (:class:`InvalidQuery` on anything outside this lattice)."""
        return resolve_point_spec(self.lattice, spec)

    # ------------------------------------------------------------------
    # lifecycle and introspection defaults
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release what the backend holds (nothing, by default)."""

    def health(self) -> Dict[str, Any]:
        """This backend's ``/healthz`` entry; ``status`` is ``"ok"``,
        ``"degraded"`` or ``"down"``."""
        return {
            "kind": "server",
            "status": "ok",
            "version": list(self.version_token()),
        }


# ----------------------------------------------------------------------
# resolution helpers of the read core
# ----------------------------------------------------------------------
def resolve_point_spec(lattice: CubeLattice, spec: PointSpec) -> LatticePoint:
    """Resolve a point spec against a lattice (:class:`InvalidQuery` on
    unknown axes/states or a point outside the lattice)."""
    if isinstance(spec, str):
        try:
            return lattice.point_by_description(spec)
        except KeyError as error:
            raise InvalidQuery(
                f"bad point description {spec!r}: "
                f"{error.args[0] if error.args else error}"
            ) from None
    point = tuple(spec)
    if len(point) != lattice.axis_count or not all(
        0 <= state < states.state_count
        for state, states in zip(point, lattice.axis_states)
    ):
        raise InvalidQuery(
            f"point {point!r} is not in this cube's lattice"
        )
    return point


def axis_index(lattice: CubeLattice, axis: str) -> int:
    """Position of a named axis (:class:`InvalidQuery` when unknown)."""
    for position, spec in enumerate(lattice.axes):
        if spec.name == axis:
            return position
    raise InvalidQuery(
        f"unknown axis {axis!r}; this cube has "
        f"{[spec.name for spec in lattice.axes]}"
    )


def drilldown_point(
    lattice: CubeLattice, point: LatticePoint, axis: str
) -> LatticePoint:
    """The target of a drilldown: one relaxation step *finer* on one
    axis (the smallest such predecessor, deterministically).

    :class:`InvalidQuery` when the axis is unknown or already at its
    finest (rigid) state.
    """
    position = axis_index(lattice, axis)
    candidates = sorted(
        finer
        for finer in lattice.predecessors(point)
        if finer[position] != point[position]
    )
    if not candidates:
        raise InvalidQuery(
            f"axis {axis!r} is already at its finest state at "
            f"{lattice.describe(point)}; cannot drill down"
        )
    return candidates[0]


def _kept_axis_index(
    lattice: CubeLattice, point: LatticePoint, axis: str
) -> int:
    """Map an axis name to its index among the point's *kept* axes (the
    coordinate system of cuboid group keys)."""
    position = axis_index(lattice, axis)
    kept = lattice.kept_axes(point)
    if position not in kept:
        raise InvalidQuery(
            f"axis {axis!r} is dropped (LND) at "
            f"{lattice.describe(point)}; it has no key component to "
            f"filter on"
        )
    return kept.index(position)


def resolve_target(lattice: CubeLattice, query: Query) -> LatticePoint:
    """The lattice point a query actually reads (drilldown refines)."""
    point = resolve_point_spec(lattice, query.point)
    if query.kind == "drilldown":
        assert query.axis is not None  # enforced by __post_init__
        return drilldown_point(lattice, point, query.axis)
    return point


def check_read_version(
    requested: Optional[Tuple[int, ...]], answered: Tuple[int, ...]
) -> None:
    """Enforce a read-your-writes floor: every component of the
    answered token must have caught up to the requested one."""
    if requested is None:
        return
    if len(requested) != len(answered):
        raise InvalidQuery(
            f"read_version has {len(requested)} component(s); this "
            f"backend's version token has {len(answered)}"
        )
    if any(have < want for have, want in zip(answered, requested)):
        raise StaleVersion(requested, answered)


def finish_query(
    lattice: CubeLattice,
    query: Query,
    point: LatticePoint,
    cuboid: PackedCuboid,
    version: Tuple[int, ...],
    tier: str,
    rungs: Tuple[RungDecision, ...],
    modeled_seconds: float,
    trace_id: str = "",
) -> QueryResult:
    """Apply the query's kind-specific view of the resolved cuboid and
    wrap it in the result envelope.  A cuboid payload is handed out as
    is, not copied: a packed cuboid is read-only, and the resolved one
    may be the one a cache and other readers share."""
    from repro.core.rollup import dice_cuboid, slice_cuboid

    check_read_version(query.read_version, version)
    payload: Union[PackedCuboid, float, None]
    if query.kind == "cell":
        assert query.key is not None
        payload = cuboid.get(query.key)
    elif query.kind == "slice":
        assert query.axis is not None and query.value is not None
        payload = slice_cuboid(
            cuboid, _kept_axis_index(lattice, point, query.axis), query.value
        )
    elif query.kind == "dice":
        predicates = {
            _kept_axis_index(lattice, point, axis): values
            for axis, values in query.filters
        }
        payload = dice_cuboid(cuboid, predicates)
    else:  # aggregate / drilldown: the cuboid itself
        payload = cuboid
    return QueryResult(
        kind=query.kind,
        point=lattice.describe(point),
        payload=payload,
        version=version,
        tier=tier,
        rungs=rungs,
        modeled_seconds=modeled_seconds,
        cells=len(cuboid),
        deadline_exceeded=(
            query.deadline_seconds is not None
            and modeled_seconds > query.deadline_seconds
        ),
        trace_id=trace_id,
    )
