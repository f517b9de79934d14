"""CubeBackend conformance, parametrized over both runtime surfaces.

One suite, two backends: :class:`repro.serve.CubeServer` and
:class:`repro.cluster.ClusterCoordinator` must be interchangeable
behind :class:`repro.core.query.CubeBackend` — same query kinds, same
answers, same error taxonomy, same versioning semantics.  This is the
contract the HTTP front door (and everything above it) relies on.
"""

import json

import pytest

from repro.cluster import ClusterCoordinator
from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.incremental import split_rows
from repro.core.query import (
    CubeBackend,
    Query,
    QueryExplanation,
    QueryResult,
)
from repro.errors import InvalidQuery, StaleVersion
from repro.serve import CubeServer
from repro.server import CubeCatalog, LogicalCube, X3Api
from repro.testing import small_workload

BACKENDS = ("serve", "cluster")


def reference_cuboid(table, rows, point):
    snapshot = FactTable(table.lattice, list(rows), table.aggregate)
    result = compute_cube(
        snapshot, ExecutionOptions(algorithm="NAIVE", points=(point,))
    )
    return result.cuboids[point]


@pytest.fixture(params=BACKENDS)
def stack(request):
    workload = small_workload(n_facts=60)
    table = workload.fact_table()
    oracle = workload.oracle(table)
    if request.param == "cluster":
        with ClusterCoordinator(
            table, 2, 2, oracle=oracle, hedge_deadline_seconds=None
        ) as coordinator:
            yield coordinator, table
    else:
        yield CubeServer(table, oracle), table


@pytest.fixture()
def backend(stack):
    return stack[0]


@pytest.fixture()
def fine_point(backend):
    lattice = backend.lattice
    return lattice.describe(lattice.topo_finer_first()[0])


class TestProtocol:
    def test_satisfies_the_runtime_checkable_protocol(self, backend):
        assert isinstance(backend, CubeBackend)

    def test_query_returns_the_shared_envelope(self, backend, fine_point):
        result = backend.query(Query(point=fine_point))
        assert isinstance(result, QueryResult)
        assert result.kind == "aggregate"
        assert result.point == fine_point
        assert result.modeled_seconds > 0.0
        assert result.cells == len(result.as_cuboid())
        assert result.rungs  # every backend reports its ladder trail
        assert result.version == backend.version_token()

    def test_explain_returns_the_shared_plan(self, backend, fine_point):
        explanation = backend.explain_query(Query(point=fine_point))
        assert isinstance(explanation, QueryExplanation)
        assert explanation.point == fine_point
        if isinstance(backend, ClusterCoordinator):
            assert explanation.backend == "cluster"
            assert len(explanation.shards) == backend.n_shards
            assert all(plan.tier for plan in explanation.shards)
        else:
            assert explanation.backend == "serve"
            assert explanation.shards == ()


class TestAnswers:
    def test_aggregate_matches_serial_naive(self, stack, fine_point):
        backend, table = stack
        point = backend.lattice.point_by_description(fine_point)
        expected = reference_cuboid(table, table.rows, point)
        result = backend.query(Query(point=fine_point))
        assert result.as_cuboid() == expected

    def test_every_kind_is_served(self, backend, fine_point):
        lattice = backend.lattice
        point = lattice.point_by_description(fine_point)
        base = backend.query(Query(point=fine_point)).as_cuboid()
        some_key = sorted(base)[0]
        axis = lattice.axes[lattice.kept_axes(point)[0]].name

        cell = backend.query(Query(point=fine_point, kind="cell",
                                   key=some_key))
        assert cell.as_cell() == base[some_key]

        sliced = backend.query(
            Query(point=fine_point, kind="slice", axis=axis,
                  value=str(some_key[0]))
        ).as_cuboid()
        assert sliced  # the sliced value exists, so rows survive

        diced = backend.query(
            Query(point=fine_point, kind="dice",
                  filters=((axis, (str(some_key[0]),)),))
        ).as_cuboid()
        assert all(key[0] == some_key[0] for key in diced)

        apex = lattice.describe(lattice.topo_finer_first()[-1])
        drilled = backend.query(
            Query(point=apex, kind="drilldown", axis=axis)
        )
        assert drilled.point != apex

    def test_measure_mismatch_rejected(self, backend, fine_point):
        assert backend.query(
            Query(point=fine_point, measure="count")
        ).as_cuboid()
        with pytest.raises(InvalidQuery):
            backend.query(Query(point=fine_point, measure="SUM"))

    def test_unknown_point_rejected(self, backend):
        with pytest.raises(InvalidQuery):
            backend.query(Query(point="$warp:LND"))

    def test_deadline_overrun_is_flagged_not_fatal(
        self, backend, fine_point
    ):
        result = backend.query(
            Query(point=fine_point, deadline_seconds=1e-12)
        )
        assert result.deadline_exceeded
        assert result.as_cuboid()  # the answer still comes back
        relaxed = backend.query(
            Query(point=fine_point, deadline_seconds=1e6)
        )
        assert not relaxed.deadline_exceeded


class TestVersioning:
    def test_version_token_advances_on_writes(self, stack):
        backend, table = stack
        before = backend.version_token()
        initial, delta = split_rows(table, 0.9)
        backend.delete(list(delta))
        after = backend.version_token()
        assert len(after) == len(before)
        assert sum(after) > sum(before)

    def test_stale_read_version_raises(self, backend, fine_point):
        ahead = tuple(v + 1 for v in backend.version_token())
        with pytest.raises(StaleVersion):
            backend.query(Query(point=fine_point, read_version=ahead))

    def test_satisfied_read_version_answers(self, backend, fine_point):
        now = backend.version_token()
        result = backend.query(
            Query(point=fine_point, read_version=now)
        )
        assert result.version == now

    def test_wrong_length_read_version_is_invalid(
        self, backend, fine_point
    ):
        bad = tuple(backend.version_token()) + (0,)
        with pytest.raises(InvalidQuery):
            backend.query(Query(point=fine_point, read_version=bad))


class TestOneReadPath:
    """Both backends inherit :class:`CubeBackend`'s read path, so one
    mistake earns one error and the pre-``Query`` surfaces are gone."""

    BAD_MEASURE = "measure 'SUM' does not match this cube's aggregate COUNT"

    def test_one_error_for_one_mistake(self, backend, fine_point):
        query = Query(point=fine_point, measure="SUM")
        for read in (backend.query, backend.explain_query):
            with pytest.raises(InvalidQuery) as caught:
                read(query)
            assert str(caught.value) == self.BAD_MEASURE

        catalog = CubeCatalog()
        catalog.register(
            LogicalCube.from_lattice("cube", backend.lattice), backend
        )
        response = X3Api(catalog).handle(
            "POST",
            "/api/v1/cubes/cube/aggregate",
            json.dumps({"point": fine_point, "measure": "SUM"}).encode(),
        )
        assert response.status == 400
        # Spelled out byte for byte: the same literal for either backend.
        assert response.body == (
            '{"error": {"kind": "invalid_query", '
            f'"message": "{self.BAD_MEASURE}"}}}}\n'
        )

    def test_the_backend_defines_no_read_path_of_its_own(self, backend):
        own = vars(type(backend))
        for shared in (
            "query", "explain_query", "resolve_point",
            "_query", "_query_impl", "_check_measure",
        ):
            assert shared not in own, shared
        for removed in (
            "cuboid", "cell", "slice", "dice", "cuboid_versioned", "explain",
        ):
            assert not hasattr(backend, removed), removed
