"""The differential battery: columnar sweep vs the dict engine.

Reference semantics: serial NAIVE on the dict path.  Every comparison in
this module is **zero-tolerance** — plain ``==`` on the finalized cuboid
dicts, no float epsilon — which holds because the columnar sweep folds
measures in base-row order, the same fold order NAIVE and COUNTER use.

Coverage: every registered algorithm x workload family x lattice point
set x aggregate function, including multi-valued axes, coverage-gap
facts, memory-pressure multipass, engine partitioning, and iceberg
filtering.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregateSpec, registered_functions
from repro.core.algorithms.columnar_sweep import census
from repro.core.algorithms.registry import (
    ALWAYS_CORRECT,
    COLUMNAR_CAPABLE,
    META,
    NEEDS_BOTH,
    NEEDS_DISJOINTNESS,
    available,
)
from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.properties import PropertyOracle
from repro.datagen.workload import WorkloadConfig, build_workload
from repro.testing import vary_measures
from tests.prop.test_hypothesis_columnar import random_fact_table

# ----------------------------------------------------------------------
# workload matrix
# ----------------------------------------------------------------------
WORKLOAD_CONFIGS = {
    # Both summarizability properties hold; single-valued everywhere.
    "clean": WorkloadConfig(
        kind="treebank", n_facts=60, n_axes=3, density="dense",
        coverage=True, disjoint=True, seed=5,
    ),
    # Coverage gaps (missing values) + nested extra matches, repeated
    # values on axes: neither property holds; multi-valued axes appear.
    "messy": WorkloadConfig(
        kind="treebank", n_facts=60, n_axes=3, density="sparse",
        coverage=False, disjoint=False, seed=9,
    ),
    # Disjointness broken only (duplicated values, full coverage).
    "overlap": WorkloadConfig(
        kind="treebank", n_facts=50, n_axes=3, density="dense",
        coverage=True, disjoint=False, seed=11,
    ),
    # The DBLP-shaped generator (different axis/value structure).
    "dblp": WorkloadConfig(
        kind="dblp", n_facts=50, n_axes=3, density="sparse",
        coverage=False, disjoint=False, seed=3,
    ),
}


def _with_aggregate(table: FactTable, function: str) -> FactTable:
    spec = (
        AggregateSpec()
        if function == "COUNT"
        else AggregateSpec(function, "@m")
    )
    return FactTable(table.lattice, table.rows, spec)


@pytest.fixture(scope="module")
def tables():
    out = {}
    for name, config in WORKLOAD_CONFIGS.items():
        workload = build_workload(config)
        table = vary_measures(workload.fact_table())
        out[name] = (table, workload.oracle(table))
    return out


def point_sets(lattice):
    """The lattice point sets the battery sweeps."""
    points = list(lattice.points())
    mid = sorted(points, key=lattice.rank)[len(points) // 2]
    antichain = [p for p in points if lattice.rank(p) == lattice.rank(mid)]
    return {
        "full": points,
        "bottom": [lattice.bottom],
        "top": [lattice.top],
        "antichain": antichain,
        "pair": [lattice.bottom, lattice.top],
    }


def exact_equal(result, reference, points):
    """Zero-tolerance comparison over the requested points."""
    assert set(result.cuboids) == set(points)
    for point in points:
        assert result.cuboids[point] == reference.cuboids[point], point


# ----------------------------------------------------------------------
# columnar vs serial NAIVE: workloads x point sets x aggregates
# ----------------------------------------------------------------------
class TestColumnarAgainstNaive:
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_CONFIGS))
    @pytest.mark.parametrize(
        "point_set", ["full", "bottom", "top", "antichain", "pair"]
    )
    def test_count_bit_identical(self, tables, workload, point_set):
        table, _ = tables[workload]
        points = point_sets(table.lattice)[point_set]
        reference = compute_cube(
            table, ExecutionOptions(algorithm="NAIVE", points=points)
        )
        result = compute_cube(
            table, ExecutionOptions(algorithm="COLUMNAR", points=points)
        )
        exact_equal(result, reference, points)

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_CONFIGS))
    @pytest.mark.parametrize("function", sorted(registered_functions()))
    def test_every_aggregate_bit_identical(self, tables, workload, function):
        table, _ = tables[workload]
        table = _with_aggregate(table, function)
        points = list(table.lattice.points())
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        result = compute_cube(table, ExecutionOptions(algorithm="COLUMNAR"))
        exact_equal(result, reference, points)

    def test_multipass_under_memory_pressure(self, tables):
        table, _ = tables["messy"]
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        starved = compute_cube(
            table,
            ExecutionOptions(algorithm="COLUMNAR", memory_entries=16),
        )
        assert starved.passes > 1
        exact_equal(starved, reference, list(table.lattice.points()))

    def test_iceberg_min_support(self, tables):
        table, _ = tables["clean"]
        table = _with_aggregate(table, "COUNT")
        reference = compute_cube(
            table, ExecutionOptions(algorithm="NAIVE", min_support=3)
        )
        result = compute_cube(
            table, ExecutionOptions(algorithm="COLUMNAR", min_support=3)
        )
        exact_equal(result, reference, list(table.lattice.points()))

    def test_empty_table(self):
        config = WORKLOAD_CONFIGS["clean"]
        workload = build_workload(config)
        table = workload.fact_table()
        empty = FactTable(table.lattice, [], table.aggregate)
        reference = compute_cube(empty, ExecutionOptions(algorithm="NAIVE"))
        result = compute_cube(empty, ExecutionOptions(algorithm="COLUMNAR"))
        assert result.cuboids == reference.cuboids


@given(
    random_fact_table(aggregate=AggregateSpec("AVG", "@m")),
    st.sampled_from(["COUNT", "SUM", "AVG", "MIN"]),
)
@settings(max_examples=60, deadline=None)
def test_group_id_kernel_callers_equal_naive(table, function):
    """All three callers of the ``(rows, gids)`` kernel — the census,
    the sweep and TD's base build — on random tables with gaps and
    fan-out; floats by ``==``."""
    table = _with_aggregate(table, function)
    points = list(table.lattice.points())
    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    assert census(table, points) == {
        point: len(reference.cuboids[point]) for point in points
    }
    for algorithm in ("COLUMNAR", "TD"):
        result = compute_cube(table, ExecutionOptions(algorithm=algorithm))
        exact_equal(result, reference, points)


#: The three table shapes of ``benchmarks/e2e`` (``http_keepalive``
#: shares ``api_hot``'s) at seed 17, and what the sweep counted on them
#: before the group-id column went long-form: increments (entries
#: folded), cells, trie edges and modeled seconds must not move.
E2E_SHAPED = {
    "xml_to_cube": (
        dict(n_facts=1200, n_axes=4, density="sparse",
             coverage=False, disjoint=False),
        (96147, 88288, 80, 1.6201020000000002),
    ),
    "api_hot": (
        dict(n_facts=1800, n_axes=6, density="dense",
             coverage=True, disjoint=True),
        (115200, 11912, 63, 0.036667200000000004),
    ),
    "cluster_scatter": (
        dict(n_facts=4000, n_axes=6, density="dense",
             coverage=True, disjoint=True),
        (256000, 13957, 63, 0.07719619999999999),
    ),
}


@pytest.mark.parametrize("shape", sorted(E2E_SHAPED))
def test_sweep_counters_pinned_on_e2e_shapes(shape):
    config, pinned = E2E_SHAPED[shape]
    table = build_workload(
        WorkloadConfig(kind="treebank", seed=17, **config)
    ).fact_table()
    result = compute_cube(table, ExecutionOptions(algorithm="COLUMNAR"))
    counted = tuple(
        result.phases.get(f"columnar_{name}")
        for name in ("increments", "cells", "nodes")
    )
    assert counted + (result.cost.simulated_seconds,) == pinned


# ----------------------------------------------------------------------
# every registered algorithm against the columnar sweep
# ----------------------------------------------------------------------
class TestAllRegisteredAlgorithms:
    @pytest.mark.parametrize("name", sorted(available()))
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_CONFIGS))
    def test_count_cubes_bit_identical(self, tables, name, workload):
        """COUNT cubes are integers, so *every* algorithm that is sound
        on the workload must be bit-identical to the columnar sweep."""
        table, truthful = tables[workload]
        if name in NEEDS_DISJOINTNESS and not truthful.globally_disjoint():
            pytest.skip("algorithm requires disjointness")
        if name in NEEDS_BOTH and not (
            truthful.globally_disjoint() and truthful.globally_covered()
        ):
            pytest.skip("algorithm requires both properties")
        points = list(table.lattice.points())
        reference = compute_cube(
            table, ExecutionOptions(algorithm="COLUMNAR", oracle=truthful)
        )
        result = compute_cube(
            table, ExecutionOptions(algorithm=name, oracle=truthful)
        )
        exact_equal(result, reference, points)

    @pytest.mark.parametrize(
        "name", sorted(set(ALWAYS_CORRECT) | set(META))
    )
    def test_float_aggregates_agree(self, tables, name):
        """Always-correct algorithms on an AVG cube: row-order folders
        (NAIVE/COUNTER/COLUMNAR) are bit-identical; roll-up based ones
        agree within the documented tolerance."""
        table, truthful = tables["messy"]
        table = _with_aggregate(table, "AVG")
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        result = compute_cube(
            table, ExecutionOptions(algorithm=name, oracle=truthful)
        )
        if name in ("NAIVE", "COUNTER", "COLUMNAR"):
            exact_equal(result, reference, list(table.lattice.points()))
        else:
            assert result.same_contents(reference), result.diff(reference)[:3]


# ----------------------------------------------------------------------
# columnar BUC/TD kernels vs their own dict paths and serial NAIVE
# ----------------------------------------------------------------------
class TestColumnarBucTdKernels:
    @pytest.mark.parametrize("name", sorted(COLUMNAR_CAPABLE))
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_CONFIGS))
    def test_columnar_matches_dict_kernel(self, tables, name, workload):
        """The columnar kernel and the legacy dict path of the *same*
        algorithm are bit-identical on every workload family — unsound
        (algorithm, workload) pairs included: where BUCOPT/TDOPT double
        count and TDOPTALL under-counts (Fig. 9-10), both kernels are
        wrong by the same cells."""
        table, truthful = tables[workload]
        points = list(table.lattice.points())
        dict_run = compute_cube(
            table,
            ExecutionOptions(
                algorithm=name, oracle=truthful, encoding="dict"
            ),
        )
        columnar_run = compute_cube(
            table,
            ExecutionOptions(
                algorithm=name, oracle=truthful, encoding="columnar"
            ),
        )
        exact_equal(columnar_run, dict_run, points)

    @pytest.mark.parametrize("name", ["BUC", "TD"])
    @pytest.mark.parametrize("function", sorted(registered_functions()))
    def test_every_aggregate_matches_naive(self, tables, name, function):
        table, _ = tables["messy"]
        table = _with_aggregate(table, function)
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        result = compute_cube(
            table, ExecutionOptions(algorithm=name, encoding="columnar")
        )
        exact_equal(result, reference, list(table.lattice.points()))

    @pytest.mark.parametrize("name", ["BUCCUST", "TDCUST"])
    def test_cust_with_denying_oracle(self, tables, name):
        """CUST kernels degrade to the safe plan when the oracle denies
        every property — and stay bit-identical to NAIVE doing it."""
        table, _ = tables["clean"]
        denying = PropertyOracle.from_flags(table.lattice, False, False)
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        result = compute_cube(
            table,
            ExecutionOptions(
                algorithm=name, oracle=denying, encoding="columnar"
            ),
        )
        exact_equal(result, reference, list(table.lattice.points()))

    @pytest.mark.parametrize("name", ["BUCCUST", "TDCUST"])
    def test_cust_with_truthful_oracle(self, tables, name):
        table, truthful = tables["clean"]
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        result = compute_cube(
            table,
            ExecutionOptions(
                algorithm=name, oracle=truthful, encoding="columnar"
            ),
        )
        exact_equal(result, reference, list(table.lattice.points()))

    @pytest.mark.parametrize("name", ["BUC", "TD"])
    def test_tight_memory_budget(self, tables, name):
        """A budget far below the fact count forces the spill path; the
        answer must not change."""
        table, _ = tables["messy"]
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        starved = compute_cube(
            table,
            ExecutionOptions(
                algorithm=name, encoding="columnar", memory_entries=16
            ),
        )
        exact_equal(starved, reference, list(table.lattice.points()))

    @pytest.mark.parametrize("name", ["BUC", "TD"])
    def test_under_thread_engine(self, tables, name):
        table, _ = tables["messy"]
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        result = compute_cube(
            table,
            ExecutionOptions(
                algorithm=name,
                encoding="columnar",
                workers=3,
                engine="thread",
            ),
        )
        exact_equal(result, reference, list(table.lattice.points()))

    @pytest.mark.parametrize("name", ["BUC", "TD"])
    def test_under_process_engine(self, tables, name):
        table, _ = tables["clean"]
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        result = compute_cube(
            table,
            ExecutionOptions(
                algorithm=name,
                encoding="columnar",
                workers=2,
                engine="process",
            ),
        )
        exact_equal(result, reference, list(table.lattice.points()))

    @pytest.mark.parametrize("name", ["BUC", "TD"])
    def test_iceberg_min_support(self, tables, name):
        table, _ = tables["overlap"]
        reference = compute_cube(
            table, ExecutionOptions(algorithm="NAIVE", min_support=3)
        )
        result = compute_cube(
            table,
            ExecutionOptions(
                algorithm=name, encoding="columnar", min_support=3
            ),
        )
        exact_equal(result, reference, list(table.lattice.points()))


# ----------------------------------------------------------------------
# the engine's partition workers on columnar inputs
# ----------------------------------------------------------------------
class TestColumnarUnderEngine:
    def test_thread_engine_partitions(self, tables):
        table, _ = tables["messy"]
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        result = compute_cube(
            table,
            ExecutionOptions(
                algorithm="COLUMNAR", workers=3, engine="thread"
            ),
        )
        exact_equal(result, reference, list(table.lattice.points()))

    def test_process_engine(self, tables):
        table, _ = tables["clean"]
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        result = compute_cube(
            table,
            ExecutionOptions(
                algorithm="COLUMNAR", workers=2, engine="process"
            ),
        )
        exact_equal(result, reference, list(table.lattice.points()))

    def test_thread_workers_share_one_encoding(self, tables):
        """Thread partitions run against the same table object, so the
        memoized encoding is built once and shared."""
        table, _ = tables["clean"]
        table.invalidate_columnar()
        compute_cube(
            table,
            ExecutionOptions(algorithm="COLUMNAR", workers=3, engine="thread"),
        )
        cached = table._columnar_cache
        assert cached is not None
        assert table.columnar() is cached[1]

