"""The top-down, bottom-up and counter families pinned: answers, charges,
counters.

``tests/core/golden/td_family_pinned.json`` states what each family did
on the commit *before* it was rewritten as one procedure: the TD entries
were recorded before ``repro.core.algorithms.topdown`` became one walk
over two kernels, the BUC entries before ``repro.core.algorithms.buc``
became one recursion over two kernels, the COUNTER entries before
COUNTER became the columnar sweep with its own price list.  For TD /
TDOPT / TDOPTALL / TDCUST and BUC / BUCOPT / BUCCUST x ``encoding`` in {columnar, dict} on
the three ``benchmarks/e2e`` table shapes (plus ``xml_to_cube`` with
order-sensitive AVG measures, so a changed merge order shows as a
changed float) it holds a digest of every cuboid — sound or not: the
shapes without disjointness/coverage pin TDOPT's and BUCOPT's
double-counting and TDOPTALL's under-counting too — the ``CostSnapshot``
counters and modeled seconds, and the run's phase counters
(``CubeResult.phases``, one list per family; the BUC entries also count
sorts by kind; a phase the run never reached is ``null``).  They were
recorded from a traced run's metrics registry, which the phases have
replaced: the numbers are the same.  Three
modes: every lattice point, a strict ``points=`` subset (the
engine-partition path: TDOPT/TDOPTALL/TDCUST still walk the whole
lattice, TD must not) and a starved memory budget (external sorts +
spill charges); the BUC family adds ``min_support=2`` on the three COUNT
shapes (the iceberg cut inside the recursion).  COUNTER ignores
``encoding`` and has one entry per (shape, mode); it adds a reversed
``points=`` subset and an order-sensitive digest (points and keys exactly
in the order returned), and its phase counters are the counter's.  The
sweep packs its cuboids (:mod:`repro.core.packed`), so since then the
keys of that digest come in wire order; only the COUNTER ``order``
digests were re-pinned for it, every other field unchanged.

Any rewrite of a family must pass this unchanged.  Regenerate only
for a deliberate change of answers or charges::

    PYTHONPATH=src:. python - <<'PY'
    import json
    from tests.core.algorithms.test_topdown_pinned import (
        PINNED_PATH, build_record,
    )
    with open(PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(build_record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    PY
"""

import hashlib
import json
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from repro.core.aggregates import AggregateSpec
from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.datagen.workload import WorkloadConfig, build_workload
from repro.testing import vary_measures
from tests.core.test_columnar_differential import E2E_SHAPED

PINNED_PATH = Path(__file__).parent.parent / "golden" / "td_family_pinned.json"

TD_FAMILY = ("TD", "TDOPT", "TDOPTALL", "TDCUST")
BUC_FAMILY = ("BUC", "BUCOPT", "BUCCUST")
VARIANTS = TD_FAMILY + BUC_FAMILY
ENCODINGS = ("columnar", "dict")
MODES = ("all", "subset", "starved")
COUNTER_MODES = MODES + ("reversed",)
COUNT_SHAPES = tuple(sorted(E2E_SHAPED))
SHAPES = COUNT_SHAPES + ("xml_to_cube_avg",)
TD_PHASES = ("base_scans", "td_base_sorts", "td_rollups", "columnar_scans")
BUC_PHASES = (
    "base_scans", "columnar_scans", "buc_partition_calls", "buc_placements",
)
COUNTER_PHASES = (
    "base_scans", "counter_cells", "counter_passes", "columnar_scans",
)
SORT_KINDS = ("counting", "external", "quicksort")
COST_FIELDS = ("cpu_ops", "page_reads", "page_writes", "simulated_seconds")
CASES = (
    list(product(SHAPES, VARIANTS, ENCODINGS, MODES))
    + list(product(COUNT_SHAPES, BUC_FAMILY, ENCODINGS, ("iceberg",)))
    + list(product(SHAPES, ("COUNTER",), ("auto",), COUNTER_MODES))
)


@lru_cache(maxsize=None)
def _workload(shape):
    """(table, truthful oracle) of one shape, built once per session."""
    config, _ = E2E_SHAPED[shape.removesuffix("_avg")]
    workload = build_workload(
        WorkloadConfig(kind="treebank", seed=17, **config)
    )
    table = workload.fact_table()
    oracle = workload.oracle(table)
    if shape.endswith("_avg"):
        varied = vary_measures(table)
        table = FactTable(
            varied.lattice, varied.rows, AggregateSpec("AVG", "@m")
        )
    return table, oracle


def subset_of(lattice):
    """A strict subset that skips the top: every third point by rank."""
    points = sorted(lattice.points(), key=lambda p: (lattice.rank(p), p))
    return tuple(points[1::3])


def _digest(lattice, cuboids, ordered=False):
    """sha256 of every cuboid; ``ordered`` keeps points and keys in the
    order returned instead of sorting them."""
    arrange = (lambda items: list(items)) if ordered else sorted
    body = [
        [
            lattice.describe(point),
            arrange([list(key), repr(value)] for key, value in cuboid.items()),
        ]
        for point, cuboid in arrange(cuboids.items())
    ]
    encoded = json.dumps(body, ensure_ascii=True).encode("ascii")
    return hashlib.sha256(encoded).hexdigest()


def run_case(shape, variant, encoding, mode):
    table, oracle = _workload(shape)
    points = None
    if mode in ("subset", "reversed"):
        points = subset_of(table.lattice)[:: -1 if mode == "reversed" else 1]
    result = compute_cube(
        table,
        ExecutionOptions(
            algorithm=variant,
            encoding=encoding,
            oracle=oracle,
            points=points,
            memory_entries=16 if mode == "starved" else None,
            min_support=2 if mode == "iceberg" else 0.0,
        ),
    )
    record = {
        "points": len(result.cuboids),
        "cells": sum(len(cuboid) for cuboid in result.cuboids.values()),
        "digest": _digest(table.lattice, result.cuboids),
        "passes": result.passes,
    }
    for field in COST_FIELDS:
        record[field] = getattr(result.cost, field)
    if variant == "COUNTER":
        phases = COUNTER_PHASES
        record["order"] = _digest(table.lattice, result.cuboids, ordered=True)
    elif variant in TD_FAMILY:
        phases = TD_PHASES
    else:
        phases = BUC_PHASES
        phases += tuple(
            f"{count}_{kind}"
            for kind in SORT_KINDS
            for count in ("sorts", "sorted_items")
        )
    for phase in phases:
        record[phase] = result.phases.get(phase)
    return record


def _case_id(*case):
    return "/".join(case)


def build_record():
    return {_case_id(*case): run_case(*case) for case in CASES}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


def test_record_covers_the_whole_matrix(pinned):
    assert sorted(pinned) == sorted(_case_id(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: _case_id(*case))
def test_family_reproduces_the_pinned_record(pinned, case):
    assert run_case(*case) == pinned[_case_id(*case)]


@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("shape", SHAPES)
def test_td_builds_only_the_points_asked_for(pinned, shape, encoding):
    """TD under ``points=`` sorts once per wanted point; the roll-up
    variants walk the whole lattice whatever was asked for."""
    table, _ = _workload(shape)
    wanted = len(subset_of(table.lattice))
    assert 0 < wanted < len(list(table.lattice.points()))
    td = pinned[_case_id(shape, "TD", encoding, "subset")]
    assert (td["base_scans"], td["td_base_sorts"]) == (wanted, wanted)
    assert td["td_rollups"] is None
    for variant in ("TDOPT", "TDOPTALL", "TDCUST"):
        subset = pinned[_case_id(shape, variant, encoding, "subset")]
        full = pinned[_case_id(shape, variant, encoding, "all")]
        for phase in TD_PHASES:
            assert subset[phase] == full[phase], (variant, phase)


@pytest.mark.parametrize("shape", SHAPES)
def test_counter_answers_in_the_order_asked(pinned, shape):
    """COUNTER returns its cuboids in ``points`` order: a reversed
    subset is the same answer in the other order."""
    subset = pinned[_case_id(shape, "COUNTER", "auto", "subset")]
    backwards = pinned[_case_id(shape, "COUNTER", "auto", "reversed")]
    assert backwards["digest"] == subset["digest"]
    assert backwards["order"] != subset["order"]


@pytest.mark.parametrize("variant", VARIANTS + ("COUNTER",))
@pytest.mark.parametrize("shape", SHAPES)
def test_starved_budget_spills_and_keeps_the_answer(pinned, shape, variant):
    for encoding in ("auto",) if variant == "COUNTER" else ENCODINGS:
        full = pinned[_case_id(shape, variant, encoding, "all")]
        starved = pinned[_case_id(shape, variant, encoding, "starved")]
        assert starved["digest"] == full["digest"]
        assert starved["page_writes"] > full["page_writes"]
