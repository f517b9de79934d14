"""Golden parse -> AST -> compile fixtures on the Figure-1 workload.

Each ``tests/lang/golden/*.json`` fixture pins one statement form:
its canonical pretty-print, the catalog cube it addresses, and the
exact :class:`~repro.core.query.Query` wire form it compiles to.  The
executable fixtures are then run against BOTH backends and must answer
bit-identically to the equivalent programmatic query — the language
front end adds syntax, never semantics.

Regenerate after a deliberate grammar change with::

    PYTHONPATH=src python tests/lang/generate_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.cluster import ClusterCoordinator
from repro.core.extract import extract_fact_table
from repro.core.properties import PropertyOracle
from repro.core.query import Query
from repro.datagen.publications import QUERY1_TEXT, figure1_document
from repro.lang import parse_x3_query
from repro.lang.ast import X3Statement, pretty
from repro.lang.compiler import (
    CompiledDefinition,
    CompiledQuery,
    compile_statement,
)
from repro.lang.parser import parse_statement
from repro.serve import CubeServer
from repro.server.model import CubeCatalog, LogicalCube

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_NAMES = sorted(path.stem for path in GOLDEN_DIR.glob("*.json"))

BACKENDS = ("serve", "cluster")


def load(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


@pytest.fixture(scope="module")
def table():
    return extract_fact_table(
        [figure1_document()], parse_x3_query(QUERY1_TEXT)
    )


def make_backend(kind, table):
    oracle = PropertyOracle.from_data(table)
    if kind == "cluster":
        return ClusterCoordinator(
            table, 2, 2, oracle=oracle, hedge_deadline_seconds=None
        )
    return CubeServer(table, oracle)


def make_catalog(backend):
    catalog = CubeCatalog()
    catalog.register(
        LogicalCube.from_lattice("pubs", backend.lattice), backend
    )
    return catalog


def close(backend):
    closer = getattr(backend, "close", None)
    if callable(closer):
        closer()


def test_every_verb_has_a_fixture():
    covered = {load(name)["form"] for name in GOLDEN_NAMES}
    assert covered >= {
        "ROLLUP", "DRILLDOWN", "SLICE", "DICE", "CELL", "EXPLAIN", "X^3"
    }


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_parse_is_canonical(name, table):
    fixture = load(name)
    statement = parse_statement(fixture["text"])
    assert pretty(statement) == fixture["pretty"]
    assert parse_statement(pretty(statement)) == statement


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_compile_matches_the_pinned_wire_form(name, table):
    fixture = load(name)
    backend = make_backend("serve", table)
    try:
        catalog = make_catalog(backend)
        compiled = compile_statement(
            parse_statement(fixture["text"]), catalog
        )
        if "definition" in fixture:
            assert isinstance(compiled, CompiledDefinition)
            spec = compiled.spec
            assert spec.to_flwor() == fixture["definition"]["flwor"]
            assert spec.fact_tag == fixture["definition"]["fact_tag"]
            assert spec.document == fixture["definition"]["document"]
            assert (
                spec.lattice().size()
                == fixture["definition"]["lattice_points"]
            )
            # The new front end and the legacy one agree exactly.
            assert spec == parse_x3_query(fixture["text"])
        else:
            assert isinstance(compiled, CompiledQuery)
            assert compiled.cube == fixture["cube"]
            assert compiled.explain == fixture["explain"]
            assert compiled.query.to_dict() == fixture["query"]
            # The wire form round-trips to the identical frozen Query.
            assert Query.from_dict(fixture["query"]) == compiled.query
    finally:
        close(backend)


@pytest.mark.parametrize("backend_kind", BACKENDS)
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_answers_bit_identical_to_programmatic(
    name, backend_kind, table
):
    """The compiled text query and the equivalent programmatic Query
    produce byte-for-byte the same result envelope, on each backend
    (fresh instances on both sides, so cache state cannot differ)."""
    fixture = load(name)
    if "definition" in fixture:
        pytest.skip("definitions describe a cube; nothing to execute")

    lang_backend = make_backend(backend_kind, table)
    prog_backend = make_backend(backend_kind, table)
    try:
        catalog = make_catalog(lang_backend)
        compiled = compile_statement(
            parse_statement(fixture["text"]), catalog
        )
        programmatic = Query.from_dict(fixture["query"])
        if fixture["explain"]:
            lang_answer = lang_backend.explain_query(
                compiled.query
            ).to_dict()
            prog_answer = prog_backend.explain_query(
                programmatic
            ).to_dict()
        else:
            lang_answer = lang_backend.query(compiled.query).to_dict()
            prog_answer = prog_backend.query(programmatic).to_dict()
        assert json.dumps(lang_answer, sort_keys=True) == json.dumps(
            prog_answer, sort_keys=True
        )
    finally:
        close(lang_backend)
        close(prog_backend)


def test_x3_fixture_is_the_figure1_query():
    fixture = load("x3")
    statement = parse_statement(fixture["text"])
    assert isinstance(statement, X3Statement)
    assert fixture["text"] == QUERY1_TEXT
