"""Unit tests for the X^3QL compiler (AST -> Query / X3Query)."""

import pytest

from repro.core.extract import extract_fact_table
from repro.core.properties import PropertyOracle
from repro.core.query import Query, X3Query
from repro.datagen.publications import QUERY1_TEXT, figure1_document
from repro.errors import (
    InvalidQuery,
    QueryCompileError,
    QueryParseError,
    UnknownCube,
)
from repro.lang import parse_x3_query
from repro.lang.compiler import (
    LANG_SECONDS_PER_STATEMENT,
    LANG_SECONDS_PER_TOKEN,
    VERB_KINDS,
    CompiledDefinition,
    CompiledQuery,
    compile_statement,
    compile_text,
    compile_x3,
    modeled_lang_seconds,
)
from repro.lang.parser import parse_statement
from repro.serve import CubeServer
from repro.server.model import CubeCatalog, LogicalCube


@pytest.fixture(scope="module")
def figure1_table():
    return extract_fact_table(
        [figure1_document()], parse_x3_query(QUERY1_TEXT)
    )


@pytest.fixture()
def catalog(figure1_table):
    server = CubeServer(
        figure1_table, PropertyOracle.from_data(figure1_table)
    )
    catalog = CubeCatalog()
    catalog.register(
        LogicalCube.from_lattice("pubs", server.lattice), server
    )
    return catalog


def compile_one(text, catalog):
    return compile_statement(parse_statement(text), catalog)


class TestVerbKinds:
    def test_every_verb_maps_to_a_query_kind(self):
        from repro.core.query import QUERY_KINDS
        from repro.lang.ast import NAV_VERBS

        assert set(VERB_KINDS) == set(NAV_VERBS)
        assert set(VERB_KINDS.values()) == set(QUERY_KINDS)


class TestCompileNav:
    def test_rollup_point(self, catalog):
        compiled = compile_one(
            "ROLLUP pubs BY n:detail, y:detail", catalog
        )
        assert isinstance(compiled, CompiledQuery)
        assert compiled.cube == "pubs"
        assert compiled.query == Query(
            point="$n:rigid, $p:LND, $y:rigid", kind="aggregate"
        )
        assert not compiled.explain

    def test_unmentioned_dimensions_default_to_all(self, catalog):
        compiled = compile_one("ROLLUP pubs", catalog)
        assert compiled.query.point == "$n:LND, $p:LND, $y:LND"

    def test_raw_state_labels_pass_through(self, catalog):
        compiled = compile_one("ROLLUP pubs BY n:SP", catalog)
        assert compiled.query.point == "$n:SP, $p:LND, $y:LND"

    def test_drilldown_axis_resolved(self, catalog):
        compiled = compile_one("DRILLDOWN pubs ON n", catalog)
        assert compiled.query.kind == "drilldown"
        assert compiled.query.axis == "$n"

    def test_slice(self, catalog):
        compiled = compile_one(
            "SLICE pubs ON y = '2003' BY n:detail, y:detail", catalog
        )
        assert compiled.query.kind == "slice"
        assert compiled.query.axis == "$y"
        assert compiled.query.value == "2003"

    def test_dice_filters_resolve_dimension_names(self, catalog):
        compiled = compile_one(
            "DICE pubs BY y:detail WHERE y IN ('2003', '2004')",
            catalog,
        )
        assert compiled.query.filters == (("$y", ("2003", "2004")),)

    def test_cell_key(self, catalog):
        compiled = compile_one(
            "CELL pubs KEY ('John', NULL) BY n:detail, y:detail",
            catalog,
        )
        assert compiled.query.kind == "cell"
        assert compiled.query.key == ("John", None)

    def test_explain_flag(self, catalog):
        compiled = compile_one("EXPLAIN ROLLUP pubs", catalog)
        assert compiled.explain

    def test_version_deadline_measure(self, catalog):
        compiled = compile_one(
            "ROLLUP pubs AT VERSION 0 WITHIN 50ms MEASURE COUNT",
            catalog,
        )
        assert compiled.query.read_version == (0,)
        assert compiled.query.deadline_seconds == 0.05
        assert compiled.query.measure == "COUNT"

    def test_unknown_cube_passes_through(self, catalog):
        with pytest.raises(UnknownCube):
            compile_one("ROLLUP nope", catalog)

    def test_unknown_dimension_is_a_compile_error(self, catalog):
        with pytest.raises(QueryCompileError) as excinfo:
            compile_one("ROLLUP pubs BY bogus:detail", catalog)
        assert excinfo.value.line == 1
        assert excinfo.value.column == 16
        assert isinstance(excinfo.value, InvalidQuery)

    def test_unknown_level_is_a_compile_error(self, catalog):
        with pytest.raises(QueryCompileError, match="level"):
            compile_one("ROLLUP pubs BY n:bogus", catalog)

    def test_duplicate_by_dimension(self, catalog):
        with pytest.raises(QueryCompileError, match="assigned twice"):
            compile_one("ROLLUP pubs BY n:detail, n:all", catalog)

    def test_where_on_non_dice_is_rejected(self, catalog):
        with pytest.raises(QueryCompileError, match="DICE only"):
            compile_one("ROLLUP pubs WHERE y = '2003'", catalog)

    def test_duplicate_where_dimension(self, catalog):
        with pytest.raises(QueryCompileError, match="filtered twice"):
            compile_one(
                "DICE pubs WHERE y = '2003' AND y = '2004'", catalog
            )

    def test_unknown_where_dimension(self, catalog):
        with pytest.raises(QueryCompileError, match="bogus"):
            compile_one("DICE pubs WHERE bogus = 'x'", catalog)


class TestCompileX3:
    def test_query1_matches_the_legacy_front_end(self, catalog):
        compiled = compile_one(QUERY1_TEXT, catalog)
        assert isinstance(compiled, CompiledDefinition)
        assert isinstance(compiled.spec, X3Query)
        assert compiled.spec == parse_x3_query(QUERY1_TEXT)

    def test_axis_must_be_fact_relative(self):
        statement = parse_statement(
            'for $b in doc("d.xml")//f, $n in $b/a, $m in $n/x '
            "X^3 $b by $n (LND), $m (LND) return COUNT()."
        )
        with pytest.raises(QueryParseError, match="relative to the fact"):
            compile_x3(statement)

    def test_unbound_by_variable(self):
        statement = parse_statement(
            'for $b in doc("d.xml")//f, $n in $b/a '
            "X^3 $b by $z (LND) return COUNT()."
        )
        with pytest.raises(QueryParseError, match="unbound variable"):
            compile_x3(statement)

    def test_binding_missing_from_by_clause(self):
        statement = parse_statement(
            'for $b in doc("d.xml")//f, $n in $b/a, $m in $b/c '
            "X^3 $b by $n (LND) return COUNT()."
        )
        with pytest.raises(QueryParseError, match="missing"):
            compile_x3(statement)

    def test_unknown_relaxation_carries_position(self):
        statement = parse_statement(
            'for $b in doc("d.xml")//f, $n in $b/a '
            "X^3 $b by $n (WAT) return COUNT()."
        )
        with pytest.raises(QueryParseError) as excinfo:
            compile_x3(statement)
        assert excinfo.value.line == 1

    def test_bad_aggregate(self):
        statement = parse_statement(
            'for $b in doc("d.xml")//f, $n in $b/a '
            "X^3 $b by $n (LND) return FROB()."
        )
        with pytest.raises(QueryParseError):
            compile_x3(statement)

    def test_measure_path_from_aggregate_argument(self):
        statement = parse_statement(
            'for $b in doc("d.xml")//f, $n in $b/a '
            "X^3 $b/@id by $n (LND) return SUM($b/price)."
        )
        spec = compile_x3(statement)
        assert spec.aggregate.function.upper() == "SUM"
        assert spec.aggregate.measure_path == "price"
        assert spec.fact_id_path == "@id"

    def test_bare_fact_measure_means_node_identity(self):
        statement = parse_statement(
            'for $b in doc("d.xml")//f, $n in $b/a '
            "X^3 $b by $n (LND) return COUNT()."
        )
        assert compile_x3(statement).fact_id_path == ""


class TestCompileText:
    def test_charges_the_token_cost_model(self, catalog):
        text = "ROLLUP pubs BY n:detail"
        compiled = compile_text(text, catalog)
        # ROLLUP pubs BY n : detail -> 6 tokens (EOF free).
        assert compiled.modeled_seconds == modeled_lang_seconds(6)
        assert compiled.modeled_seconds == pytest.approx(
            LANG_SECONDS_PER_STATEMENT + 6 * LANG_SECONDS_PER_TOKEN
        )

    def test_definition_carries_the_cost_too(self, catalog):
        compiled = compile_text(QUERY1_TEXT, catalog)
        assert isinstance(compiled, CompiledDefinition)
        assert compiled.modeled_seconds > LANG_SECONDS_PER_STATEMENT

    def test_cost_grows_with_statement_size(self, catalog):
        small = compile_text("ROLLUP pubs", catalog)
        large = compile_text(
            "ROLLUP pubs BY n:detail, p:detail, y:detail", catalog
        )
        assert large.modeled_seconds > small.modeled_seconds

    def test_single_statement_only(self, catalog):
        with pytest.raises(QueryParseError, match="one statement"):
            compile_text("ROLLUP pubs; ROLLUP pubs", catalog)

    def test_trailing_semicolon_allowed(self, catalog):
        compiled = compile_text("ROLLUP pubs;", catalog)
        assert compiled.query.kind == "aggregate"
