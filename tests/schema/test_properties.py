"""Unit tests for Sec. 3.7 schema-based property reasoning."""

from repro.datagen.dblp import dblp_dtd
from repro.schema.dtd import Cardinality, Dtd
from repro.schema.properties import (
    PropertyVerdict,
    axis_coverage,
    axis_disjointness,
    path_cardinality,
)
from repro.patterns.parse import parse_steps


def pub_dtd() -> Dtd:
    dtd = Dtd()
    dtd.declare_element(
        "publication",
        children=[
            ("author", Cardinality.STAR),
            ("publisher", Cardinality.OPTIONAL),
            ("year", Cardinality.ONE),
        ],
        attributes=["id"],
    )
    dtd.declare_element("author", children=[("name", Cardinality.ONE)])
    dtd.declare_element("name", has_text=True)
    dtd.declare_element("publisher")
    dtd.declare_element("year", has_text=True)
    dtd.get("publisher").attributes["id"] = type(
        dtd.get("publication").attributes["id"]
    )("id", required=True)
    return dtd


class TestPathCardinality:
    def test_mandatory_unique_child(self):
        card = path_cardinality(pub_dtd(), "publication", parse_steps("year"))
        assert card is Cardinality.ONE

    def test_optional_child(self):
        card = path_cardinality(
            pub_dtd(), "publication", parse_steps("publisher")
        )
        assert card is Cardinality.OPTIONAL

    def test_star_chain(self):
        card = path_cardinality(
            pub_dtd(), "publication", parse_steps("author/name")
        )
        assert card is Cardinality.STAR

    def test_required_attribute(self):
        card = path_cardinality(
            pub_dtd(), "publication", parse_steps("publisher/@id")
        )
        # publisher optional, @id required: whole path optional.
        assert card is Cardinality.OPTIONAL

    def test_undeclared_tag_unknown(self):
        assert (
            path_cardinality(pub_dtd(), "mystery", parse_steps("x")) is None
        )

    def test_dead_path_optional(self):
        card = path_cardinality(pub_dtd(), "publication", parse_steps("name"))
        assert card is Cardinality.OPTIONAL


class TestVerdicts:
    def test_disjointness_holds_for_year(self):
        verdict = axis_disjointness(
            pub_dtd(), "publication", parse_steps("year")
        )
        assert verdict is PropertyVerdict.HOLDS

    def test_disjointness_fails_for_author(self):
        verdict = axis_disjointness(
            pub_dtd(), "publication", parse_steps("author/name")
        )
        assert verdict is PropertyVerdict.FAILS

    def test_coverage_fails_for_publisher(self):
        verdict = axis_coverage(
            pub_dtd(), "publication", parse_steps("publisher")
        )
        assert verdict is PropertyVerdict.FAILS

    def test_coverage_holds_for_year(self):
        verdict = axis_coverage(pub_dtd(), "publication", parse_steps("year"))
        assert verdict is PropertyVerdict.HOLDS

    def test_unknown_for_undeclared(self):
        verdict = axis_coverage(pub_dtd(), "alien", parse_steps("x"))
        assert verdict is PropertyVerdict.UNKNOWN


class TestDblpVerdicts:
    def test_paper_facts(self):
        dtd = dblp_dtd()
        checks = {
            "author": (PropertyVerdict.FAILS, PropertyVerdict.FAILS),
            "month": (PropertyVerdict.HOLDS, PropertyVerdict.FAILS),
            "year": (PropertyVerdict.HOLDS, PropertyVerdict.HOLDS),
            "journal": (PropertyVerdict.HOLDS, PropertyVerdict.HOLDS),
        }
        for tag, (disjoint, coverage) in checks.items():
            steps = parse_steps(tag)
            assert axis_disjointness(dtd, "article", steps) is disjoint
            assert axis_coverage(dtd, "article", steps) is coverage
