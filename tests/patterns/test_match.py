"""Unit tests for the reference witness-tree matcher (Sec. 2.1)."""

import pytest

from repro.datagen.publications import figure1_document
from repro.patterns.parse import parse_pattern
from repro.xmlmodel.parser import parse
from tests.prop.reference_match import match_document


def witnesses_of(doc, pattern_text):
    return match_document(doc, parse_pattern(pattern_text))


class TestBasicMatching:
    def test_paper_year_example(self):
        # "a simple tree pattern seeking a year node as child of a
        # publication node will match the first three publications ...
        # and actually match the second publication twice."
        doc = figure1_document()
        witnesses = witnesses_of(doc, "//publication/year=$y")
        # 4 witnesses: pub1 once, pub2 twice, pub3 once.
        assert len(witnesses) == 4
        assert len({id(witness.root_binding) for witness in witnesses}) == 3
        years = sorted(witness.value_of("$y") for witness in witnesses)
        assert years == ["2003", "2003", "2004", "2005"]

    def test_root_axis_child_anchors_at_root(self):
        doc = parse("<a><a/></a>")
        pattern = parse_pattern("a")
        assert len(match_document(doc, pattern)) == 1

    def test_root_axis_descendant(self):
        doc = parse("<a><a/></a>")
        pattern = parse_pattern("//a")
        assert len(match_document(doc, pattern)) == 2

    def test_branching_cross_product(self):
        doc = parse(
            "<r><f><x>1</x><x>2</x><y>A</y><y>B</y></f></r>"
        )
        witnesses = witnesses_of(doc, "//f[/x=$x][/y=$y]")
        pairs = sorted(
            (w.value_of("$x"), w.value_of("$y")) for w in witnesses
        )
        assert pairs == [("1", "A"), ("1", "B"), ("2", "A"), ("2", "B")]

    def test_non_matching_required_branch(self):
        doc = parse("<r><f><x/></f></r>")
        witnesses = witnesses_of(doc, "//f[/x][/y]")
        assert witnesses == []


class TestOptionalNodes:
    def test_outer_join_null(self):
        doc = parse("<r><f><x>1</x></f><f/></r>")
        witnesses = witnesses_of(doc, "//f[/x?=$x]")
        values = sorted(
            (witness.value_of("$x") or "-") for witness in witnesses
        )
        assert values == ["-", "1"]

    def test_nulls_cascade_below_optional(self):
        doc = parse("<r><f/></r>")
        pattern = parse_pattern("//f[/a?=$a/b=$b]")
        witnesses = match_document(doc, pattern)
        assert len(witnesses) == 1
        assert witnesses[0].by_label("$a") is None
        assert witnesses[0].by_label("$b") is None

    def test_optional_with_matches_binds_them(self):
        doc = parse("<r><f><x>1</x><x>2</x></f></r>")
        witnesses = witnesses_of(doc, "//f[/x?=$x]")
        values = sorted(witness.value_of("$x") for witness in witnesses)
        assert values == ["1", "2"]  # no extra null witness


class TestAttributes:
    def test_child_attribute(self):
        doc = parse('<r><f id="7"/></r>')
        witnesses = witnesses_of(doc, "//f[/@id=$i]")
        assert witnesses[0].value_of("$i") == "7"

    def test_missing_attribute_no_match(self):
        doc = parse("<r><f/></r>")
        assert witnesses_of(doc, "//f[/@id=$i]") == []

    def test_descendant_attribute_excludes_self(self):
        doc = parse('<r><f id="self"><g id="deep"/></f></r>')
        witnesses = witnesses_of(doc, "//f[//@id=$i]")
        assert [w.value_of("$i") for w in witnesses] == ["deep"]


class TestDescendantEdges:
    def test_pc_ad_recovers_nested(self):
        doc = figure1_document()
        rigid = witnesses_of(doc, "//publication/author/name=$n")
        relaxed = witnesses_of(doc, "//publication//author//name=$n")
        assert len(relaxed) > len(rigid)
        relaxed_names = {w.value_of("$n") for w in relaxed}
        assert "Smith" in relaxed_names

    def test_value_of_unknown_label(self):
        doc = parse("<r><f/></r>")
        pattern = parse_pattern("//f=$f")
        witness = match_document(doc, pattern)[0]
        with pytest.raises(KeyError):
            witness.by_label("$zzz")


class TestWildcardRoot:
    def test_star_root_memory(self):
        doc = parse("<a><b/></a>")
        pattern = parse_pattern("//*")
        assert len(match_document(doc, pattern)) == 2
