"""Unit tests for the tree-pattern textual syntax."""

import pytest

from repro.errors import PatternParseError
from repro.patterns.parse import parse_pattern, parse_steps
from repro.patterns.pattern import EdgeAxis


class TestParsePattern:
    def test_bare_name(self):
        pattern = parse_pattern("publication")
        assert pattern.root.test == "publication"
        assert pattern.root_axis is EdgeAxis.CHILD

    def test_double_slash_root(self):
        pattern = parse_pattern("//publication")
        assert pattern.root_axis is EdgeAxis.DESCENDANT

    def test_spine(self):
        pattern = parse_pattern("//a/b//c")
        b = pattern.root.children[0]
        c = b.children[0]
        assert b.axis is EdgeAxis.CHILD
        assert c.axis is EdgeAxis.DESCENDANT

    def test_predicates(self):
        pattern = parse_pattern("//a[/b][.//c]")
        tests = [child.test for child in pattern.root.children]
        axes = [child.axis for child in pattern.root.children]
        assert tests == ["b", "c"]
        assert axes == [EdgeAxis.CHILD, EdgeAxis.DESCENDANT]

    def test_dot_slash_predicate(self):
        pattern = parse_pattern("publication[./author][.//name]")
        axes = [child.axis for child in pattern.root.children]
        assert axes == [EdgeAxis.CHILD, EdgeAxis.DESCENDANT]

    def test_labels(self):
        pattern = parse_pattern("//a[/b=$x]/c=$y")
        assert set(pattern.labelled()) == {"$x", "$y"}

    def test_optional_flag(self):
        pattern = parse_pattern("//a/b?")
        assert pattern.root.children[0].optional

    def test_attribute_leaf(self):
        pattern = parse_pattern("//a[/@id=$i]")
        leaf = pattern.root.children[0]
        assert leaf.is_attribute and leaf.label == "$i"

    def test_nested_predicates(self):
        pattern = parse_pattern("//a[/b[/c][/d]]/e")
        b = pattern.root.children[0]
        assert [child.test for child in b.children] == ["c", "d"]
        assert pattern.root.children[1].test == "e"

    def test_query1_shape(self):
        text = "//publication[/@id][/author/name=$n][//publisher/@id=$p][/year=$y]"
        pattern = parse_pattern(text)
        assert pattern.size() == 7
        assert set(pattern.labelled()) == {"$n", "$p", "$y"}

    @pytest.mark.parametrize(
        "bad",
        ["", "//", "//a[", "//a]", "//a[/b", "//a/", "//a[=$x]", "//a b"],
    )
    def test_malformed(self, bad):
        with pytest.raises(PatternParseError):
            parse_pattern(bad)


class TestParseSteps:
    def test_child_chain(self):
        steps = parse_steps("author/name")
        assert steps == [
            (EdgeAxis.CHILD, "author"), (EdgeAxis.CHILD, "name"),
        ]

    def test_leading_descendant(self):
        steps = parse_steps("//publisher/@id")
        assert steps == [
            (EdgeAxis.DESCENDANT, "publisher"), (EdgeAxis.CHILD, "@id"),
        ]

    def test_attribute_must_be_last(self):
        with pytest.raises(PatternParseError):
            parse_steps("a/@id/b")

    def test_single_attribute(self):
        assert parse_steps("@id") == [(EdgeAxis.CHILD, "@id")]

    def test_descendant_chain(self):
        assert parse_steps("//a//b") == [
            (EdgeAxis.DESCENDANT, "a"), (EdgeAxis.DESCENDANT, "b"),
        ]

    @pytest.mark.parametrize("bad", ["", "a//", "a//@", "a/", "@"])
    def test_empty_steps(self, bad):
        with pytest.raises(PatternParseError):
            parse_steps(bad)
