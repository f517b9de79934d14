"""Unit tests for the reference TAX-style witness grouping and value
predicates."""

import pytest

from repro.datagen.publications import figure1_document
from repro.errors import PatternError
from repro.patterns.parse import parse_pattern
from repro.xmlmodel.parser import parse
from tests.prop.reference_match import (
    group_count,
    group_witnesses,
    grouping_basis,
    match_document,
)


class TestSection21Example:
    """The paper's Sec. 2.1 walk-through, verbatim."""

    def test_year_groups(self):
        doc = figure1_document()
        pattern = parse_pattern("//publication/year=$y")
        witnesses = match_document(doc, pattern)
        assert len(witnesses) == 4  # pub2 matched twice
        counts = group_count(witnesses, ["$y"])
        assert counts == {
            ("2003",): 2,  # first and third publications
            ("2004",): 1,  # second publication
            ("2005",): 1,  # second publication again
        }

    def test_witness_counts_vs_root_counts(self):
        doc = figure1_document()
        pattern = parse_pattern("//publication/year=$y")
        witnesses = match_document(doc, pattern)
        raw = group_count(witnesses, ["$y"], distinct_roots=False)
        assert raw == {("2003",): 2, ("2004",): 1, ("2005",): 1}


class TestGroupWitnesses:
    def test_multi_label_key(self):
        doc = figure1_document()
        pattern = parse_pattern(
            "//publication[/author/name=$n][/year=$y]"
        )
        groups = group_witnesses(match_document(doc, pattern), ["$n", "$y"])
        assert ("John", "2003") in groups
        assert ("Jane", "2003") in groups

    def test_empty_grouping_list_rejected(self):
        with pytest.raises(PatternError):
            group_witnesses([], [])

    def test_grouping_basis(self):
        pattern = parse_pattern("//publication=$b[/year=$y][/author=$a]")
        assert set(grouping_basis(pattern)) == {"$y", "$a"}


class TestValuePredicates:
    def test_parse_signature(self):
        pattern = parse_pattern('//book[/year="2003"]')
        assert 'year="2003"' in pattern.signature()

    def test_element_value_filter(self):
        doc = figure1_document()
        pattern = parse_pattern('//publication[/year="2003"]')
        witnesses = match_document(doc, pattern)
        # pub1 and pub3 both have a direct year child with value 2003.
        assert len(witnesses) == 2
        pattern = parse_pattern('//publication[/year="2004"]')
        assert len(match_document(doc, pattern)) == 1  # pub2 only

    def test_attribute_value_filter(self):
        doc = figure1_document()
        pattern = parse_pattern('//publication[//publisher[/@id="p1"]]')
        witnesses = match_document(doc, pattern)
        assert len(witnesses) == 1

    def test_root_value_filter(self):
        doc = parse("<r><x>a</x><x>b</x></r>")
        pattern = parse_pattern('//x="a"')
        assert len(match_document(doc, pattern)) == 1

    def test_unterminated_value_rejected(self):
        from repro.errors import PatternParseError

        with pytest.raises(PatternParseError):
            parse_pattern('//a[/b="oops]')

    def test_clone_preserves_value_test(self):
        pattern = parse_pattern('//a[/b="x"]')
        assert pattern.clone().signature() == pattern.signature()
