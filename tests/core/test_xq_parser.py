"""Unit tests for the augmented FLWOR parser (Query 1 syntax),
:func:`repro.lang.parse_x3_query`."""

import pytest

from repro.datagen.publications import QUERY1_TEXT
from repro.errors import QueryParseError
from repro.lang import parse_x3_query
from repro.patterns.pattern import EdgeAxis
from repro.patterns.relaxation import Relaxation


class TestQuery1:
    def test_fact_binding(self):
        query = parse_x3_query(QUERY1_TEXT)
        assert query.fact_tag == "publication"
        assert query.document == "book.xml"
        assert query.fact_id_path == "@id"

    def test_axes_order_and_paths(self):
        query = parse_x3_query(QUERY1_TEXT)
        assert [axis.name for axis in query.axes] == ["$n", "$p", "$y"]
        n, p, y = query.axes
        assert n.steps == (
            (EdgeAxis.CHILD, "author"), (EdgeAxis.CHILD, "name"),
        )
        assert p.steps == (
            (EdgeAxis.DESCENDANT, "publisher"), (EdgeAxis.CHILD, "@id"),
        )
        assert y.steps == ((EdgeAxis.CHILD, "year"),)

    def test_relaxations(self):
        query = parse_x3_query(QUERY1_TEXT)
        n, p, y = query.axes
        assert n.relaxations == {
            Relaxation.LND, Relaxation.SP, Relaxation.PC_AD,
        }
        assert p.relaxations == {Relaxation.LND, Relaxation.PC_AD}
        assert y.relaxations == {Relaxation.LND}

    def test_aggregate(self):
        query = parse_x3_query(QUERY1_TEXT)
        assert query.aggregate.function == "COUNT"


class TestVariants:
    def test_operator_spellings(self):
        for glyph in ("X^3", "X3", 'X"3', "X~3"):
            text = (
                'for $b in doc("d.xml")//f, $a in $b/x '
                f"{glyph} $b/@id by $a (LND) return COUNT($b)."
            )
            query = parse_x3_query(text)
            assert query.axes[0].name == "$a"

    def test_sum_aggregate_with_measure(self):
        text = (
            'for $s in doc("sales.xml")//sale, $r in $s/region '
            "X^3 $s/@id by $r (LND) return SUM($s/@amount)."
        )
        query = parse_x3_query(text)
        assert query.aggregate.function == "SUM"
        assert query.aggregate.measure_path == "@amount"

    def test_fact_identity_without_id(self):
        text = (
            'for $f in doc("d.xml")//f, $a in $f/x '
            "X^3 $f by $a (LND) return COUNT($f)."
        )
        assert parse_x3_query(text).fact_id_path == ""


class TestErrors:
    def test_missing_x3_clause(self):
        with pytest.raises(QueryParseError):
            parse_x3_query(
                'for $b in doc("d.xml")//f return COUNT($b).'
            )

    def test_missing_doc_binding(self):
        with pytest.raises(QueryParseError):
            parse_x3_query(
                "for $b in //f, $a in $b/x X^3 $b by $a (LND) "
                "return COUNT($b)."
            )

    def test_axis_not_relative_to_fact(self):
        with pytest.raises(QueryParseError):
            parse_x3_query(
                'for $b in doc("d.xml")//f, $a in $q/x '
                "X^3 $b by $a (LND) return COUNT($b)."
            )

    def test_unbound_variable_in_by(self):
        with pytest.raises(QueryParseError):
            parse_x3_query(
                'for $b in doc("d.xml")//f, $a in $b/x '
                "X^3 $b by $zz (LND) return COUNT($b)."
            )

    def test_variable_missing_from_by(self):
        with pytest.raises(QueryParseError):
            parse_x3_query(
                'for $b in doc("d.xml")//f, $a in $b/x, $c in $b/y '
                "X^3 $b by $a (LND) return COUNT($b)."
            )

    def test_unknown_relaxation(self):
        with pytest.raises(Exception):
            parse_x3_query(
                'for $b in doc("d.xml")//f, $a in $b/x '
                "X^3 $b by $a (WARP) return COUNT($b)."
            )
