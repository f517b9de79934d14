"""Only :class:`XmlParseError` may leave ``xmlmodel`` on hostile input:
no ``RecursionError`` from depth, no ``OverflowError`` or lone surrogate
from a character reference."""

import sys

import pytest

from repro.errors import XmlParseError
from repro.xmlmodel.nodes import Document, Element, validate_regions
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize

DEPTH = 5000


def nested(depth, leaf="x"):
    return "<a>" * depth + leaf + "</a>" * depth


class TestDepth:
    def test_depth_past_the_recursion_limit(self):
        assert DEPTH > sys.getrecursionlimit()
        assert parse("<a>" * 500 + "</a>" * 500).max_depth() == 499

    def test_round_trip_at_depth(self):
        text = nested(DEPTH)
        doc = parse(text)
        assert doc.element_count() == DEPTH
        assert doc.max_depth() == DEPTH - 1
        assert serialize(doc) == text
        pretty = serialize(doc, pretty=True)
        again = parse(pretty)
        assert again.element_count() == DEPTH
        assert again.elements[-1].text == "x"
        assert serialize(again, pretty=True) == pretty

    def test_regions_at_depth(self):
        doc = parse(nested(DEPTH))
        regions = [(n.start, n.end, n.level, n.node_id) for n in doc.elements]
        assert regions[0] == (0, 2 * DEPTH - 1, 0, 0)
        assert regions[-1] == (DEPTH - 1, DEPTH, DEPTH - 1, DEPTH - 1)
        doc.reindex()
        assert regions == [
            (n.start, n.end, n.level, n.node_id) for n in doc.elements
        ]
        validate_regions(doc)

    def test_full_text_and_round_trip_at_depth(self):
        text = nested(DEPTH, leaf=" x ")
        doc = parse(text)
        assert doc.root.full_text() == "x"
        assert doc.elements[-1].full_text() == "x"
        assert serialize(doc) == text
        again = parse(serialize(doc))
        assert again.element_count() == DEPTH
        assert serialize(again) == text

    def test_hand_built_tree_at_depth(self):
        root = Element("r", text=" top ")
        cursor = root
        for index in range(DEPTH):
            cursor = cursor.make_child("n", text=f" {index} ")
        doc = Document(root)
        validate_regions(doc)
        assert doc.max_depth() == DEPTH
        assert root.full_text().startswith("top 0 1 2")
        assert parse(serialize(doc)).element_count() == DEPTH + 1


class TestFullText:
    def test_strips_at_every_level_like_the_recursive_definition(self):
        doc = parse("<a> x <b> y <c> z </c> w </b> v </a>")

        def recursive(element):
            parts = list(element.text_chunks)
            parts.extend(recursive(child) for child in element.children)
            return "".join(parts).strip()

        for element in doc.elements:
            assert element.full_text() == recursive(element)
        assert doc.root.full_text() == "x  v y  w z"


class TestText:
    def test_single_and_many_chunks(self):
        assert Element("a").text == ""
        assert Element("a", text="  one ").text == "one"
        assert parse("<a> one<b/>two </a>").root.text == "onetwo"
        assert parse("<a> <b/> </a>").root.text == ""


class TestCharacterReferences:
    REJECTED = {
        "overflow": "&#99999999999999999999;",  # OverflowError in chr()
        "40-hex-digits": "&#x" + "F" * 40 + ";",
        "5000-digits": "&#" + "9" * 5000 + ";",  # past int()'s own limit
        "past-last-code-point": "&#1114112;",
        "past-last-code-point-hex": "&#x110000;",
        "space-before": "&# 65;",
        "space-after": "&#65 ;",
        "plus-sign": "&#+65;",
        "minus-sign": "&#-0;",
        "underscore": "&#1_0;",
        "hex-underscore": "&#x4_1;",
        "hex-prefix-twice": "&#x0x41;",
        "arabic-indic-digits": "&#\u0666\u0665;",
        "first-surrogate": "&#xD800;",
        "last-surrogate": "&#xDFFF;",
        "decimal-surrogate": "&#55296;",
        "no-digits": "&#;",
        "no-hex-digits": "&#x;",
        "not-hex": "&#xZZ;",
    }

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_rejected_with_the_existing_error(self, name):
        reference = self.REJECTED[name]
        for text in (f"<a>{reference}</a>", f'<a x="{reference}"/>'):
            with pytest.raises(XmlParseError) as caught:
                parse(text)
            assert str(caught.value).startswith(
                f"bad character reference {reference} (line 1, column "
            )

    ACCEPTED = {
        "decimal": ("&#65;", "A"),
        "hex": ("&#x41;", "A"),
        "hex-capital-x": ("&#X41;", "A"),
        "beyond-bmp": ("&#x1F338;", "\U0001f338"),
        "last-code-point": ("&#x10FFFF;", "\U0010ffff"),
        "below-surrogates": ("&#xD7FF;", "\ud7ff"),
        "above-surrogates": ("&#xE000;", "\ue000"),
        "leading-zeros": ("&#0000000000000000000065;", "A"),
        "hex-leading-zeros": ("&#x000000000000000000041;", "A"),
        "newline": ("&#10;", "\n"),
    }

    @pytest.mark.parametrize("name", sorted(ACCEPTED))
    def test_accepted(self, name):
        reference, char = self.ACCEPTED[name]
        doc = parse(f'<a x="{reference}">{reference}</a>')
        assert doc.root.text_chunks == [char]
        assert doc.root.attrs == {"x": char}
        # No reference can make the tree unencodable any more.
        serialize(doc).encode("utf-8")

    def test_error_position_is_the_end_of_the_run(self):
        with pytest.raises(XmlParseError) as caught:
            parse("<a>\n  ok &#xD800; more\n</a>")
        assert (caught.value.line, caught.value.column) == (3, 1)
