"""Unit tests for the hand-written XML parser."""

import pytest

from repro.errors import XmlParseError
from repro.xmlmodel.parser import parse, parse_file


class TestBasics:
    def test_single_empty_element(self):
        doc = parse("<a/>")
        assert doc.root.tag == "a"
        assert doc.root.children == []

    def test_nested_elements(self):
        doc = parse("<a><b><c/></b><d/></a>")
        assert [node.tag for node in doc.root.iter_descendants()] == [
            "b", "c", "d",
        ]

    def test_text_content(self):
        doc = parse("<a>hello</a>")
        assert doc.root.text == "hello"

    def test_mixed_text_chunks(self):
        doc = parse("<a>one<b/>two</a>")
        assert doc.root.text == "onetwo"

    def test_attributes_double_and_single_quotes(self):
        doc = parse("""<a x="1" y='2'/>""")
        assert doc.root.attrs == {"x": "1", "y": "2"}

    def test_whitespace_in_tags(self):
        doc = parse("<a  x = \"1\" ><b /></a >")
        assert doc.root.attrs == {"x": "1"}
        assert doc.root.children[0].tag == "b"

    def test_namespaced_name_is_opaque(self):
        doc = parse("<ns:a><ns:b/></ns:a>")
        assert doc.root.tag == "ns:a"


class TestProlog:
    def test_xml_declaration(self):
        doc = parse('<?xml version="1.0" encoding="UTF-8"?><a/>')
        assert doc.root.tag == "a"

    def test_doctype_skipped(self):
        doc = parse('<!DOCTYPE a SYSTEM "a.dtd"><a/>')
        assert doc.root.tag == "a"

    def test_doctype_with_internal_subset(self):
        doc = parse("<!DOCTYPE a [<!ELEMENT a (b)*>]><a><b/></a>")
        assert doc.root.children[0].tag == "b"

    def test_leading_comment_and_pi(self):
        doc = parse("<!-- hi --><?pi data?><a/>")
        assert doc.root.tag == "a"

    def test_trailing_misc(self):
        doc = parse("<a/><!-- done -->")
        assert doc.root.tag == "a"


class TestEntitiesAndCdata:
    def test_predefined_entities(self):
        doc = parse("<a>&lt;&amp;&gt;&quot;&apos;</a>")
        assert doc.root.text == "<&>\"'"

    def test_numeric_references(self):
        doc = parse("<a>&#65;&#x42;</a>")
        assert doc.root.text == "AB"

    def test_entities_in_attributes(self):
        doc = parse('<a x="&lt;&#33;"/>')
        assert doc.root.attrs["x"] == "<!"

    def test_cdata(self):
        doc = parse("<a><![CDATA[<not/>&parsed;]]></a>")
        assert doc.root.text == "<not/>&parsed;"

    def test_comment_inside_element(self):
        doc = parse("<a>x<!-- ignore -->y</a>")
        assert doc.root.text == "xy"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<a>&nope;</a>")

    def test_bad_char_reference_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<a>&#xZZ;</a>")


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a x=1/>",
            "<a x></a>",
            '<a x="1" x="2"/>',
            "<a/><b/>",
            "<a><!-- unterminated </a>",
            "<a><![CDATA[open</a>",
            "<?xml version='1.0'<a/>",
            "<1tag/>",
        ],
    )
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(XmlParseError):
            parse(text)

    def test_error_carries_position(self):
        try:
            parse("<a>\n  <b></c>\n</a>")
        except XmlParseError as error:
            assert error.line == 2
            assert "mismatched" in str(error)
        else:  # pragma: no cover
            pytest.fail("expected XmlParseError")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<a/>junk")


class TestDocumentIntegration:
    def test_regions_assigned(self):
        doc = parse("<a><b/><c><d/></c></a>")
        starts = [node.start for node in doc.elements]
        assert starts == sorted(starts)
        assert doc.root.start == 0

    def test_document_name(self):
        doc = parse("<a/>", name="mine")
        assert doc.name == "mine"


class TestParseFile:
    """A UTF-8 file may start with a byte-order mark (what a Windows
    editor saves); a string never does."""

    TEXT = '<?xml version="1.0"?>\n<a x="1">h\u00e9llo<b/></a>\n'

    def test_bom_file_parses_like_the_file_without_it(self, tmp_path):
        plain, marked = tmp_path / "plain.xml", tmp_path / "marked.xml"
        plain.write_text(self.TEXT, encoding="utf-8")
        marked.write_text(self.TEXT, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        with_mark = parse_file(str(marked), name="d")
        without = parse_file(str(plain), name="d")
        assert with_mark.root.tag == "a"
        assert [
            (node.tag, node.attrs, node.text_chunks, node.start, node.end)
            for node in with_mark.elements
        ] == [
            (node.tag, node.attrs, node.text_chunks, node.start, node.end)
            for node in without.elements
        ]

    def test_bom_in_a_string_is_still_an_error(self):
        with pytest.raises(XmlParseError) as caught:
            parse("\ufeff" + self.TEXT)
        assert "expected '<' to open an element" in str(caught.value)
        assert (caught.value.line, caught.value.column) == (1, 1)

