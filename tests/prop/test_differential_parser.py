"""The scanning parser against the recursive parser it replaced.

Contract (ISSUE 17): on every input the two either both accept, with
equal trees — tags, attributes, ``text_chunks``, parent/child links,
``(start, end, level, node_id)`` and the preorder ``elements`` list — or
both raise :class:`XmlParseError` with equal message, line and column.

The *only* intended divergences are the inputs of
:data:`INTENDED_DIVERGENCES` (character references spelled the way
``int()`` tolerates but XML does not, surrogate and out-of-range code
points, and nesting deeper than the reference's recursion limit); they
are asserted one by one, and :func:`has_lenient_reference` keeps exactly
that class — nothing else — from failing the equality check when the
fuzzer stumbles into it.

Since ISSUE 23 the parser reads the content as the parts of
``str.split("<")``, one window of ``parser._WINDOW`` characters at a
time, so the corpus, the mutants and the table-is-its-tree check run
again with windows of 1, 2 and 7 characters (:data:`WINDOWS`): every
tag then starts a window, and every construct that may hold a ``<``
straddles one.
"""

from unittest import mock

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.catalog import CatalogConfig, generate_catalog
from repro.datagen.dblp import DblpConfig, generate_dblp
from repro.datagen.publications import figure1_document, random_publications
from repro.datagen.treebank import TreebankConfig, generate_treebank
from repro.errors import XmlParseError
from repro.xmlmodel import parser
from repro.xmlmodel.nodes import Document
from repro.xmlmodel.parser import _NAME_CHAR, _is_name_char, parse
from repro.xmlmodel.serializer import serialize
from tests.prop.reference_parser import reference_parse, reference_regions
from tests.prop.test_hypothesis_xml import random_element


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def snapshot(doc):
    """Everything a Document is, as plain data (no recursion: the
    elements list *is* the tree in preorder)."""
    return [
        (
            node.tag,
            list(node.attrs.items()),
            list(node.text_chunks),
            (node.start, node.end, node.level, node.node_id),
            node.parent.node_id if node.parent is not None else None,
            [child.node_id for child in node.children],
        )
        for node in doc.elements
    ]


def outcome(parser, text):
    try:
        doc = parser(text)
    except XmlParseError as error:
        return ("error", str(error), error.line, error.column)
    assert [node.node_id for node in doc.elements] == list(
        range(len(doc.elements))
    )
    assert doc.elements[0] is doc.root
    return ("tree", doc.name, snapshot(doc))


def assert_same(text):
    new = outcome(parse, text)
    assert new == outcome(reference_parse, text), text
    return new


_REFERENCE = re.compile(r"&(#[^;]*);")
_XML_SPELLING = re.compile(r"#(?:[0-9]+|[xX][0-9a-fA-F]+)")


def has_lenient_reference(text):
    """Does ``text`` hold a character reference the reference parser
    takes and XML does not (so the new parser rejects it)?"""
    for match in _REFERENCE.finditer(text):
        body = match.group(1)
        digits, base = (
            (body[2:], 16) if body[1:2] in ("x", "X") else (body[1:], 10)
        )
        try:
            code = int(digits, base)
        except ValueError:
            continue  # both reject: "bad character reference"
        if not _XML_SPELLING.fullmatch(body):
            return True
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            return True
    return False


# ----------------------------------------------------------------------
# (i) datagen families, compact and pretty
# ----------------------------------------------------------------------
def _treebank(**knobs):
    return generate_treebank(TreebankConfig(n_facts=60, **knobs))


DATAGEN_DOCUMENTS = {
    "figure1": figure1_document,
    "publications": lambda: random_publications(80, seed=3),
    "treebank-dense": lambda: _treebank(n_axes=6, density="dense"),
    "treebank-messy": lambda: _treebank(
        n_axes=4, coverage=False, disjoint=False, seed=5
    ),
    "dblp": lambda: generate_dblp(DblpConfig(n_articles=80)),
    "catalog": lambda: generate_catalog(CatalogConfig(n_products=80)),
}


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
@pytest.mark.parametrize("family", sorted(DATAGEN_DOCUMENTS))
def test_datagen_families_parse_equal(family, pretty):
    text = serialize(DATAGEN_DOCUMENTS[family](), pretty=pretty)
    assert assert_same(text)[0] == "tree"


# ----------------------------------------------------------------------
# the hand-written corpora of tests/xmlmodel (accepts and rejects)
# ----------------------------------------------------------------------
CORPUS = [
    # test_parser.py
    "<a/>",
    "<a><b><c/></b><d/></a>",
    "<a>hello</a>",
    "<a>one<b/>two</a>",
    """<a x="1" y='2'/>""",
    "<a  x = \"1\" ><b /></a >",
    "<ns:a><ns:b/></ns:a>",
    '<?xml version="1.0" encoding="UTF-8"?><a/>',
    '<!DOCTYPE a SYSTEM "a.dtd"><a/>',
    "<!DOCTYPE a [<!ELEMENT a (b)*>]><a><b/></a>",
    "<!-- hi --><?pi data?><a/>",
    "<a/><!-- done -->",
    "<a>&lt;&amp;&gt;&quot;&apos;</a>",
    "<a>&#65;&#x42;</a>",
    '<a x="&lt;&#33;"/>',
    "<a><![CDATA[<not/>&parsed;]]></a>",
    "<a>x<!-- ignore -->y</a>",
    "<a>&nope;</a>",
    "<a>&#xZZ;</a>",
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
    "<a>\n  <b></c>\n</a>",
    "<a/>junk",
    # test_unicode.py
    "<a>héllo wörld — ünïcode ✓</a>",
    "<名前>山田🌸</名前>",
    "<a>&#x1F338;</a>",
    '<a name="Ünïcode &#233;"/>',
    "<r><w>čeština</w><w>Ελληνικά</w></r>",
    "<r><f><g>日本</g></f><f><g>日本</g></f><f><g>España</g></f></r>",
    # test_stream.py
    '<a x="1"><b>hi</b><c/></a>',
    "<a>\n  <b/>\n</a>",
    "<a><b></a>",
    "<a><b/><b/><c><b/></c></a>",
    # the corners the old cursor had (each position is part of the
    # contract): end of input inside every construct, the name classes,
    # attributes without separating whitespace, markup in odd places
    "<",
    "<a",
    "<a ",
    "<a b",
    "<a b=",
    "<a b='",
    "<a b='1'",
    "<a><",
    "<a></",
    "<a></a",
    "<a></a ",
    "<a></a >",
    "<a></a\n>",
    "<a></ a>",
    "<a></ab>",
    "<ab></a>",
    "<ab='1'/>",
    "<a b='1'c='2'/>",
    "<a b = '1' / >",
    "<a/ >",
    "<a b='1'/ >",
    "<a\x0bb='1'/>",
    "<a b='1'/>",
    "<²/>",
    "<a²/>",
    "<a ²='1'/>",
    "<a ½b='1'/>",
    "<-a/>",
    "<.a/>",
    "<a -b='1'/>",
    "<a.b-c:d _x='1' :y=\"2\"/>",
    "<a x='a>b'/>",
    "<a x=\"a'b\" y='c\"d'/>",
    "<a x='1'\ty='2'\r\n/>",
    "<a b='<'/>",
    "<a x='&lt;' x='2'/>",
    "<a x='&bad;' x='2'/>",
    "<a x='1' x='&bad;'/>",
    "<a x='&amp'/>",
    "<a>&amp</a>",
    "<a>&amp;&bad;</a>",
    "<a>&",
    "<a>&;</a>",
    "<a>& ;</a>",
    "<a>&#;</a>",
    "<a>&#x;</a>",
    "<a>&#0;</a>",
    "<a>&#x10FFFF;</a>",
    "<a>&#00000000000065;</a>",
    "<a>&#1114112;</a>",
    "<a>]]></a>",
    "<a><![CDATA[]]></a>",
    "<a><![CDATA[x]]>y<![CDATA[z]]></a>",
    "<a><![CDATA[",
    "<a>x<?pi?>y<!--c-->z<b/>w</a>",
    "<a><?pi</a>",
    "<a><!DOCTYPE x></a>",
    "<a><!x/></a>",
    "<!DOCTYPE a ]><a/>",
    "<!DOCTYPE a [",
    "<!DOCTYPE a [[]]]><a/>",
    "<!DOCTYPE",
    "<?xml?><a/>",
    "<?xml-stylesheet href='x'?><a/>",
    "<?><a/>",
    "<!--><a/>",
    "<!----><a/>",
    "  \n <a/> \n <!--x--> <?p?> ",
    " <a/> <b/>",
    "<a>\n<b>\n</c>",
    "﻿<a/>",
    "junk<a/>",
    "<a></a></a>",
    # where the part loop cuts (ISSUE 23): a "<" that is not markup,
    # directly before and after a run the hot shapes refuse ...
    '<a>t&amp;u<b x="<"/>v&amp;w</a>',
    "<a>t&amp;u<b x='<'>k</b>v&amp;w</a>",
    "<a>t&amp;u<!-- < <b> -->v&amp;w</a>",
    "<a>t&amp;u<![CDATA[<b>&amp;]]>v&amp;w</a>",
    "<a>t&amp;u<?pi <b> ?>v&amp;w</a>",
    "<a><b>1</b><!-- </b> <b> --><b>2</b></a>",
    # ... ">" where it is only a character ...
    "<a>x>y</a>",
    "<a><b>x</b>y>z<b>></b></a>",
    "<a x='>'>></a>",
    '<a><b x=">">y</b></a>',
    # ... closers and starts that are nearly a hot shape ...
    "<a><b>x</b ></a>",
    "<a><b>x</b\n></a>",
    "<a><b>x</b >y</a>",
    "<a><b/>text</a>",
    "<a><b>x</b><b/>text<b>y</b></a>",
    "<a><b>x</b><b >y</b></a>",
    "<a><a>x</a>y</a>",
    "<a><a></a></a></a>",
    "<a><b>x</b><b",
    "<a><b>x</b><b>",
    "<a><b>x</b></b",
    "<a><b>x</b>&bad;",
    "<a><b>x</b>y&amp;z",
    "<a><b>x&amp;</b>&#65;<b>&bad;</b></a>",
    "<a><b>x</b></a>&amp;",
    # ... a name already seen, now with attributes: the one hot shape
    # that reads a start tag's attributes, and every way to miss it ...
    '<a><a b="1">t</a><a b=\'2\' c="3" >u</a><a  b="4"\n>v</a></a>',
    "<a><a >t</a><a b = '1'>u</a><a b='1'>&amp;</a></a>",
    '<a><a b="x>y">t</a></a>',
    "<a><a b='1'/>t</a>",
    '<a><a\tb="1">t</a></a>',
    '<a><a b="1" b="2">t</a></a>',
    '<a><a 1b="x">t</a></a>',
    '<a><a b="&amp;">t</a></a>',
    '<a><a b="1"c="2">t</a></a>',
    '<a><a b="1" / >t</a></a>',
    '<a><a b="1">t</a>',
    # ... and what may stand behind the root
    "<a><b>x</b></a><!-- c < --><?pi <?>\n",
    "<a><b>x</b></a><!-- c --><b>",
    "<a/><?pi?><!-- c -->",
]

#: Window sizes that put a window border at, just behind and a few
#: characters into every tag (the real one is 64 K characters).
WINDOWS = [1, 2, 7]


def window(size):
    return mock.patch.object(parser, "_WINDOW", size)


def check_corpus_parses_equal():
    # One test, every mismatch reported: the inputs make poor test ids.
    mismatches = [
        (text, new, old)
        for text in CORPUS
        for new, old in [
            (outcome(parse, text), outcome(reference_parse, text))
        ]
        if new != old
    ]
    assert not mismatches
    kinds = {outcome(parse, text)[0] for text in CORPUS}
    assert kinds == {"tree", "error"}


def test_corpus_parses_equal():
    check_corpus_parses_equal()


@pytest.mark.parametrize("size", WINDOWS)
def test_corpus_parses_equal_in_small_windows(size):
    with window(size):
        check_corpus_parses_equal()


def test_a_document_of_many_windows_parses_equal():
    text = serialize(random_publications(2500, seed=3), pretty=True)
    assert len(text) > 3 * parser._WINDOW
    assert assert_same(text)[0] == "tree"


# ----------------------------------------------------------------------
# Hypothesis: mutate well-formed text
# ----------------------------------------------------------------------
SEEDS = [
    '<?xml version="1.0"?><!DOCTYPE r [<!ELEMENT r ANY>]>'
    "<r a=\"1\" b='2'><x>t&amp;u</x><!-- c --><y k=\"v\"/>"
    "<![CDATA[<z>]]><?pi d?>tail</r>\n",
    '<a>\n  <b id="1">x</b>\n  <c>&#65;&lt;</c>\n</a>',
    "<p:q _a='&quot;'><p:q/>text<p:q>more</p:q></p:q>",
    "<r><b>1</b><b k='<'>2&amp;</b ><!-- < -->t&amp;<![CDATA[<]]>"
    "<b>3</b\n><?pi <?>u>v<b/>w</r><!-- c --><?pi?>",
]
SPLICES = [
    "<", ">", "/", "&", ";", "=", "'", '"', " ", "\n", "\t", "\r", "!",
    "-", "[", "]", "?", "a", "b", "1", "#", "x", "_", ".", ":", "²", "é",
    "&amp;", "&#65;", "&#x41;", "&#", "&bad;", "</", "/>", "<!--", "-->",
    "<![CDATA[", "]]>", "<?", "?>", "<!DOCTYPE", " a='1'", ' a="1"',
    "<b>", "</b>", "<b/>",
]


@st.composite
def mutated_documents(draw):
    text = draw(st.sampled_from(SEEDS))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        kind = draw(st.sampled_from(["truncate", "splice", "delete", "copy"]))
        if kind == "truncate":
            text = text[:at]
        elif kind == "splice":
            text = text[:at] + draw(st.sampled_from(SPLICES)) + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            other = draw(st.integers(min_value=0, max_value=len(text)))
            low, high = sorted((at, other))
            text = text[:at] + text[low:high] + text[at:]
    return text


def check_mutant_parses_equal(text):
    new = outcome(parse, text)
    if new != outcome(reference_parse, text):
        # The one way to differ: the new parser stops at a reference the
        # old one took (or took and then failed further on).
        assert has_lenient_reference(text), text
        assert new[0] == "error", text
        assert "bad character reference &#" in new[1], text


@given(mutated_documents())
@settings(max_examples=1500, deadline=None)
def test_mutated_text_parses_equal(text):
    check_mutant_parses_equal(text)


@pytest.mark.parametrize("size", WINDOWS)
@given(text=mutated_documents())
@settings(max_examples=1500, deadline=None)
def test_mutated_text_parses_equal_in_small_windows(size, text):
    with window(size):
        check_mutant_parses_equal(text)


@given(random_element())
@settings(max_examples=80, deadline=None)
def test_random_trees_parse_equal(element):
    doc = Document(element.detach())
    for pretty in (False, True):
        assert assert_same(serialize(doc, pretty=pretty))[0] == "tree"


# ----------------------------------------------------------------------
# the intended divergences, one by one
# ----------------------------------------------------------------------
INTENDED_DIVERGENCES = {
    # name: (reference, the character the reference parser made of it)
    "space-before": ("&# 65;", "A"),
    "space-after": ("&#65 ;", "A"),
    "sign": ("&#+65;", "A"),
    "underscore": ("&#1_0;", "\n"),
    "hex-space": ("&#x 41;", "A"),
    "hex-prefix-twice": ("&#x0x41;", "A"),
    "hex-underscore": ("&#x4_1;", "A"),
    "arabic-indic-digits": ("&#\u0666\u0665;", "A"),
    "first-surrogate": ("&#xD800;", "\ud800"),
    "last-surrogate": ("&#57343;", "\udfff"),
}


@pytest.mark.parametrize("name", sorted(INTENDED_DIVERGENCES))
def test_non_xml_character_references_are_rejected(name):
    reference, old_char = INTENDED_DIVERGENCES[name]
    for text in (f"<a>{reference}</a>", f'<a x="{reference}"/>'):
        assert has_lenient_reference(text)
        old = reference_parse(text).root
        assert old_char in (old.text_chunks or list(old.attrs.values()))
        with pytest.raises(XmlParseError) as caught:
            parse(text)
        assert f"bad character reference {reference}" in str(caught.value)


def test_reference_overflow_is_a_parse_error():
    text = "<a>&#99999999999999999999;</a>"
    with pytest.raises(OverflowError):
        reference_parse(text)
    with pytest.raises(XmlParseError) as caught:
        parse(text)
    assert "bad character reference &#99999999999999999999;" in str(
        caught.value
    )
    assert (caught.value.line, caught.value.column) == (1, 27)


def test_depth_beyond_the_recursion_limit_parses():
    depth = 3000
    text = "<a>" * depth + "</a>" * depth
    with pytest.raises(RecursionError):
        reference_parse(text)
    doc = parse(text)
    assert doc.max_depth() == depth - 1
    assert doc.root.end == 2 * depth - 1


# ----------------------------------------------------------------------
# (iii) the index the parser assigns is the index reindex() assigns
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
@pytest.mark.parametrize("family", sorted(DATAGEN_DOCUMENTS))
def test_reindex_after_parse_changes_nothing(family, pretty):
    doc = parse(serialize(DATAGEN_DOCUMENTS[family](), pretty=pretty))
    before = snapshot(doc)
    elements = list(doc.elements)
    assert [
        (node.start, node.end, node.level, node.node_id)
        for node in elements
    ] == reference_regions(doc.root)
    doc.reindex()
    assert snapshot(doc) == before
    assert all(a is b for a, b in zip(doc.elements, elements))


@given(mutated_documents())
@settings(max_examples=300, deadline=None)
def test_reindex_after_parse_changes_nothing_on_mutants(text):
    try:
        doc = parse(text)
    except XmlParseError:
        return
    before = snapshot(doc)
    doc.reindex()
    assert snapshot(doc) == before


# ----------------------------------------------------------------------
# (v) the table the parser writes is the table of its own tree
# ----------------------------------------------------------------------
def table_columns(table):
    return (
        list(table.tags),
        list(table.parents),
        list(table.regions()),
        [table.chunks(node_id) for node_id in range(len(table))],
        [list((held or {}).items()) for held in table.attrs],
        [(tag, list(node_ids)) for tag, node_ids in table.postings.items()],
    )


def assert_table_is_its_tree(text):
    """ISSUE 19: parse writes a table; materialising its tree and
    re-deriving the table from that tree (before and after a
    ``reindex()``) changes no cell, and neither does deriving it from
    the tree the reference parser builds."""
    doc = parse(text)
    written = table_columns(doc.region_table())
    elements = list(doc.elements)  # the tree's first touch
    assert [
        (
            node.tag,
            node.parent.node_id if node.parent is not None else -1,
            (node.start, node.end, node.level),
            node.text_chunks,
            list(node.attrs.items()),
        )
        for node in elements
    ] == list(zip(*written[:5]))
    assert [node.node_id for node in elements] == list(range(len(elements)))
    assert table_columns(doc.region_table()) == written
    doc.reindex()
    assert table_columns(doc.region_table()) == written
    assert table_columns(reference_parse(text).region_table()) == written
    # Identity: every way to reach an element reaches the same object.
    assert doc.root is elements[0]
    assert all(a is b for a, b in zip(doc.elements, elements))
    for node in elements:
        assert all(child.parent is node for child in node.children)
        assert node.parent is None or node in node.parent.children


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
@pytest.mark.parametrize("family", sorted(DATAGEN_DOCUMENTS))
def test_table_is_its_tree_on_datagen_families(family, pretty):
    assert_table_is_its_tree(
        serialize(DATAGEN_DOCUMENTS[family](), pretty=pretty)
    )


ACCEPTED = [
    text for text in CORPUS if outcome(reference_parse, text)[0] == "tree"
]


def test_table_is_its_tree_on_the_corpus():
    assert len(ACCEPTED) > 40
    for text in ACCEPTED:
        assert_table_is_its_tree(text)


@pytest.mark.parametrize("size", WINDOWS)
def test_table_is_its_tree_on_the_corpus_in_small_windows(size):
    with window(size):
        for text in ACCEPTED:
            assert_table_is_its_tree(text)


@given(random_element())
@settings(max_examples=80, deadline=None)
def test_table_is_its_tree_on_random_trees(element):
    doc = Document(element.detach())
    for pretty in (False, True):
        assert_table_is_its_tree(serialize(doc, pretty=pretty))
    # ... and a hand-built tree has the table its serialisation parses to.
    assert table_columns(doc.region_table()) == table_columns(
        parse(serialize(doc)).region_table()
    )


@given(mutated_documents())
@settings(max_examples=300, deadline=None)
def test_table_is_its_tree_on_mutants(text):
    if outcome(reference_parse, text)[0] == "tree":
        try:
            assert_table_is_its_tree(text)
        except XmlParseError:
            assert has_lenient_reference(text), text


# ----------------------------------------------------------------------
# the pattern's name class is the reader's name class
# ----------------------------------------------------------------------
def test_name_pattern_is_the_name_character_predicate():
    every = "".join(
        chr(code)
        for code in range(0x110000)
        if not 0xD800 <= code <= 0xDFFF
    )
    assert set(re.findall(_NAME_CHAR, every)) == {
        char for char in every if _is_name_char(char)
    }
