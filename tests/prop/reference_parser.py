"""The recursive-descent XML parser ``repro.xmlmodel.parser`` was until
PR 17, kept verbatim as the differential oracle of the scanning parser
that replaced it (``test_differential_parser.py``): one ``_Cursor`` step
per character, one Python frame per element, no index while building.

The two must accept the same inputs with equal trees, and reject the
same inputs with the same message, line and column.  The intended
divergences are listed in the differential suite, not here: this file
still takes ``int()``'s lenient character-reference spellings, lets
``OverflowError`` and ``RecursionError`` escape, and yields surrogates.

:func:`reference_regions` is the recursive ``Document.reindex`` of the
same vintage, the oracle for the encoding the new parser assigns while
building.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import XmlParseError
from repro.xmlmodel.nodes import Document, Element

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START_EXTRA = "_:"
_NAME_EXTRA = "_:.-"


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char in _NAME_START_EXTRA


def _is_name_char(char: str) -> bool:
    return char.isalnum() or char in _NAME_EXTRA


class _Cursor:
    """Position tracker over the input text."""

    __slots__ = ("text", "pos", "length")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)

    def eof(self) -> bool:
        return self.pos >= self.length

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < self.length else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def line_col(self) -> Tuple[int, int]:
        line = self.text.count("\n", 0, self.pos) + 1
        last_nl = self.text.rfind("\n", 0, self.pos)
        column = self.pos - last_nl
        return line, column


class XmlParser:
    """Recursive-descent parser producing a :class:`Document`."""

    def __init__(self, text: str, name: str = "") -> None:
        self._cur = _Cursor(text)
        self._name = name

    # ------------------------------------------------------------------
    def parse(self) -> Document:
        """Parse the whole input and return a Document."""
        self._skip_prolog()
        root = self._parse_element()
        self._skip_misc()
        if not self._cur.eof():
            self._fail("trailing content after document element")
        return Document(root, name=self._name)

    # ------------------------------------------------------------------
    # error helper
    # ------------------------------------------------------------------
    def _fail(self, message: str) -> None:
        line, column = self._cur.line_col()
        raise XmlParseError(message, line=line, column=column)

    # ------------------------------------------------------------------
    # prolog / misc
    # ------------------------------------------------------------------
    def _skip_whitespace(self) -> None:
        cur = self._cur
        while not cur.eof() and cur.peek() in " \t\r\n":
            cur.advance()

    def _skip_prolog(self) -> None:
        self._skip_whitespace()
        if self._cur.startswith("<?xml"):
            end = self._cur.text.find("?>", self._cur.pos)
            if end < 0:
                self._fail("unterminated XML declaration")
            self._cur.pos = end + 2
        self._skip_misc()
        if self._cur.startswith("<!DOCTYPE"):
            self._skip_doctype()
        self._skip_misc()

    def _skip_misc(self) -> None:
        """Skip whitespace, comments and PIs between markup."""
        while True:
            self._skip_whitespace()
            if self._cur.startswith("<!--"):
                self._skip_comment()
            elif self._cur.startswith("<?"):
                self._skip_pi()
            else:
                return

    def _skip_comment(self) -> None:
        end = self._cur.text.find("-->", self._cur.pos + 4)
        if end < 0:
            self._fail("unterminated comment")
        self._cur.pos = end + 3

    def _skip_pi(self) -> None:
        end = self._cur.text.find("?>", self._cur.pos + 2)
        if end < 0:
            self._fail("unterminated processing instruction")
        self._cur.pos = end + 2

    def _skip_doctype(self) -> None:
        # Skip "<!DOCTYPE ... >" balancing an optional internal subset [...].
        cur = self._cur
        cur.advance(len("<!DOCTYPE"))
        depth = 0
        while not cur.eof():
            char = cur.peek()
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
                if depth < 0:
                    self._fail("unbalanced ']' in DOCTYPE")
            elif char == ">" and depth == 0:
                cur.advance()
                return
            cur.advance()
        self._fail("unterminated DOCTYPE declaration")

    # ------------------------------------------------------------------
    # names / attributes
    # ------------------------------------------------------------------
    def _parse_name(self) -> str:
        cur = self._cur
        if cur.eof() or not _is_name_start(cur.peek()):
            self._fail("expected a name")
        begin = cur.pos
        cur.advance()
        while not cur.eof() and _is_name_char(cur.peek()):
            cur.advance()
        return cur.text[begin : cur.pos]

    def _parse_attributes(self, tag: str) -> dict:
        attrs: dict = {}
        cur = self._cur
        while True:
            self._skip_whitespace()
            if cur.eof() or cur.peek() in "/>":
                return attrs
            name = self._parse_name()
            self._skip_whitespace()
            if cur.peek() != "=":
                self._fail(f"expected '=' after attribute {name!r} of <{tag}>")
            cur.advance()
            self._skip_whitespace()
            quote = cur.peek()
            if quote not in "\"'":
                self._fail(f"attribute {name!r} value must be quoted")
            cur.advance()
            end = cur.text.find(quote, cur.pos)
            if end < 0:
                self._fail(f"unterminated value for attribute {name!r}")
            raw = cur.text[cur.pos : end]
            cur.pos = end + 1
            if name in attrs:
                self._fail(f"duplicate attribute {name!r} on <{tag}>")
            attrs[name] = self._expand_entities(raw)

    # ------------------------------------------------------------------
    # entities
    # ------------------------------------------------------------------
    def _expand_entities(self, raw: str) -> str:
        if "&" not in raw:
            return raw
        out = []
        index = 0
        while index < len(raw):
            char = raw[index]
            if char != "&":
                out.append(char)
                index += 1
                continue
            semi = raw.find(";", index + 1)
            if semi < 0:
                self._fail("unterminated entity reference")
            entity = raw[index + 1 : semi]
            out.append(self._decode_entity(entity))
            index = semi + 1
        return "".join(out)

    def _decode_entity(self, entity: str) -> str:
        if entity in _PREDEFINED_ENTITIES:
            return _PREDEFINED_ENTITIES[entity]
        if entity.startswith("#x") or entity.startswith("#X"):
            try:
                return chr(int(entity[2:], 16))
            except ValueError:
                self._fail(f"bad character reference &{entity};")
        if entity.startswith("#"):
            try:
                return chr(int(entity[1:]))
            except ValueError:
                self._fail(f"bad character reference &{entity};")
        self._fail(f"unknown entity &{entity};")
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # elements / content
    # ------------------------------------------------------------------
    def _parse_element(self) -> Element:
        cur = self._cur
        if cur.peek() != "<":
            self._fail("expected '<' to open an element")
        cur.advance()
        tag = self._parse_name()
        attrs = self._parse_attributes(tag)
        element = Element(tag, attrs=attrs)
        self._skip_whitespace()
        if cur.startswith("/>"):
            cur.advance(2)
            return element
        if cur.peek() != ">":
            self._fail(f"malformed start tag <{tag}>")
        cur.advance()
        self._parse_content(element)
        return element

    def _parse_content(self, element: Element) -> None:
        cur = self._cur
        while True:
            if cur.eof():
                self._fail(f"unexpected end of input inside <{element.tag}>")
            if cur.startswith("</"):
                cur.advance(2)
                closing = self._parse_name()
                if closing != element.tag:
                    self._fail(
                        f"mismatched closing tag </{closing}> for <{element.tag}>"
                    )
                self._skip_whitespace()
                if cur.peek() != ">":
                    self._fail(f"malformed closing tag </{closing}>")
                cur.advance()
                return
            if cur.startswith("<!--"):
                self._skip_comment()
            elif cur.startswith("<![CDATA["):
                element.append_text(self._parse_cdata())
            elif cur.startswith("<?"):
                self._skip_pi()
            elif cur.peek() == "<":
                element.append(self._parse_element())
            else:
                element.append_text(self._parse_text())

    def _parse_cdata(self) -> str:
        cur = self._cur
        cur.advance(len("<![CDATA["))
        end = cur.text.find("]]>", cur.pos)
        if end < 0:
            self._fail("unterminated CDATA section")
        raw = cur.text[cur.pos : end]
        cur.pos = end + 3
        return raw

    def _parse_text(self) -> str:
        cur = self._cur
        begin = cur.pos
        while not cur.eof() and cur.peek() != "<":
            cur.advance()
        return self._expand_entities(cur.text[begin : cur.pos])


def reference_parse(text: str, name: str = "") -> Document:
    """Parse with the recursive reference parser."""
    return XmlParser(text, name=name).parse()


def reference_regions(root: Element) -> List[Tuple[int, int, int, int]]:
    """``(start, end, level, node_id)`` of every element in preorder, as
    the recursive ``reindex`` assigned them (reads the tree only)."""
    regions: List[Tuple[int, int, int, int]] = []
    counter = 0

    def visit(node: Element, level: int) -> None:
        nonlocal counter
        slot = len(regions)
        start = counter
        regions.append((start, -1, level, slot))
        counter += 1
        for child in node.children:
            visit(child, level + 1)
        regions[slot] = (start, counter, level, slot)
        counter += 1

    visit(root, 0)
    return regions
