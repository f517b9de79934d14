"""A hand-written scanning parser for the XML subset we support.

Supported constructs: the XML declaration, elements with attributes
(single- or double-quoted), character data, the five predefined entities
plus decimal/hex character references, CDATA sections, comments, processing
instructions, and a DOCTYPE declaration (skipped; an internal subset is
tolerated and ignored by this parser — use :mod:`repro.schema.dtd_parser`
to parse DTDs).

Not supported (by design, like many warehouse loaders): namespaces beyond
treating ``ns:tag`` as an opaque name, external entities, and DTD-driven
entity expansion.

The parser is deliberately strict: mismatched tags, stray ``<``, duplicate
attributes and unterminated constructs raise :class:`XmlParseError` with a
line/column position.

How it runs.  One loop over an explicit stack of open elements, so input
depth is bounded by memory and not by the interpreter's recursion limit.
The loop *scans* instead of stepping a character at a time: ``str.find``
jumps over text runs and to the ends of comments, CDATA sections and
PIs, one compiled pattern reads a whole start tag with its attributes,
and entity expansion runs only on runs that contain ``&``.  It builds no
tree: every element is one row appended to the columns of a
:class:`~repro.xmlmodel.nodes.RegionTable` — tag, parent, region
encoding ``(start, end, level)``, text, attributes — and one entry in
its tag's posting list, so the only containers the scan allocates are
the ones that hold content (an attribute mapping, a list for mixed
content).  The :class:`Document` it returns *is* that table; the
``Element`` tree appears if and when someone asks for it.

The error-path contract.  The patterns only ever *accept*: a tag they do
not match — or match but with a bad first name character, a duplicate
attribute or a bad entity — is read again by the per-character
:class:`_TagReader`, which owns every error message and position of a
tag.  The hot path therefore never has to know why a tag is wrong.
"""

from __future__ import annotations

import re
from typing import Dict, List, NoReturn, Optional, Tuple

from repro.errors import XmlParseError
from repro.xmlmodel.nodes import Document, RegionTable

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_WHITESPACE = " \t\r\n"
_NAME_START_EXTRA = "_:"
_NAME_EXTRA = "_:.-"

# ``\w`` is exactly ``str.isalnum()`` plus ``_``, so this class is
# ``_is_name_char``.  No class spells ``str.isalpha()`` (``[^\W\d]`` lets
# ``²`` and ``½`` through), so the first character of every matched name
# is checked with ``_is_name_start``.  The whitespace class is spelled
# out because ``\s`` is wider than what the grammar skips.
_NAME_CHAR = r"[\w:.\-]"
_NAME = rf"{_NAME_CHAR}+"
_S = rf"[{_WHITESPACE}]*"
_VALUE = r"(?:\"[^\"]*\"|'[^']*')"
# The lookahead pins the tag to its maximal run of name characters, as
# the reader takes it: without it "<ab='1'>" would backtrack into tag
# "a", attribute "b".
_START_TAG = re.compile(
    rf"<({_NAME})(?!{_NAME_CHAR})((?:{_S}{_NAME}{_S}={_S}{_VALUE})*){_S}(/?)>"
)
_ATTRIBUTE = re.compile(rf"({_NAME}){_S}={_S}(?:\"([^\"]*)\"|'([^']*)')")
_NOT_WHITESPACE = re.compile(rf"[^{_WHITESPACE}]")
_DOCTYPE_DELIMITER = re.compile(r"[\[\]>]")

# ``&`` up to the next ``;`` (or to the end of the run when there is none).
_ENTITY = re.compile(r"&([^;]*)(;?)")
# Past its leading zeros a legal code point has at most 7 decimal or 6
# hex digits; a longer run is out of range and is never converted (it
# may be a hostile megabyte of digits).
_CHAR_REFERENCE = re.compile(
    r"#(?:0*([0-9]{1,7})|[xX]0*([0-9a-fA-F]{1,6}))"
)


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char in _NAME_START_EXTRA


def _is_name_char(char: str) -> bool:
    return char.isalnum() or char in _NAME_EXTRA


class _EntityError(Exception):
    """A bad reference inside a run; the caller knows the position."""


def _decode_entity(match: "re.Match[str]") -> str:
    entity = match.group(1)
    if not match.group(2):
        raise _EntityError("unterminated entity reference")
    predefined = _PREDEFINED_ENTITIES.get(entity)
    if predefined is not None:
        return predefined
    if entity.startswith("#"):
        reference = _CHAR_REFERENCE.fullmatch(entity)
        if reference is not None:
            decimal, hexadecimal = reference.groups()
            code = int(decimal) if decimal else int(hexadecimal, 16)
            if code <= 0x10FFFF and not 0xD800 <= code <= 0xDFFF:
                return chr(code)
        raise _EntityError(f"bad character reference &{entity};")
    raise _EntityError(f"unknown entity &{entity};")


class _TagReader:
    """The per-character reading of *one* tag: the miss path.

    It accepts exactly the tags the compiled patterns accept (so a tag
    they miss for a reason of their own still parses), and it is the one
    place that knows which message and which position each malformed tag
    is reported with.
    """

    __slots__ = ("text", "pos", "length")

    def __init__(self, text: str, pos: int) -> None:
        self.text = text
        self.pos = pos
        self.length = len(text)

    def fail(self, message: str) -> NoReturn:
        _fail(self.text, self.pos, message)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < self.length else ""

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.text[self.pos] in _WHITESPACE:
            self.pos += 1

    def name(self) -> str:
        if self.pos >= self.length or not _is_name_start(self.peek()):
            self.fail("expected a name")
        begin = self.pos
        self.pos += 1
        while self.pos < self.length and _is_name_char(self.text[self.pos]):
            self.pos += 1
        return self.text[begin : self.pos]

    def attributes(self, tag: str) -> Dict[str, str]:
        attrs: Dict[str, str] = {}
        while True:
            self.skip_whitespace()
            if self.pos >= self.length or self.peek() in "/>":
                return attrs
            name = self.name()
            self.skip_whitespace()
            if self.peek() != "=":
                self.fail(f"expected '=' after attribute {name!r} of <{tag}>")
            self.pos += 1
            self.skip_whitespace()
            quote = self.peek()
            if quote not in "\"'":
                self.fail(f"attribute {name!r} value must be quoted")
            self.pos += 1
            end = self.text.find(quote, self.pos)
            if end < 0:
                self.fail(f"unterminated value for attribute {name!r}")
            raw = self.text[self.pos : end]
            self.pos = end + 1
            if name in attrs:
                self.fail(f"duplicate attribute {name!r} on <{tag}>")
            attrs[name] = _expand_entities(raw, self.text, self.pos)

    def start_tag(self) -> Tuple[str, Dict[str, str], bool]:
        """``(tag, attrs, self_closing)`` of the start tag at ``pos``."""
        self.pos += 1  # the "<"
        tag = self.name()
        attrs = self.attributes(tag)
        if self.text.startswith("/>", self.pos):
            self.pos += 2
            return tag, attrs, True
        if self.peek() != ">":
            self.fail(f"malformed start tag <{tag}>")
        self.pos += 1
        return tag, attrs, False

    def close_tag(self, open_tag: str) -> None:
        """Read the ``</name >`` at ``pos``, which must close ``open_tag``."""
        self.pos += 2  # the "</"
        closing = self.name()
        if closing != open_tag:
            self.fail(f"mismatched closing tag </{closing}> for <{open_tag}>")
        self.skip_whitespace()
        if self.peek() != ">":
            self.fail(f"malformed closing tag </{closing}>")
        self.pos += 1


def _fail(text: str, pos: int, message: str) -> NoReturn:
    line = text.count("\n", 0, pos) + 1
    column = pos - text.rfind("\n", 0, pos)
    raise XmlParseError(message, line=line, column=column)


def _expand_entities(raw: str, text: str, error_pos: int) -> str:
    """``raw`` with its references expanded; a bad one is reported at
    ``error_pos`` (the end of the run, where the old cursor stood)."""
    if "&" not in raw:
        return raw
    try:
        return _ENTITY.sub(_decode_entity, raw)
    except _EntityError as error:
        _fail(text, error_pos, str(error))


def _skip_whitespace(text: str, pos: int) -> int:
    match = _NOT_WHITESPACE.search(text, pos)
    return match.start() if match else len(text)


def _skip_past(text: str, pos: int, opener: str, closer: str, what: str) -> int:
    """The position after ``closer``, searched from behind ``opener``."""
    end = text.find(closer, pos + len(opener))
    if end < 0:
        _fail(text, pos, f"unterminated {what}")
    return end + len(closer)


def _skip_misc(text: str, pos: int) -> int:
    """Skip whitespace, comments and PIs between markup."""
    while True:
        pos = _skip_whitespace(text, pos)
        if text.startswith("<!--", pos):
            pos = _skip_past(text, pos, "<!--", "-->", "comment")
        elif text.startswith("<?", pos):
            pos = _skip_past(text, pos, "<?", "?>", "processing instruction")
        else:
            return pos


def _skip_doctype(text: str, pos: int) -> int:
    # Skip "<!DOCTYPE ... >" balancing an optional internal subset [...].
    pos += len("<!DOCTYPE")
    depth = 0
    while True:
        match = _DOCTYPE_DELIMITER.search(text, pos)
        if match is None:
            _fail(text, len(text), "unterminated DOCTYPE declaration")
        pos = match.start()
        char = text[pos]
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
            if depth < 0:
                _fail(text, pos, "unbalanced ']' in DOCTYPE")
        elif depth == 0:
            return pos + 1
        pos += 1


def _skip_prolog(text: str) -> int:
    pos = _skip_whitespace(text, 0)
    if text.startswith("<?xml", pos):
        pos = _skip_past(text, pos, "<?", "?>", "XML declaration")
    pos = _skip_misc(text, pos)
    if text.startswith("<!DOCTYPE", pos):
        pos = _skip_doctype(text, pos)
    return _skip_misc(text, pos)


def _fast_attributes(attr_text: str) -> Optional[Dict[str, str]]:
    """The attribute mapping of a matched start tag, or None when the
    tag has to be re-read by :class:`_TagReader` to raise its error (bad
    first name character, duplicate attribute, bad entity)."""
    attrs: Dict[str, str] = {}
    pairs = _ATTRIBUTE.findall(attr_text)
    for name, double_quoted, single_quoted in pairs:
        if not _is_name_start(name[0]):
            return None
        attrs[name] = double_quoted or single_quoted
    if len(attrs) != len(pairs):
        return None
    if "&" in attr_text:
        try:
            for name, raw in attrs.items():
                if "&" in raw:
                    attrs[name] = _ENTITY.sub(_decode_entity, raw)
        except _EntityError:
            return None
    return attrs


def _parse_table(text: str) -> RegionTable:
    pos = _skip_prolog(text)
    if not text.startswith("<", pos):
        _fail(text, pos, "expected '<' to open an element")

    find = text.find
    startswith = text.startswith
    match_start_tag = _START_TAG.match
    length = len(text)

    table = RegionTable()
    tags, parents = table.tags, table.parents
    starts, ends, levels = table.starts, table.ends, table.levels
    texts, attr_maps = table.texts, table.attrs
    postings = table.postings
    append_text = table.append_text
    # Every name the start-tag pattern has validated, mapped to itself: a
    # later "<name>" is recognised by one lookup, and equal tags of
    # different elements are one string.
    names: Dict[str, str] = {}
    stack: List[int] = []  # the open elements, by node id
    parent = -1  # == stack[-1]; -1 stands above the root
    counter = 0  # next region position

    while True:
        # ---- ``pos`` is at the "<" of a start tag --------------------
        attrs: Optional[Dict[str, str]] = None
        self_closing = False
        gt = find(">", pos)
        known = names.get(text[pos + 1 : gt]) if gt > 0 else None
        if known is not None:  # "<name>" with a name seen before
            tag = known
            pos = gt + 1
        else:
            match = match_start_tag(text, pos)
            if match is not None:
                tag, attr_text, slash = match.groups()
                if not _is_name_start(tag[0]):
                    match = None
                elif attr_text:
                    attrs = _fast_attributes(attr_text)
                    if attrs is None:
                        match = None
            if match is not None:
                tag = names.setdefault(tag, tag)
                self_closing = slash == "/"
                pos = match.end()
            else:
                reader = _TagReader(text, pos)
                tag, attrs, self_closing = reader.start_tag()
                pos = reader.pos

        node = len(tags)
        tags.append(tag)
        parents.append(parent)
        starts.append(counter)
        counter += 1
        levels.append(len(stack))
        texts.append(None)  # none yet; append_text is the only writer
        attr_maps.append(attrs or None)
        try:
            postings[tag].append(node)
        except KeyError:  # the first element with this tag
            postings[tag] = [node]
        if self_closing:
            ends.append(counter)
            counter += 1
            if parent < 0:
                break
        else:
            ends.append(-1)  # set when the element closes
            stack.append(node)
            parent = node

        # ---- content of ``parent`` up to the next start tag ----------
        while True:
            lt = find("<", pos)
            if lt < 0:
                # A bad reference in the text that runs into the end of
                # the input is reported before the missing close tag.
                _expand_entities(text[pos:], text, length)
                _fail(
                    text,
                    length,
                    f"unexpected end of input inside <{tags[parent]}>",
                )
            if lt > pos:
                chunk = text[pos:lt]
                if "&" in chunk:
                    chunk = _expand_entities(chunk, text, lt)
                append_text(parent, chunk)
                pos = lt
            following = text[pos + 1 : pos + 2]
            if following == "/":
                tag = tags[parent]
                after = pos + 2 + len(tag)
                if startswith(tag, pos + 2) and startswith(">", after):
                    pos = after + 1
                else:  # "</name >", or malformed
                    reader = _TagReader(text, pos)
                    reader.close_tag(tag)
                    pos = reader.pos
                ends[parent] = counter
                counter += 1
                stack.pop()
                if not stack:
                    parent = -1
                    break
                parent = stack[-1]
            elif following == "!":
                if startswith("<!--", pos):
                    pos = _skip_past(text, pos, "<!--", "-->", "comment")
                elif startswith("<![CDATA[", pos):
                    begin = pos + len("<![CDATA[")
                    end = find("]]>", begin)
                    if end < 0:
                        _fail(text, begin, "unterminated CDATA section")
                    if end > begin:
                        append_text(parent, text[begin:end])
                    pos = end + 3
                else:
                    break  # not markup we know: _TagReader names it
            elif following == "?":
                pos = _skip_past(
                    text, pos, "<?", "?>", "processing instruction"
                )
            else:
                break  # a start tag
        if parent < 0:
            break

    pos = _skip_misc(text, pos)
    if pos < length:
        _fail(text, pos, "trailing content after document element")
    return table


def parse(text: str, name: str = "") -> Document:
    """Parse an XML string into a :class:`Document`."""
    from repro import obs

    with obs.span(
        "xml.parse", category="parse", doc=name, chars=len(text)
    ) as span:
        table = _parse_table(text)
        span.annotate(elements=len(table))
        return Document.from_table(table, name=name)


def parse_file(path: str, name: Optional[str] = None) -> Document:
    """Parse an XML file (UTF-8) into a :class:`Document`."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse(text, name=name if name is not None else path)
