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
The loop reads *parts*: behind the prolog the text is cut at every ``<``
by ``str.split``, one window of ``_WINDOW`` characters at a time, so a
part is one tag and the text run behind it, and one C call has found
every tag of the window.  Four shapes are read from the part alone: the
open element's ``/name>`` closes it, a part that starts with it closes
it and leaves its tail to the parent as text, a part whose head before
the first ``>`` is a name some start tag has been validated with opens
an element whose first text cell is the tail, and so does a head that
is such a name, one space and an attribute list the start-tag pattern
takes whole (no ``&`` in the part, no ``/`` before the ``>``).  Every
other part — a first sighting, ``/>``, ``</name >``, a comment, CDATA
section or PI, a run with ``&``, the root's own end, anything malformed
— is read *at its position in the text* (summed from the lengths of the
parts, only then) by what has always read it: one compiled pattern for
a whole start tag, ``str.find`` to the end of a comment, CDATA section
or PI, entity expansion for a run with ``&``, :class:`_TagReader` for
the rest.  The text from the position they return to the next ``<`` is
a chunk of the open element, and the loop goes on with the part behind
that ``<``.  It builds no tree: every element is one row appended to
the columns of a :class:`~repro.xmlmodel.nodes.RegionTable` — tag,
parent, text, attributes, and, when it closes, its number of proper
descendants (``len(tags) - node - 1``) — and one entry in its tag's
posting list.  No position counter is kept: the region encoding is
derived from the table on demand.  The only containers the scan
allocates are the ones that hold content (an attribute mapping, a list
for mixed content) and one window's parts, and equal text chunks are
one string (one dict per parse).  The :class:`Document` it returns
*is* that table; the ``Element`` tree appears if and when someone asks
for it.

The error-path contract.  The hot shapes and the patterns only ever
*accept*: a tag they do not match — or match but with a bad first name
character, a duplicate attribute or a bad entity — is read again by the
per-character :class:`_TagReader`, which owns every error message and
position of a tag.  The hot path therefore never has to know why a tag
is wrong.
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
_PAIRS = rf"(?:{_S}{_NAME}{_S}={_S}{_VALUE})*"
# The lookahead pins the tag to its maximal run of name characters, as
# the reader takes it: without it "<ab='1'>" would backtrack into tag
# "a", attribute "b".
_START_TAG = re.compile(rf"<({_NAME})(?!{_NAME_CHAR})({_PAIRS}){_S}(/?)>")
# What stands between a start tag's name and its ">", in the same grammar.
_ATTRIBUTE_LIST = re.compile(rf"{_PAIRS}{_S}")
_ATTRIBUTE = re.compile(rf"({_NAME}){_S}={_S}(?:\"([^\"]*)\"|'([^']*)')")
_NOT_WHITESPACE = re.compile(rf"[^{_WHITESPACE}]")
_DOCTYPE_DELIMITER = re.compile(r"[\[\]>]")

# Characters cut into parts at a time (up to the next "<"): cutting the
# whole document at once would hold a second copy of it beside the table.
_WINDOW = 1 << 16
# The closer of the root and of what is above it: no part holds a "<".
_NO_CLOSER = "<"

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
    match_start_tag = _START_TAG.match
    length = len(text)

    table = RegionTable()
    tags, parents, sizes = table.tags, table.parents, table.sizes
    texts, attr_maps = table.texts, table.attrs
    postings = table.postings
    append_text = table.append_text
    match_attribute_list = _ATTRIBUTE_LIST.fullmatch
    # Equal text chunks are one string: the first one read.
    chunks: Dict[str, str] = {}
    share = chunks.setdefault
    # Every name a start tag has been validated with -> the one string
    # all its elements carry, and the part that closes such an element.
    names: Dict[str, Tuple[str, str]] = {}
    stack: List[Tuple[int, str]] = []  # (parent, closer) to go back to
    parent = -1  # the open element; -1 stands above the root
    closer = _NO_CLOSER  # "/name>" of the open element

    # One window per pass; ``pos`` is at a "<" in content or at the end.
    while parent >= 0 or not tags:
        if pos >= length:
            _fail(text, length, f"unexpected end of input inside <{tags[parent]}>")
        limit = find("<", pos + _WINDOW)
        if limit < 0:
            limit = length
        parts = text[pos + 1 : limit].split("<")
        # The "<" of parts[mark] is at mark_lt: a miss sums the lengths
        # from there to learn where it is, and moves the mark past it.
        mark, mark_lt = 0, pos
        pos = limit
        numbered = enumerate(parts)
        for index, part in numbered:
            if part == closer:  # "</name>" of the open element, no text
                sizes[parent] = len(tags) - parent - 1
                parent, closer = stack.pop()
                continue
            head, sep, tail = part.partition(">")
            known = names.get(head)
            attrs: Optional[Dict[str, str]] = None
            if known is None and sep:
                if "&" not in tail and part.startswith(closer):  # "</name>text"
                    sizes[parent] = len(tags) - parent - 1
                    parent, closer = stack.pop()
                    append_text(parent, share(tail, tail))
                    continue
                if "&" not in part:  # '<name attr="v" ...>text'
                    name, space, attr_text = head.partition(" ")
                    known = names.get(name)
                    if (
                        known is not None
                        and space
                        and head[-1] != "/"
                        and match_attribute_list(attr_text) is not None
                    ):
                        attrs = _fast_attributes(attr_text)
                    if attrs is None:
                        known = None
            if known is not None and sep and "&" not in tail:  # "<name>text"
                stack.append((parent, closer))
                tag, closer = known
                parents.append(parent)
                parent = len(tags)
                tags.append(tag)
                sizes.append(0)  # set when the element closes
                # append_text writes the rest
                texts.append(share(tail, tail) if tail else None)
                attr_maps.append(attrs or None)
                postings[tag].append(parent)
                continue

            # ---- not a hot shape: read at its absolute position ------
            lt = mark_lt + len("<".join(parts[mark : index + 1])) - len(part)
            # Above the root only a start tag may stand.
            first = part[:1] if parent >= 0 else ""
            if first == "/":  # "</name >", "&" behind, malformed
                reader = _TagReader(text, lt)
                reader.close_tag(tags[parent])
                at = reader.pos
                sizes[parent] = len(tags) - parent - 1
                parent, closer = stack.pop()
                if parent < 0:
                    pos = at
                    break
            elif first == "!" and part.startswith("!--"):
                at = _skip_past(text, lt, "<!--", "-->", "comment")
            elif first == "!" and part.startswith("![CDATA["):
                begin = lt + len("<![CDATA[")
                end = find("]]>", begin)
                if end < 0:
                    _fail(text, begin, "unterminated CDATA section")
                if end > begin:
                    chunk = text[begin:end]
                    append_text(parent, share(chunk, chunk))
                at = end + 3
            elif first == "?":
                at = _skip_past(text, lt, "<?", "?>", "processing instruction")
            else:  # a start tag (or not markup we know: _TagReader names it)
                attrs = None
                match = match_start_tag(text, lt)
                if match is not None:
                    tag, attr_text, slash = match.groups()
                    if not _is_name_start(tag[0]):
                        match = None
                    elif attr_text:
                        attrs = _fast_attributes(attr_text)
                        if attrs is None:
                            match = None
                if match is not None:
                    self_closing = slash == "/"
                    at = match.end()
                else:
                    reader = _TagReader(text, lt)
                    tag, attrs, self_closing = reader.start_tag()
                    at = reader.pos
                known = names.get(tag)
                if known is None:
                    known = names[tag] = (tag, f"/{tag}>")
                    postings[tag] = []
                tag = known[0]
                node = len(tags)
                tags.append(tag)
                parents.append(parent)
                sizes.append(0)  # set when the element closes
                texts.append(None)
                attr_maps.append(attrs or None)
                postings[tag].append(node)
                if self_closing:
                    if parent < 0:
                        pos = at
                        break
                else:
                    stack.append((parent, closer))
                    # The root's end is never hot: its position is needed.
                    closer = known[1] if parent >= 0 else _NO_CLOSER
                    parent = node

            # ---- resume: the text up to the next "<" is a chunk of the
            # open element, and the part behind that "<" is read next
            after = lt + 1 + len(part)
            if at > after:  # a "<" in a comment, a value: pass those parts
                lt = after
                after = find("<", at)
                if after < 0:
                    after = length
                for index, part in numbered:
                    lt += 1 + len(part)
                    if lt >= after:
                        break
            if after > at:
                chunk = text[at:after]
                if "&" in chunk:
                    chunk = _expand_entities(chunk, text, after)
                append_text(parent, share(chunk, chunk))
            mark, mark_lt = index + 1, after
            if after > limit:
                pos = after

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
    """Parse an XML file (UTF-8, with or without a byte-order mark)
    into a :class:`Document`."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        text = handle.read()
    return parse(text, name=name if name is not None else path)
