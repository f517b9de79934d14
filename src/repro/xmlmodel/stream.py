"""SAX-style XML events over a parsed document.

Warehouse loaders often want events rather than a tree to walk — to
infer schemas, count tags, or filter subtrees.  :func:`iter_events`
yields

- ``("start", tag, attrs)``
- ``("text", data)``         (non-whitespace character data)
- ``("end", tag)``

in document order, with the same strictness and entity handling as
:func:`repro.xmlmodel.parser.parse`: it *is* that parse, followed by one
pass over the rows of the document's region table, so the two can never
disagree (a property the tests exploit).  No :class:`Element` is built
on the way, but the whole table is: memory is O(document), not O(depth),
and a malformed input raises before the first event — so this is an
event *view*, not a way to read inputs too large to hold.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union, cast

from repro.errors import XmlParseError
from repro.xmlmodel.nodes import Document, Element
from repro.xmlmodel.parser import parse

StartEvent = Tuple[str, str, Dict[str, str]]
TextEvent = Tuple[str, str]
EndEvent = Tuple[str, str]
Event = Union[StartEvent, TextEvent, EndEvent]


def iter_events(text: str) -> Iterator[Event]:
    """Yield SAX-style events for an XML document string."""
    doc = parse(text)
    yield from tree_events(doc)


def tree_events(doc: Document) -> Iterator[Event]:
    """Events of a document (document order), read off its table; an
    element's text chunks follow its start event."""
    table = doc.region_table()
    open_tags: List[str] = []  # one per level (depth is bounded by memory)
    for node_id, (tag, level, attrs) in enumerate(
        zip(table.tags, table.levels, table.attrs)
    ):
        while len(open_tags) > level:
            yield ("end", open_tags.pop())
        yield ("start", tag, dict(attrs) if attrs else {})
        for chunk in table.chunks(node_id):
            if chunk.strip():
                yield ("text", chunk)
        open_tags.append(tag)
    while open_tags:
        yield ("end", open_tags.pop())


def count_tags(text: str) -> Dict[str, int]:
    """Tag frequencies: the lengths of the posting lists."""
    doc = parse(text)
    return {tag: doc.tag_count(tag) for tag in doc.iter_tags()}


def build_from_events(events: Iterator[Event]) -> Document:
    """Reassemble a document from an event stream (inverse of
    :func:`tree_events`)."""
    stack: List[Element] = []
    root: Optional[Element] = None
    for event in events:
        kind = event[0]
        if kind == "start":
            _, tag, attrs = cast(StartEvent, event)
            element = Element(tag, attrs=attrs)
            if stack:
                stack[-1].append(element)
            elif root is None:
                root = element
            else:
                raise XmlParseError("multiple roots in event stream")
            stack.append(element)
        elif kind == "text":
            if not stack:
                raise XmlParseError("text outside any element")
            stack[-1].append_text(event[1])
        elif kind == "end":
            if not stack or stack[-1].tag != event[1]:
                raise XmlParseError(f"mismatched end event {event[1]!r}")
            stack.pop()
        else:
            raise XmlParseError(f"unknown event kind {kind!r}")
    if root is None or stack:
        raise XmlParseError("incomplete event stream")
    return Document(root)
