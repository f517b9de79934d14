"""SAX-style XML events over a parsed tree.

Warehouse loaders often want events rather than a tree to walk — to
infer schemas, count tags, or filter subtrees.  :func:`iter_events`
yields

- ``("start", tag, attrs)``
- ``("text", data)``         (non-whitespace character data)
- ``("end", tag)``

in document order, with the same strictness and entity handling as
:func:`repro.xmlmodel.parser.parse`: it *is* that parse, followed by a
walk of the finished tree, so the two can never disagree (a property the
tests exploit).  The price is that the whole document is materialized —
memory is O(document), not O(depth), and a malformed input raises before
the first event — so this is an event *view*, not a way to read inputs
too large to hold.
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


def tree_events(source: Union[Document, Element]) -> Iterator[Event]:
    """Events of an already-built tree (document order)."""
    root = source.root if isinstance(source, Document) else source
    # A string on the stack is the tag of an element whose children are
    # above it (an explicit stack: depth is bounded by memory).
    stack: List[Union[Element, str]] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            yield ("end", item)
            continue
        yield ("start", item.tag, dict(item.attrs))
        for chunk in item.text_chunks:
            if chunk.strip():
                yield ("text", chunk)
        stack.append(item.tag)
        stack.extend(reversed(item.children))


def count_tags(text: str) -> Dict[str, int]:
    """Tag frequencies from the event stream."""
    counts: Dict[str, int] = {}
    for event in iter_events(text):
        if event[0] == "start":
            counts[event[1]] = counts.get(event[1], 0) + 1
    return counts


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
