"""Serialize :class:`~repro.xmlmodel.nodes.Document` trees back to text.

The serializer escapes markup characters so that ``parse(serialize(doc))``
round-trips structure, attributes and (stripped) text content; the
property-based tests in ``tests/xmlmodel`` assert this.
"""

from __future__ import annotations

from typing import List, Tuple, Union

from repro.xmlmodel.nodes import Document, Element

_TEXT_ESCAPES = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")]
_ATTR_ESCAPES = _TEXT_ESCAPES + [('"', "&quot;")]


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    for raw, entity in _TEXT_ESCAPES:
        value = value.replace(raw, entity)
    return value


def escape_attr(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    for raw, entity in _ATTR_ESCAPES:
        value = value.replace(raw, entity)
    return value


def _open_tag(element: Element) -> str:
    parts = [f"<{element.tag}"]
    for name, value in element.attrs.items():
        parts.append(f' {name}="{escape_attr(value)}"')
    return "".join(parts)


def _serialize_compact(root: Element, out: List[str]) -> None:
    # Interleave text chunks and children the way Element stores them:
    # text first then children (mixed content order within children is
    # not tracked by the model; warehouse data is element- or text-only).
    # A string on the stack is a close tag waiting for the children
    # pushed above it (an explicit stack: depth is bounded by memory).
    stack: List[Union[Element, str]] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append(_open_tag(item))
        if not item.children and not item.text_chunks:
            out.append("/>")
            continue
        out.append(">")
        for chunk in item.text_chunks:
            out.append(escape_text(chunk))
        stack.append(f"</{item.tag}>")
        stack.extend(reversed(item.children))


def _serialize_pretty(root: Element, out: List[str]) -> None:
    stack: List[Union[Tuple[Element, int], str]] = [(root, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        element, indent = item
        pad = "  " * indent
        out.append(pad + _open_tag(element))
        text = element.text
        if not element.children and not text:
            out.append("/>\n")
            continue
        out.append(">")
        if text:
            out.append(escape_text(text))
        if not element.children:
            out.append(f"</{element.tag}>\n")
            continue
        out.append("\n")
        stack.append(f"{pad}</{element.tag}>\n")
        for child in reversed(element.children):
            stack.append((child, indent + 1))


def serialize(node: Union[Document, Element], pretty: bool = False) -> str:
    """Serialize a document or element subtree to an XML string.

    Args:
        node: the document or element to serialize.
        pretty: if true, emit indented output (normalizes whitespace); if
            false, emit compact output that round-trips text exactly
            (modulo the model's text-before-children ordering).
    """
    root = node.root if isinstance(node, Document) else node
    out: List[str] = []
    if pretty:
        _serialize_pretty(root, out)
    else:
        _serialize_compact(root, out)
    return "".join(out)
