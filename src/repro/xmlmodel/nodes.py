"""Tree node model with TIMBER-style region encoding.

An XML document is modelled as a tree of :class:`Element` nodes.  Each
element owns an ordered attribute mapping and a text value (the
concatenation of its direct text children; mixed content keeps document
order in ``text_chunks``).  Every element of a :class:`Document` carries
a *region encoding* ``(start, end, level)`` — assigned by the parser
while it builds the tree, and by :meth:`Document.reindex` for trees
built or mutated by hand (the two agree exactly):

- ``start``: preorder position of the opening tag,
- ``end``:   position after the closing tag (so a descendant ``d`` of ``a``
  satisfies ``a.start < d.start`` and ``d.end < a.end``),
- ``level``: depth from the root (root at level 0).

One position is spent on every open and every close, so an element with
``k`` proper descendants has ``end - start == 2k + 1``, and those
descendants are the contiguous preorder slice
``doc.elements[node_id + 1 : node_id + 1 + k]``.

The encoding is what the structural-join algorithms in
:mod:`repro.timber.structural_join` operate on, what fact extraction
(:mod:`repro.core.extract`) evaluates descendant steps on, and it is
also convenient for fast ancestor tests in the in-memory matcher.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import XmlStructureError


class Element:
    """An XML element node.

    Attributes:
        tag: element name.
        attrs: attribute name -> value mapping (insertion ordered).
        text_chunks: direct text content pieces in document order.
        children: child elements in document order.
        parent: parent element, or None for a root.
        start, end, level: region encoding, assigned by the parser or
            :meth:`Document.reindex` (``-1`` until then).
        node_id: document-order ordinal among elements (0-based), assigned
            with the region encoding.
    """

    __slots__ = (
        "tag",
        "attrs",
        "text_chunks",
        "children",
        "parent",
        "start",
        "end",
        "level",
        "node_id",
    )

    def __init__(
        self,
        tag: str,
        attrs: Optional[Dict[str, str]] = None,
        text: Optional[str] = None,
    ) -> None:
        if not tag:
            raise XmlStructureError("element tag must be a non-empty string")
        self.tag = tag
        self.attrs: Dict[str, str] = dict(attrs) if attrs else {}
        self.text_chunks: List[str] = [text] if text else []
        self.children: List["Element"] = []
        self.parent: Optional["Element"] = None
        self.start = -1
        self.end = -1
        self.level = -1
        self.node_id = -1

    # ------------------------------------------------------------------
    # content
    # ------------------------------------------------------------------
    @property
    def text(self) -> str:
        """Direct text content (concatenated chunks, stripped)."""
        chunks = self.text_chunks
        if len(chunks) == 1:
            return chunks[0].strip()
        return "".join(chunks).strip()

    def full_text(self) -> str:
        """Text of this element and all descendants, in document order."""
        # One frame per open element: its unvisited children and the text
        # gathered so far.  (An explicit stack: depth is bounded by
        # memory, not by the interpreter's recursion limit.)
        frames = [(iter(self.children), list(self.text_chunks))]
        while True:
            children, parts = frames[-1]
            child = next(children, None)
            if child is not None:
                frames.append((iter(child.children), list(child.text_chunks)))
                continue
            frames.pop()
            text = "".join(parts).strip()
            if not frames:
                return text
            frames[-1][1].append(text)

    def append_text(self, chunk: str) -> None:
        """Append a raw text chunk (used by the parser; keeps order)."""
        if chunk:
            self.text_chunks.append(chunk)

    # ------------------------------------------------------------------
    # tree construction
    # ------------------------------------------------------------------
    def append(self, child: "Element") -> "Element":
        """Attach ``child`` as the last child and return it."""
        if child.parent is not None:
            raise XmlStructureError(
                f"element <{child.tag}> already has a parent <{child.parent.tag}>"
            )
        child.parent = self
        self.children.append(child)
        return child

    def make_child(
        self,
        tag: str,
        attrs: Optional[Dict[str, str]] = None,
        text: Optional[str] = None,
    ) -> "Element":
        """Create, attach, and return a new child element."""
        return self.append(Element(tag, attrs=attrs, text=text))

    def detach(self) -> "Element":
        """Remove this element from its parent and return it."""
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None
        return self

    # ------------------------------------------------------------------
    # navigation primitives (richer axes live in navigation.py)
    # ------------------------------------------------------------------
    def iter_descendants(self) -> Iterator["Element"]:
        """Yield all proper descendants in document order."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_subtree(self) -> Iterator["Element"]:
        """Yield this element, then all descendants, in document order."""
        yield self
        yield from self.iter_descendants()

    def iter_ancestors(self) -> Iterator["Element"]:
        """Yield ancestors from the parent upward."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def find_children(self, tag: str) -> List["Element"]:
        """Direct children with the given tag, in document order."""
        return [child for child in self.children if child.tag == tag]

    def find_descendants(self, tag: str) -> List["Element"]:
        """Proper descendants with the given tag, in document order."""
        return [node for node in self.iter_descendants() if node.tag == tag]

    def contains(self, other: "Element") -> bool:
        """True if ``other`` is a proper descendant (via region encoding
        when indexed, otherwise by walking parents)."""
        if self.start >= 0 and other.start >= 0:
            return (
                self.start < other.start
                and other.end <= self.end
                and self is not other
            )
        return any(anc is self for anc in other.iter_ancestors())

    # ------------------------------------------------------------------
    # values
    # ------------------------------------------------------------------
    def value(self) -> str:
        """The grouping value of this element: its direct text."""
        return self.text

    def attr(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Attribute value or ``default``."""
        return self.attrs.get(name, default)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = [f"<Element {self.tag}"]
        if self.attrs:
            bits.append(f" attrs={self.attrs!r}")
        if self.start >= 0:
            bits.append(f" region=({self.start},{self.end},{self.level})")
        bits.append(">")
        return "".join(bits)


class Document:
    """A parsed XML document: a root element plus index bookkeeping.

    Use :meth:`reindex` after any structural mutation; the constructor
    calls it for you, and the parser hands over the index it assigned
    while building (:meth:`from_indexed`).
    """

    def __init__(self, root: Element, name: str = "") -> None:
        if root.parent is not None:
            raise XmlStructureError("document root must not have a parent")
        self.root = root
        self.name = name
        self._elements: List[Element] = []
        self.reindex()

    @classmethod
    def from_indexed(
        cls, root: Element, elements: List[Element], name: str = ""
    ) -> "Document":
        """Adopt a tree whose builder already assigned every element's
        ``start/end/level/node_id`` and collected ``elements`` in
        preorder, exactly as :meth:`reindex` would have."""
        doc = cls.__new__(cls)
        doc.root = root
        doc.name = name
        doc._elements = elements
        return doc

    # ------------------------------------------------------------------
    def reindex(self) -> None:
        """(Re-)assign region encodings and node ids in document order."""
        elements: List[Element] = []
        counter = 0
        level = 0
        # Explicit stack (a parent is pushed a second time, to be closed
        # after its children) so tree depth is bounded by memory, not by
        # the interpreter's recursion limit.
        stack: List[Tuple[Element, bool]] = [(self.root, False)]
        while stack:
            node, closing = stack.pop()
            if closing:
                node.end = counter
                counter += 1
                level -= 1
                continue
            node.start = counter
            counter += 1
            node.level = level
            node.node_id = len(elements)
            elements.append(node)
            if node.children:
                level += 1
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))
            else:
                node.end = counter
                counter += 1
        self._elements = elements

    # ------------------------------------------------------------------
    @property
    def elements(self) -> List[Element]:
        """All elements in document order (index == ``node_id``)."""
        return self._elements

    def element_count(self) -> int:
        return len(self._elements)

    def by_id(self, node_id: int) -> Element:
        """Look up an element by its document-order id."""
        try:
            return self._elements[node_id]
        except IndexError:
            raise XmlStructureError(f"no element with node_id {node_id}") from None

    def iter_tags(self) -> Iterable[str]:
        """Distinct tags appearing in the document (document order of
        first occurrence)."""
        seen: Set[str] = set()
        for node in self._elements:
            if node.tag not in seen:
                seen.add(node.tag)
                yield node.tag

    def find_all(self, tag: str) -> List[Element]:
        """All elements with the given tag in document order."""
        return [node for node in self._elements if node.tag == tag]

    def max_depth(self) -> int:
        """Maximum element level (root is 0)."""
        return max(node.level for node in self._elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Document {self.name or self.root.tag!r}"
            f" elements={len(self._elements)}>"
        )


def validate_regions(doc: Document) -> None:
    """Check region-encoding invariants; raise :class:`XmlStructureError`
    if violated.  Used by tests and after mutating operations.

    Invariants:
        - ``start < end`` for every element;
        - child regions are strictly nested inside the parent region;
        - sibling regions are disjoint and ordered;
        - ``level`` equals parent's level + 1.
    """
    for node in doc.elements:
        if not node.start < node.end:
            raise XmlStructureError(
                f"bad region on <{node.tag}>: {node.start},{node.end}"
            )
        prev_end = node.start
        for child in node.children:
            if child.level != node.level + 1:
                raise XmlStructureError(
                    f"bad level on <{child.tag}>: {child.level} under"
                    f" level {node.level}"
                )
            if not (prev_end < child.start and child.end < node.end):
                raise XmlStructureError(
                    f"child region of <{child.tag}> not nested in <{node.tag}>"
                )
            prev_end = child.end
