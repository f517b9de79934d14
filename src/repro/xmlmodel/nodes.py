"""Node model with TIMBER-style region encoding: a table and a tree.

An XML document is modelled as a tree of :class:`Element` nodes.  Each
element owns an ordered attribute mapping and a text value (the
concatenation of its direct text children; mixed content keeps document
order in ``text_chunks``).  Every element of a :class:`Document` carries
a *region encoding* ``(start, end, level)`` — derived from the parser's
table when the tree is built, and assigned by :meth:`Document.reindex`
for trees built or mutated by hand (the two agree exactly):

- ``start``: preorder position of the opening tag,
- ``end``:   position after the closing tag (so a descendant ``d`` of ``a``
  satisfies ``a.start < d.start`` and ``d.end < a.end``),
- ``level``: depth from the root (root at level 0).

One position is spent on every open and every close, so an element with
``k`` proper descendants has ``end - start == 2k + 1``, and those
descendants are the contiguous preorder slice
``doc.elements[node_id + 1 : node_id + 1 + k]``.

The encoding is what fact extraction (:mod:`repro.core.extract`)
evaluates descendant steps on: its containment joins are slices of the
preorder, found by bisection.

The same document has a second shape, the :class:`RegionTable`: one row
per element in preorder, held as flat columns, plus the per-tag posting
lists.  The table stores what the encoding is made of — each row's
parent and its number of proper descendants — and derives
``(start, end, level)`` in one pass when someone asks
(:meth:`RegionTable.regions`).  The parser writes the table and nothing
else; everything that only *reads* a document (extraction, schema
inference) reads the table, and the :class:`Element` tree is a view a
:class:`Document` materialises the first time someone asks for it.
Exactly one of the two is the truth at any time — see :class:`Document`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import XmlStructureError


class Element:
    """An XML element node.

    Attributes:
        tag: element name.
        attrs: attribute name -> value mapping (insertion ordered).
        text_chunks: direct text content pieces in document order.
        children: child elements in document order.
        parent: parent element, or None for a root.
        start, end, level: region encoding, derived from the parser's
            table or assigned by :meth:`Document.reindex` (``-1`` until
            then).
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
    # navigation primitives
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


#: One cell of :attr:`RegionTable.texts`: no direct text, one chunk (the
#: common case, stored bare), or the chunks of mixed content in order.
TextCell = Union[None, str, List[str]]


class RegionTable:
    """A document as flat preorder columns: row ``i`` is the element
    whose ``node_id`` is ``i``.

    Attributes:
        tags: element name (equal names are one string).
        parents: ``node_id`` of the parent, ``-1`` for the root.
        sizes: the number of proper descendants.
        texts: direct text chunks (:data:`TextCell`); equal cells the
            parser writes are one string.
        attrs: the attribute mapping, or None when there is none.
        postings: tag -> the ``node_id`` s carrying it, ascending (which
            is document order), keyed in order of first occurrence.

    The proper descendants of row ``i`` are the rows
    ``i + 1 .. i + sizes[i]``; a posting list is sorted, so the
    descendants with one tag are a slice of it found by bisection.  The
    region encoding is not stored: :meth:`regions` derives it from
    ``parents`` and ``sizes``.
    """

    __slots__ = (
        "tags",
        "parents",
        "sizes",
        "texts",
        "attrs",
        "postings",
    )

    def __init__(self) -> None:
        self.tags: List[str] = []
        self.parents: List[int] = []
        self.sizes: List[int] = []
        self.texts: List[TextCell] = []
        self.attrs: List[Optional[Dict[str, str]]] = []
        self.postings: Dict[str, List[int]] = {}

    @classmethod
    def from_elements(cls, elements: Sequence[Element]) -> "RegionTable":
        """The table of an indexed tree, read off its elements as they
        stand: content (tag, text, attributes) is the elements' current
        content, structure is the index their last ``reindex()`` gave
        them."""
        table = cls()
        table.tags = [node.tag for node in elements]
        table.parents = [
            node.parent.node_id if node.parent is not None else -1
            for node in elements
        ]
        table.sizes = [(node.end - node.start) // 2 for node in elements]
        table.texts = [
            node.text_chunks[0]
            if len(node.text_chunks) == 1
            else node.text_chunks or None
            for node in elements
        ]
        table.attrs = [node.attrs or None for node in elements]
        postings = table.postings
        for node_id, tag in enumerate(table.tags):
            try:
                postings[tag].append(node_id)
            except KeyError:  # the first element with this tag
                postings[tag] = [node_id]
        return table

    def __len__(self) -> int:
        return len(self.tags)

    def ids(self, tag: str) -> Sequence[int]:
        """The posting list of ``tag`` (empty for a tag never seen)."""
        return self.postings.get(tag, ())

    def size(self, node_id: int) -> int:
        """The number of proper descendants of a row."""
        return self.sizes[node_id]

    def regions(self) -> Iterator[Tuple[int, int, int]]:
        """The region encoding ``(start, end, level)`` of every row, in
        preorder, derived in one pass.

        A row's level is its parent's plus one.  Before row ``i`` opens,
        ``i`` elements have opened and all but its ``level`` ancestors
        have closed, so ``start = 2i - level``; its ``size`` descendants
        then open and close inside it, so ``end = start + 2 size + 1``.
        """
        levels: List[int] = []
        for node_id, (parent_id, size) in enumerate(
            zip(self.parents, self.sizes)
        ):
            level = levels[parent_id] + 1 if parent_id >= 0 else 0
            levels.append(level)
            start = 2 * node_id - level
            yield start, start + 2 * size + 1, level

    # The layout of a text cell (:data:`TextCell`) is known to the
    # methods of this class only; everyone else goes through them.
    def append_text(self, node_id: int, chunk: str) -> None:
        """Add a direct text chunk to a row (how the parser writes
        text): the cell stays bare while the chunk is the only one."""
        texts = self.texts
        cell = texts[node_id]
        if cell is None:
            texts[node_id] = chunk
        elif isinstance(cell, str):
            texts[node_id] = [cell, chunk]
        else:
            cell.append(chunk)

    def chunks(self, node_id: int) -> List[str]:
        """Direct text chunks of a row (``Element.text_chunks``)."""
        cell = self.texts[node_id]
        if cell is None:
            return []
        return [cell] if isinstance(cell, str) else cell

    def text_of(self, node_ids: Iterable[int]) -> List[str]:
        """Direct text of the given rows (``Element.text`` of each)."""
        return [
            cell.strip()
            if isinstance(cell, str)
            else "".join(cell).strip() if cell is not None else ""
            for cell in map(self.texts.__getitem__, node_ids)
        ]

    def has_text(self, node_ids: Iterable[int]) -> bool:
        """Whether some given row has direct text (``Element.text`` not
        empty); stops at the first that has."""
        for cell in map(self.texts.__getitem__, node_ids):
            if cell is not None and (
                cell if isinstance(cell, str) else "".join(cell)
            ).strip():
                return True
        return False

    def build_elements(self) -> List[Element]:
        """The :class:`Element` tree of this table, in preorder; the
        elements adopt the table's chunk lists and attribute mappings."""
        elements: List[Element] = []
        for node_id, (tag, parent_id, (start, end, level), attrs) in enumerate(
            zip(self.tags, self.parents, self.regions(), self.attrs)
        ):
            node = Element(tag)
            if attrs is not None:
                node.attrs = attrs
            node.text_chunks = self.chunks(node_id)
            node.start = start
            node.end = end
            node.level = level
            node.node_id = node_id
            if parent_id >= 0:
                elements[parent_id].append(node)
            elements.append(node)
        return elements


class Document:
    """An XML document: a region table, or a root element plus its index.

    Who owns the truth.  A parsed document starts as the parser's
    :class:`RegionTable` and has no tree.  The first read of
    :attr:`root` or :attr:`elements` (or anything that returns an
    :class:`Element`) builds the tree from the table, once, and drops
    the table: from then on the tree is the truth, exactly as for a
    document built from a hand-made tree.  :meth:`region_table` of such
    a document derives a new table from the tree on every call (one
    pass per column: call it once per use and keep the result), so a
    reader of the table can never see text or attributes that a later
    mutation of the tree has replaced.

    Use :meth:`reindex` after any structural mutation; the constructor
    calls it for you.
    """

    def __init__(self, root: Element, name: str = "") -> None:
        if root.parent is not None:
            raise XmlStructureError("document root must not have a parent")
        self.name = name
        self._table: Optional[RegionTable] = None
        self._root = root
        self._elements: List[Element] = []
        self.reindex()

    @classmethod
    def from_table(cls, table: RegionTable, name: str = "") -> "Document":
        """A document that is ``table`` (what the parser returns)."""
        doc = cls.__new__(cls)
        doc.name = name
        doc._table = table
        return doc

    # ------------------------------------------------------------------
    def region_table(self) -> RegionTable:
        """The region table: the document itself (O(1)) while no one has
        touched the tree, otherwise derived from the tree as it stands
        now — O(document) on every call, nothing is cached."""
        if self._table is not None:
            return self._table
        return RegionTable.from_elements(self._elements)

    def _build_tree(self) -> None:
        assert self._table is not None
        self._elements = self._table.build_elements()
        self._root = self._elements[0]
        self._table = None

    @property
    def root(self) -> Element:
        if self._table is not None:
            self._build_tree()
        return self._root

    @property
    def elements(self) -> List[Element]:
        """All elements in document order (index == ``node_id``)."""
        if self._table is not None:
            self._build_tree()
        return self._elements

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
    def element_count(self) -> int:
        if self._table is not None:
            return len(self._table)
        return len(self._elements)

    def by_id(self, node_id: int) -> Element:
        """Look up an element by its document-order id."""
        try:
            return self.elements[node_id]
        except IndexError:
            raise XmlStructureError(f"no element with node_id {node_id}") from None

    def iter_tags(self) -> Iterable[str]:
        """Distinct tags appearing in the document (document order of
        first occurrence)."""
        if self._table is not None:
            return iter(self._table.postings)
        return iter(dict.fromkeys(node.tag for node in self._elements))

    def tag_count(self, tag: str) -> int:
        """How many elements carry ``tag`` (a posting-list length while
        the table is the document)."""
        if self._table is not None:
            return len(self._table.ids(tag))
        return sum(node.tag == tag for node in self._elements)

    def find_all(self, tag: str) -> List[Element]:
        """All elements with the given tag in document order."""
        if self._table is not None and not self._table.ids(tag):
            return []  # a miss leaves the tree unbuilt
        return [node for node in self.elements if node.tag == tag]

    def max_depth(self) -> int:
        """Maximum element level (root is 0)."""
        if self._table is not None:
            return max(level for _, _, level in self._table.regions())
        return max(node.level for node in self._elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self._table.tags[0] if self._table is not None else self._root.tag
        return (
            f"<Document {self.name or tag!r} elements={self.element_count()}>"
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
