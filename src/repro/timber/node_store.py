"""The node store: XML elements as fixed-size records on pages.

Loading a document writes one :class:`NodeRecord` per element, in document
order, so sequential scans are page-friendly.  Records carry the region
encoding, the tag, the parent's node id, the direct text value, and the
attribute map — one row of the document's
:class:`~repro.xmlmodel.nodes.RegionTable`, which is what loading reads
(a parsed document is stored without its tree ever being built).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import StorageError
from repro.timber.buffer_pool import BufferPool
from repro.timber.pages import Disk
from repro.xmlmodel.nodes import Document


@dataclass(frozen=True)
class NodeRecord:
    """One stored element.

    Attributes:
        doc_id: owning document.
        node_id: document-order ordinal within the document.
        tag: element name.
        start, end, level: region encoding.
        parent_id: node id of the parent (-1 for the root).
        text: direct text value.
        attrs: attribute name -> value.
    """

    doc_id: int
    node_id: int
    tag: str
    start: int
    end: int
    level: int
    parent_id: int
    text: str
    attrs: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)

    def attr(self, name: str) -> Optional[str]:
        for key, value in self.attrs:
            if key == name:
                return value
        return None

    @property
    def region(self) -> Tuple[int, int, int]:
        return (self.start, self.end, self.level)


@dataclass(frozen=True)
class RecordAddress:
    """Physical address of a record: (page id, slot)."""

    page_id: int
    slot: int


class NodeStore:
    """Append documents as node records; read them back through the pool."""

    def __init__(self, disk: Disk, pool: BufferPool) -> None:
        self._disk = disk
        self._pool = pool
        self._doc_names: List[str] = []
        # doc_id -> node_id -> address
        self._directory: List[List[RecordAddress]] = []
        self._current_page = None

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load_document(self, doc: Document) -> int:
        """Store a document; returns its doc id."""
        doc_id = len(self._doc_names)
        self._doc_names.append(doc.name or f"doc{doc_id}")
        addresses: List[RecordAddress] = []
        table = doc.region_table()  # a record is one row of the region table
        for node_id, (tag, start, end, level, parent_id, text, attrs) in enumerate(
            zip(
                table.tags,
                table.starts,
                table.ends,
                table.levels,
                table.parents,
                table.text_of(range(len(table))),
                table.attrs,
            )
        ):
            record = NodeRecord(
                doc_id=doc_id,
                node_id=node_id,
                tag=tag,
                start=start,
                end=end,
                level=level,
                parent_id=parent_id,
                text=text,
                attrs=tuple(attrs.items()) if attrs else (),
            )
            addresses.append(self._append_record(record))
        self._directory.append(addresses)
        self._pool.flush()
        return doc_id

    def _append_record(self, record: NodeRecord) -> RecordAddress:
        page = self._disk.last_page()
        if page is None or page.full:
            page = self._disk.allocate()
            self._pool.admit_new(page)
            self._pool.cost.charge_write()
        slot = page.append(record)
        return RecordAddress(page.page_id, slot)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def document_count(self) -> int:
        return len(self._doc_names)

    def document_name(self, doc_id: int) -> str:
        self._check_doc(doc_id)
        return self._doc_names[doc_id]

    def node_count(self, doc_id: int) -> int:
        self._check_doc(doc_id)
        return len(self._directory[doc_id])

    def read(self, doc_id: int, node_id: int) -> NodeRecord:
        """Read one record through the buffer pool."""
        self._check_doc(doc_id)
        try:
            address = self._directory[doc_id][node_id]
        except IndexError:
            raise StorageError(
                f"document {doc_id} has no node {node_id}"
            ) from None
        page = self._pool.fetch(address.page_id)
        record = page.get(address.slot)
        self._pool.cost.charge_cpu()
        return record

    def scan(self, doc_id: int) -> Iterator[NodeRecord]:
        """Scan a document's records in document order."""
        self._check_doc(doc_id)
        for address in self._directory[doc_id]:
            page = self._pool.fetch(address.page_id)
            self._pool.cost.charge_cpu()
            yield page.get(address.slot)

    def scan_all(self) -> Iterator[NodeRecord]:
        """Scan every document in load order."""
        for doc_id in range(self.document_count):
            yield from self.scan(doc_id)

    def children_of(self, doc_id: int, node_id: int) -> List[NodeRecord]:
        """Direct children of a node (scan of the containing region)."""
        parent = self.read(doc_id, node_id)
        out: List[NodeRecord] = []
        cursor = node_id + 1
        total = self.node_count(doc_id)
        while cursor < total:
            record = self.read(doc_id, cursor)
            if record.start > parent.end:
                break
            if record.parent_id == node_id:
                out.append(record)
            cursor += 1
        return out

    def subtree_of(self, doc_id: int, node_id: int) -> Iterator[NodeRecord]:
        """The node and all its descendants, in document order."""
        top = self.read(doc_id, node_id)
        cursor = node_id
        total = self.node_count(doc_id)
        while cursor < total:
            record = self.read(doc_id, cursor)
            if record.start > top.end:
                break
            yield record
            cursor += 1

    def _check_doc(self, doc_id: int) -> None:
        if not 0 <= doc_id < len(self._doc_names):
            raise StorageError(f"no document with id {doc_id}")

    def stats(self) -> Dict[str, int]:
        return {
            "documents": self.document_count,
            "nodes": sum(len(addrs) for addrs in self._directory),
            "pages": len(self._disk),
        }
