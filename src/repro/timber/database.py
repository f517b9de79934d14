"""The TimberDB facade: load documents, scan, index, and account costs.

A :class:`TimberDB` bundles the simulated disk, buffer pool, node store and
tag index behind one object.  The pattern matcher
(:mod:`repro.patterns.match`) and the cube extraction layer
(:mod:`repro.core.extract`) take a TimberDB and charge all their work to
its cost model, which is what the benchmark harness reads out.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from repro import obs
from repro.timber.buffer_pool import BufferPool
from repro.timber.node_store import NodeRecord, NodeStore
from repro.timber.pages import DEFAULT_PAGE_CAPACITY, Disk
from repro.timber.stats import CostModel, MemoryBudget
from repro.timber.tag_index import Posting, TagIndex
from repro.timber.value_index import ValueIndex
from repro.xmlmodel.nodes import Document
from repro.xmlmodel.parser import parse


class TimberDB:
    """A tiny native XML database with cost accounting.

    Args:
        buffer_pages: buffer pool frames (default mirrors the paper's
            "half the working set fits" regime at our scale).
        page_capacity: records per page.
        memory_entries: in-memory working budget for operators (sorting,
            counters); see :class:`MemoryBudget`.
    """

    def __init__(
        self,
        buffer_pages: int = 1024,
        page_capacity: int = DEFAULT_PAGE_CAPACITY,
        memory_entries: int = 100_000,
    ) -> None:
        self.cost = CostModel()
        self.disk = Disk(page_capacity=page_capacity)
        self.pool = BufferPool(self.disk, self.cost, capacity_pages=buffer_pages)
        self.store = NodeStore(self.disk, self.pool)
        self.index = TagIndex(self.disk, self.pool)
        self.values = ValueIndex(self.disk, self.pool)
        self.memory = MemoryBudget(memory_entries)
        self._index_dirty = False
        self._value_index_built = False

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load(self, source: Union[Document, str], name: str = "") -> int:
        """Load a document (tree or XML text).  Returns the doc id."""
        doc = source if isinstance(source, Document) else parse(source, name=name)
        with obs.span(
            "timber.load", category="timber", cost=self.cost, doc=name
        ):
            doc_id = self.store.load_document(doc)
        self._index_dirty = True
        return doc_id

    def load_many(self, sources: List[Union[Document, str]]) -> List[int]:
        return [self.load(source) for source in sources]

    def build_index(self) -> None:
        """(Re-)build the tag index; called lazily by index accessors."""
        with obs.span(
            "timber.index.build", category="timber", cost=self.cost
        ):
            self.index.build(self.store)
        self._index_dirty = False
        self._value_index_built = False

    def build_value_index(self) -> None:
        """(Re-)build the (tag, value) index (lazy, like the tag index)."""
        with obs.span(
            "timber.value_index.build", category="timber", cost=self.cost
        ):
            self.values.build(self.store)
        self._value_index_built = True

    def _ensure_index(self) -> None:
        if self._index_dirty:
            self.build_index()

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def document_count(self) -> int:
        return self.store.document_count

    def node(self, doc_id: int, node_id: int) -> NodeRecord:
        return self.store.read(doc_id, node_id)

    def postings(self, tag: str) -> List[Posting]:
        """Sorted postings of a tag (index scan)."""
        self._ensure_index()
        return self.index.scan_list(tag)

    def postings_iter(self, tag: str) -> Iterator[Posting]:
        self._ensure_index()
        return self.index.scan(tag)

    def tag_cardinality(self, tag: str) -> int:
        self._ensure_index()
        return self.index.cardinality(tag)

    def tags(self) -> List[str]:
        self._ensure_index()
        return self.index.tags()

    def postings_with_value(self, tag: str, value: str) -> List[Posting]:
        """Postings of elements with the tag and exact text value
        (value-index lookup; built on first use)."""
        self._ensure_index()
        if not self._value_index_built:
            self.build_value_index()
        return self.values.lookup(tag, value)

    def record_of(self, posting: Posting) -> NodeRecord:
        """Fetch the full node record behind a posting."""
        return self.store.read(posting.doc_id, posting.node_id)

    # ------------------------------------------------------------------
    # lifecycle / accounting
    # ------------------------------------------------------------------
    def cold_cache(self) -> None:
        """Drop the buffer pool: the paper measures with a cold cache."""
        self.pool.drop_all()

    def reset_cost(self, cold: bool = True) -> None:
        """Zero the cost counters (and optionally chill the cache)."""
        if cold:
            self.cold_cache()
        self.cost.reset()

    def stats(self) -> Dict[str, float]:
        out: Dict[str, float] = dict(self.store.stats())
        out.update(self.cost.snapshot())
        return out

    def publish_metrics(self) -> None:
        """Fold this DB's cost counters (page I/O, buffer hits/misses)
        into the active observability registry, labelled as the timber
        component.  No-op when tracing is off."""
        registry = obs.registry()
        if registry is not None:
            registry.absorb_cost(self.cost, component="timber")

    def new_budget(
        self, capacity_entries: Optional[int] = None, fail_on_overflow: bool = False
    ) -> MemoryBudget:
        """A fresh operator memory budget bound to this DB's page maths."""
        return MemoryBudget(
            capacity_entries or self.memory.capacity_entries,
            fail_on_overflow=fail_on_overflow,
            entries_per_page=self.disk.page_capacity,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.store.stats()
        return (
            f"<TimberDB docs={stats['documents']} nodes={stats['nodes']} "
            f"pages={stats['pages']}>"
        )
