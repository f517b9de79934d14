"""Fact-table extraction: evaluate the most relaxed pattern once.

This is the paper's measurement protocol (Sec. 4): "we pre-evaluated the
query tree pattern, and materialized the results into a file.  The file
was then read in and the cubing was performed."  Extraction finds every
fact, and per axis evaluates the path of *every structural state* of that
axis, recording for each value the mask of states under which it binds.
The cube algorithms then only ever consume the resulting
:class:`~repro.core.bindings.FactTable`.

Two backends:

- :func:`extract_from_documents` — in-memory :class:`Document` trees;
- :func:`extract_from_db` — a :class:`~repro.timber.database.TimberDB`,
  going through the tag index and node store so the work is charged to
  the DB's cost model.

Both compile the query once (:class:`_QueryPlan`: per axis, one
``(state bit, binding path, existence-prefix path)`` entry per structural
state) and then only *evaluate* per fact.  A descendant step is a slice,
not a walk: under the region encoding an element with ``k`` proper
descendants has ``end - start == 2k + 1``, and they are the ``k``
elements that follow it in preorder.  Equal annotated bindings are
shared between facts (they are frozen and compare by value), so a table
holds a few dozen :class:`AnnotatedValue` objects instead of one per fact
per axis.  The backends differ only in how a path is evaluated from a
fact (:func:`_values_memory`, :func:`_values_db`): the DB twin reads
:class:`NodeRecord` rows and charges every pool it touches.
"""

from __future__ import annotations

from functools import partial
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.axes import AxisSpec, PathStep
from repro.core.bindings import AnnotatedValue, FactRow, FactTable
from repro.core.query import X3Query
from repro.core.states import AxisStates
from repro.patterns.pattern import EdgeAxis
from repro.timber.database import TimberDB
from repro.timber.node_store import NodeRecord
from repro.xmlmodel.nodes import Document, Element


def extract_fact_table(
    source: Union[TimberDB, Document, Sequence[Document]], query: X3Query
) -> FactTable:
    """Extract the annotated fact table from documents or a TimberDB."""
    if isinstance(source, TimberDB):
        return extract_from_db(source, query)
    docs = [source] if isinstance(source, Document) else list(source)
    return extract_from_documents(docs, query)


# ----------------------------------------------------------------------
# the per-query plan (shared by both backends)
# ----------------------------------------------------------------------

class _Path(NamedTuple):
    """One location path, compiled.

    Attributes:
        inner: the steps before the last, each ``(descendant axis?, tag)``
            with ``None`` for the ``*`` test.
        descend: whether the last step is on the descendant axis.
        tag: the last step's element test (``None`` for ``*``, and for
            an attribute step).
        attribute: the attribute name when the last step is ``@name``.
    """

    inner: Tuple[Tuple[bool, Optional[str]], ...]
    descend: bool
    tag: Optional[str]
    attribute: Optional[str]


def _compile_path(steps: Tuple[PathStep, ...]) -> _Path:
    def compiled(step: PathStep) -> Tuple[bool, Optional[str]]:
        axis, test = step
        return axis is EdgeAxis.DESCENDANT, None if test == "*" else test

    descend, test = compiled(steps[-1])
    attribute = (
        test[1:] if test is not None and test.startswith("@") else None
    )
    return _Path(
        inner=tuple(compiled(step) for step in steps[:-1]),
        descend=descend,
        tag=None if attribute is not None else test,
        attribute=attribute,
    )


#: Evaluates a compiled path from one fact: the distinct values it binds,
#: in first-sighting order (the keys of the returned mapping).
_Evaluate = Callable[[_Path], Dict[str, None]]

#: One axis: ``(state bit, binding path, existence-prefix path or None)``
#: per structural state, in state-index order.
_AxisPlan = Tuple[Tuple[int, _Path, Optional[_Path]], ...]


def _axis_plan(states: AxisStates) -> _AxisPlan:
    plan = []
    for index, applied in enumerate(states.states):
        binding, prefix = states.axis.steps_for_state(applied)
        plan.append(
            (
                1 << index,
                _compile_path(binding),
                _compile_path(prefix) if prefix else None,
            )
        )
    return tuple(plan)


class _QueryPlan:
    """Everything about a query that does not depend on the fact."""

    def __init__(self, query: X3Query) -> None:
        self.lattice = query.lattice()
        self.axes: Tuple[_AxisPlan, ...] = tuple(
            _axis_plan(states) for states in self.lattice.axis_states
        )
        self.measure: Optional[_Path] = None
        if query.aggregate.function.upper() != "COUNT":
            self.measure = _compile_path(
                AxisSpec.from_path("$m", query.aggregate.measure_path).steps
            )
        # Equal bindings of different facts are one object.
        self._values: Dict[Tuple[str, int], AnnotatedValue] = {}
        self._bindings: Dict[
            Tuple[Tuple[str, int], ...], Tuple[AnnotatedValue, ...]
        ] = {}

    def row(self, fact_id: Tuple[int, int], evaluate: _Evaluate) -> FactRow:
        """The annotated row of one fact, its paths read by ``evaluate``."""
        axes: List[Tuple[AnnotatedValue, ...]] = []
        for plan in self.axes:
            masks: Dict[str, int] = {}
            for bit, binding, prefix in plan:
                if prefix is not None and not evaluate(prefix):
                    continue
                for value in evaluate(binding):
                    masks[value] = masks.get(value, 0) | bit
            axes.append(self._shared(tuple(masks.items())))
        measure = 1.0
        if self.measure is not None:
            measure = 0.0
            for value in evaluate(self.measure):
                try:
                    measure += float(value)
                except ValueError:
                    continue
        return FactRow(fact_id=fact_id, measure=measure, axes=tuple(axes))

    def _shared(
        self, key: Tuple[Tuple[str, int], ...]
    ) -> Tuple[AnnotatedValue, ...]:
        binding = self._bindings.get(key)
        if binding is None:
            values = self._values
            for item in key:
                if item not in values:
                    values[item] = AnnotatedValue(*item)
            binding = self._bindings[key] = tuple(
                values[item] for item in key
            )
        return binding


# ----------------------------------------------------------------------
# in-memory backend
# ----------------------------------------------------------------------

def extract_from_documents(
    docs: Iterable[Document], query: X3Query
) -> FactTable:
    plan = _QueryPlan(query)
    rows: List[FactRow] = []
    for doc_index, doc in enumerate(docs):
        elements = doc.elements
        for fact in doc.find_all(query.fact_tag):
            rows.append(
                plan.row(
                    (doc_index, fact.node_id),
                    partial(_values_memory, fact, elements),
                )
            )
    return FactTable(plan.lattice, rows, aggregate=query.aggregate)


def _descendants(node: Element, elements: List[Element]) -> List[Element]:
    """The proper descendants of ``node``: the preorder slice behind it."""
    below = node.node_id + 1
    return elements[below : below + (node.end - node.start) // 2]


def _values_memory(
    context: Element, elements: List[Element], path: _Path
) -> Dict[str, None]:
    frontier = [context]
    for descend, tag in path.inner:
        matched = [
            candidate
            for node in frontier
            for candidate in (
                _descendants(node, elements) if descend else node.children
            )
            if tag is None or candidate.tag == tag
        ]
        if descend and len(frontier) > 1:
            # Nested frontier nodes reach the same descendants; each
            # keeps the place of its first sighting.  (Children of
            # distinct nodes are distinct: nothing to dedupe there.)
            matched = list({node.node_id: node for node in matched}.values())
        frontier = matched
    values: Dict[str, None] = {}
    attribute = path.attribute
    if attribute is not None:
        for node in frontier:
            for owner in (
                _descendants(node, elements) if path.descend else (node,)
            ):
                value = owner.attrs.get(attribute)
                if value is not None:
                    values[value] = None
        return values
    tag = path.tag
    for node in frontier:
        for candidate in (
            _descendants(node, elements) if path.descend else node.children
        ):
            if tag is None or candidate.tag == tag:
                values[candidate.text] = None
    return values


# ----------------------------------------------------------------------
# TimberDB backend
# ----------------------------------------------------------------------

def extract_from_db(db: TimberDB, query: X3Query) -> FactTable:
    plan = _QueryPlan(query)
    rows: List[FactRow] = []
    for posting in db.postings(query.fact_tag):
        subtree = list(db.store.subtree_of(posting.doc_id, posting.node_id))
        db.cost.charge_cpu(len(subtree))
        children_of: Dict[int, List[NodeRecord]] = {}
        for record in subtree[1:]:
            children_of.setdefault(record.parent_id, []).append(record)
        rows.append(
            plan.row(
                (posting.doc_id, posting.node_id),
                partial(_values_db, subtree, children_of, db),
            )
        )
    return FactTable(plan.lattice, rows, aggregate=query.aggregate)


def _values_db(
    subtree: List[NodeRecord],
    children_of: Dict[int, List[NodeRecord]],
    db: TimberDB,
    path: _Path,
) -> Dict[str, None]:
    """:func:`_values_memory` over the stored records of one fact's
    subtree (``subtree[0]`` is the fact, the rest follow in preorder),
    with every pool it reads charged to the DB's cost model."""
    first_id = subtree[0].node_id

    def pool_of(node: NodeRecord, descend: bool) -> Sequence[NodeRecord]:
        pool: Sequence[NodeRecord]
        if descend:
            below = node.node_id - first_id + 1
            pool = subtree[below : below + (node.end - node.start) // 2]
        else:
            pool = children_of.get(node.node_id, ())
        db.cost.charge_cpu(len(pool))
        return pool

    frontier = [subtree[0]]
    for descend, tag in path.inner:
        matched = [
            candidate
            for node in frontier
            for candidate in pool_of(node, descend)
            if tag is None or candidate.tag == tag
        ]
        if descend and len(frontier) > 1:
            matched = list({node.node_id: node for node in matched}.values())
        frontier = matched
    values: Dict[str, None] = {}
    attribute = path.attribute
    if attribute is not None:
        for node in frontier:
            if path.descend:
                owners = pool_of(node, True)
            else:
                owners = (node,)
                db.cost.charge_cpu(1)
            for owner in owners:
                value = owner.attr(attribute)
                if value is not None:
                    values[value] = None
        return values
    tag = path.tag
    for node in frontier:
        for candidate in pool_of(node, path.descend):
            if tag is None or candidate.tag == tag:
                values[candidate.text] = None
    return values
