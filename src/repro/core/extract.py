"""Fact-table extraction: evaluate the most relaxed pattern once.

This is the paper's measurement protocol (Sec. 4): "we pre-evaluated the
query tree pattern, and materialized the results into a file.  The file
was then read in and the cubing was performed."  Extraction finds every
fact, and per axis evaluates the path of *every structural state* of that
axis, recording for each value the mask of states under which it binds.
The cube algorithms then only ever consume the resulting
:class:`~repro.core.bindings.FactTable`.

The query is compiled once (:class:`_QueryPlan`: per axis, one
``(state bit, binding path, existence-prefix path)`` entry per structural
state).  Each path is evaluated *once per query*, for every fact of a
document at once, as a chain of joins over the columns and posting lists
of the document's :class:`~repro.xmlmodel.nodes.RegionTable`
(:class:`_PathJoin`) — no :class:`~repro.xmlmodel.nodes.Element` is built
or visited.  A descendant step is a slice, not a walk: under the region
encoding an element with ``k`` proper descendants has
``end - start == 2k + 1``, and they are the ``k`` rows that follow it in
preorder — the table stores that ``k`` (``RegionTable.sizes``).  Equal
annotated bindings are shared between facts (they are frozen and compare
by value), so a table holds a few dozen :class:`AnnotatedValue` objects
instead of one per fact per axis.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import count, repeat
from operator import attrgetter
from typing import (
    Dict,
    Iterable,
    Iterator,
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
from repro.xmlmodel.nodes import Document, RegionTable


def extract_fact_table(
    source: Union[Document, Sequence[Document]], query: X3Query
) -> FactTable:
    """Extract the annotated fact table from one document or several."""
    docs = [source] if isinstance(source, Document) else list(source)
    return extract_from_documents(docs, query)


# ----------------------------------------------------------------------
# the per-query plan
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


def _measure(values: Iterable[str]) -> float:
    """The sum of the values that read as numbers."""
    measure = 0.0
    for value in values:
        try:
            measure += float(value)
        except ValueError:
            continue
    return measure


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

    def rows(self, doc_index: int, join: "_PathJoin") -> Iterator[FactRow]:
        """The annotated rows of ``join``'s facts, every path read off
        the join for all facts at once and the rows assembled column by
        column."""
        measures: Iterable[float] = repeat(1.0)
        if self.measure is not None:
            measures = map(_measure, join.values(self.measure))
        columns: List[List[Tuple[AnnotatedValue, ...]]] = []
        for plan in self.axes:
            per_state: List[List[Tuple[str, ...]]] = []
            for _, binding, prefix in plan:
                bound = join.values(binding)
                if prefix is not None:
                    bound = [
                        values if exists else ()
                        for values, exists in zip(bound, join.values(prefix))
                    ]
                per_state.append(bound)
            # Facts that bind the same values under every state share
            # one binding, looked up by those values.
            known: Dict[Tuple[Tuple[str, ...], ...], Tuple[AnnotatedValue, ...]]
            known = {}
            column: List[Tuple[AnnotatedValue, ...]] = []
            for key in zip(*per_state):
                shared = known.get(key)
                if shared is None:
                    masks: Dict[str, int] = {}
                    for (bit, _, _), values in zip(plan, key):
                        for value in values:
                            masks[value] = masks.get(value, 0) | bit
                    shared = known[key] = self._shared(tuple(masks.items()))
                column.append(shared)
            columns.append(column)
        for fact, measure, axes in zip(join.facts, measures, zip(*columns)):
            yield FactRow(fact_id=(doc_index, fact), measure=measure, axes=axes)

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
# evaluation over the region table
# ----------------------------------------------------------------------

def extract_from_documents(
    docs: Iterable[Document], query: X3Query
) -> FactTable:
    plan = _QueryPlan(query)
    rows: List[FactRow] = []
    for doc_index, doc in enumerate(docs):
        table = doc.region_table()
        layers = _disjoint_layers(table, table.ids(query.fact_tag))
        found = [
            row
            for facts in layers
            for row in plan.rows(doc_index, _PathJoin(table, facts))
        ]
        if len(layers) > 1:
            found.sort(key=attrgetter("fact_id"))  # back to document order
        rows += found
    return FactTable(plan.lattice, rows, aggregate=query.aggregate)


def _disjoint_layers(
    table: RegionTable, facts: Sequence[int]
) -> List[List[int]]:
    """``facts`` (ascending) split by how many other facts contain them:
    layer 0 holds the outermost, and no fact of a layer contains another
    of the same layer.  A document whose facts do not nest is one layer.
    """
    layers: List[List[int]] = []
    open_until: List[int] = []  # last descendant of each fact still open
    for fact in facts:
        while open_until and open_until[-1] < fact:
            open_until.pop()
        if len(open_until) == len(layers):
            layers.append([])
        layers[len(open_until)].append(fact)
        open_until.append(fact + table.size(fact))
    return layers


#: A step sequence: ``(descendant axis?, tag or None for *)`` per step.
_Steps = Tuple[Tuple[bool, Optional[str]], ...]
#: The frontier of every fact at once, as parallel lists ``(owners,
#: nodes)``: ``nodes[i]`` is a node the path has reached from the fact
#: with ordinal ``owners[i]``.  Pairs stand grouped by owner, ascending,
#: and within one owner in the order the per-fact evaluation sights them.
_Frontier = Tuple[List[int], List[int]]

_NO_ATTRS: Dict[str, str] = {}


class _PathJoin:
    """The paths of a query over one region table, each evaluated once
    for a whole list of pairwise disjoint facts.

    A path is a chain of joins that starts at the facts; every step joins
    the frontier of all facts with the posting list of its tag (every
    row, for ``*``).  A child step keeps the postings whose ``parent`` is
    in the frontier.  A descendant step is the containment join of the
    stack-tree family, and needs no stack here: rows are numbered in
    preorder, so the descendants of row ``n`` are the ids
    ``n + 1 .. n + size(n)`` and their postings are one slice of the
    sorted list, found by bisection.

    Both joins emit their pairs grouped by frontier node (the order of
    stack-tree-*anc*), each node's matches in document order: that is the
    order in which the per-fact evaluator sights nodes, and therefore the
    order values are bound in.  It is document order as long as no
    frontier node contains another; below a descendant step they can, and
    then a child of the outer node may follow the children of the inner
    one in the document but precedes them here.

    Because the facts are disjoint, so are their subtrees: a node belongs
    to at most one fact, and a frontier never lists a node twice.
    Frontiers are memoised by step sequence, so paths share their common
    prefixes (``author`` is joined once for ``author`` and
    ``author/name``).
    """

    def __init__(self, table: RegionTable, facts: List[int]) -> None:
        self.table = table
        self.facts = facts
        self._frontiers: Dict[_Steps, _Frontier] = {
            (): (list(range(len(facts))), facts)
        }
        self._values: Dict[_Path, List[Tuple[str, ...]]] = {}

    def values(self, path: _Path) -> List[Tuple[str, ...]]:
        """Per fact (by ordinal) the distinct values ``path`` binds, in
        first-sighting order."""
        bound = self._values.get(path)
        if bound is None:
            bound = self._values[path] = self._evaluate(path)
        return bound

    def _evaluate(self, path: _Path) -> List[Tuple[str, ...]]:
        table = self.table
        attribute = path.attribute
        if attribute is None:
            owners, nodes = self._frontier(
                path.inner + ((path.descend, path.tag),)
            )
            return self._grouped(owners, table.text_of(nodes))
        owners, nodes = self._frontier(path.inner)
        maps = table.attrs
        if path.descend:
            holders = [
                node
                for node, held in enumerate(maps)
                if held and attribute in held
            ]
            owners, nodes = self._descendants(owners, nodes, holders)
        return self._grouped(
            owners,
            [(maps[node] or _NO_ATTRS).get(attribute) for node in nodes],
        )

    def _grouped(
        self, owners: List[int], values: Iterable[Optional[str]]
    ) -> List[Tuple[str, ...]]:
        """Per fact its distinct values, in first-sighting order; the
        facts that bind one value share one tuple per value."""
        out: List[Tuple[str, ...]] = [()] * len(self.facts)
        several: Dict[int, Dict[str, None]] = {}
        singles: Dict[str, Tuple[str]] = {}
        previous = -1
        for owner, value in zip(owners, values):
            if value is None:  # an element without the attribute
                continue
            if owner != previous:
                single = singles.get(value)
                if single is None:
                    single = singles[value] = (value,)
                out[owner] = single
                previous = owner
            else:
                seen = several.get(owner)
                if seen is None:
                    seen = several[owner] = {out[owner][0]: None}
                seen[value] = None
        for owner, seen in several.items():
            out[owner] = tuple(seen)
        return out

    def _frontier(self, steps: _Steps) -> _Frontier:
        frontier = self._frontiers.get(steps)
        if frontier is None:
            owners, nodes = self._frontier(steps[:-1])
            descend, tag = steps[-1]
            postings: Sequence[int] = (
                range(len(self.table)) if tag is None else self.table.ids(tag)
            )
            join = self._descendants if descend else self._children
            frontier = self._frontiers[steps] = join(owners, nodes, postings)
        return frontier

    def _children(
        self, owners: List[int], nodes: List[int], postings: Sequence[int]
    ) -> _Frontier:
        parents = self.table.parents
        slot = dict(zip(nodes, count()))  # node -> its place in the frontier
        found = [node for node in postings if parents[node] in slot]
        slots = [slot[parents[node]] for node in found]
        if slots != sorted(slots):
            # A nested frontier: group the children by frontier node
            # (the sort is stable, so each group stays in document order).
            order = sorted(range(len(found)), key=slots.__getitem__)
            found = [found[index] for index in order]
            slots = [slots[index] for index in order]
        return [owners[index] for index in slots], found

    def _descendants(
        self, owners: List[int], nodes: List[int], postings: Sequence[int]
    ) -> _Frontier:
        sizes = self.table.sizes
        out_owners: List[int] = []
        out_nodes: List[int] = []
        for owner, node in zip(owners, nodes):
            last = node + sizes[node]
            low = bisect_right(postings, node)
            high = bisect_right(postings, last, low)
            if high > low:
                out_nodes += postings[low:high]
                out_owners += [owner] * (high - low)
        if len(set(owners)) < len(owners):
            # Some fact has several frontier nodes, and nested ones reach
            # the same descendants: each keeps the place of its first
            # sighting.  (Children of distinct nodes are distinct:
            # nothing to dedupe there.)
            owner_of = dict(zip(out_nodes, out_owners))
            if len(owner_of) < len(out_nodes):
                out_nodes = list(owner_of)
                out_owners = list(owner_of.values())
        return out_owners, out_nodes

