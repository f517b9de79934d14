"""Stack-tree structural joins over sorted posting lists.

This is the classic Al-Khalifa et al. *stack-tree-desc* algorithm used by
TIMBER: given two posting streams sorted by (doc, start), produce all
(ancestor, descendant) — or (parent, child) — pairs in a single merge pass
with a stack of open ancestors.  Cost: one CPU op per stream advance and
per emitted pair; I/O is charged by the index scans feeding the streams.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.timber.stats import CostModel
from repro.timber.tag_index import Posting

JoinPair = Tuple[Posting, Posting]


def stack_tree_join(
    ancestors: Iterable[Posting],
    descendants: Iterable[Posting],
    cost: CostModel,
    parent_child: bool = False,
) -> Iterator[JoinPair]:
    """Join two sorted posting streams structurally.

    Args:
        ancestors: postings of the upper tag, sorted by (doc_id, start).
        descendants: postings of the lower tag, same order.
        cost: charged one CPU op per advance and per output pair.
        parent_child: if true, only emit pairs at adjacent levels.

    Yields:
        (ancestor_posting, descendant_posting) pairs grouped by
        descendant, in descendant document order.
    """
    anc_iter = iter(ancestors)
    desc_iter = iter(descendants)
    anc: Optional[Posting] = next(anc_iter, None)
    desc: Optional[Posting] = next(desc_iter, None)
    stack: List[Posting] = []

    while desc is not None:
        if anc is not None and anc.sort_key < desc.sort_key:
            # The ancestor candidate opens first: keep it only while it
            # can still cover upcoming descendants.
            _pop_closed(stack, anc, cost)
            stack.append(anc)
            anc = next(anc_iter, None)
            cost.charge_cpu()
            continue
        _pop_closed(stack, desc, cost)
        for open_anc in stack:
            if _covers(open_anc, desc):
                if parent_child and desc.level != open_anc.level + 1:
                    continue
                cost.charge_cpu()
                yield (open_anc, desc)
        desc = next(desc_iter, None)
        cost.charge_cpu()


def _pop_closed(stack: List[Posting], current: Posting, cost: CostModel) -> None:
    """Remove stack entries that end before ``current`` starts."""
    while stack and (
        stack[-1].doc_id != current.doc_id or stack[-1].end < current.start
    ):
        stack.pop()
        cost.charge_cpu()


def join_pairs(
    ancestors: List[Posting],
    descendants: List[Posting],
    cost: CostModel,
    parent_child: bool = False,
) -> List[JoinPair]:
    """Materialized convenience wrapper over :func:`stack_tree_join`."""
    from repro import obs

    if obs.enabled():
        kind = "parent_child" if parent_child else "ancestor_descendant"
        with obs.span(
            "timber.structural_join",
            category="timber",
            cost=cost,
            kind=kind,
            ancestors=len(ancestors),
            descendants=len(descendants),
        ) as span:
            pairs = list(
                stack_tree_join(
                    ancestors, descendants, cost, parent_child=parent_child
                )
            )
            span.annotate(pairs=len(pairs))
        obs.count("x3_join_pairs_total", len(pairs), join="structural")
        return pairs
    return list(
        stack_tree_join(ancestors, descendants, cost, parent_child=parent_child)
    )


def _covers(anc: Posting, desc: Posting) -> bool:
    return (
        anc.doc_id == desc.doc_id
        and anc.start < desc.start
        and desc.end <= anc.end
    )
