"""The cost-aware cuboid cache backing :class:`repro.serve.CubeServer`.

The policy is GreedyDual-Size (Cao & Irani), the canonical cost-aware
generalization of LRU: each resident cuboid carries a priority

    H(entry) = L + benefit(entry),   benefit = recompute_cost / size

where ``L`` is a logical clock that rises to the priority of whatever
was last evicted.  Recency, modeled recompute cost *saved* and space all
feed the same scalar: a recently touched entry has a high clock
component, a cheap-to-recompute or huge cuboid has a low benefit
density, and eviction always removes the minimum-priority entry.  With
uniform costs and sizes the policy degrades to exact LRU.

Sizes are measured in cuboid cells — the same unit
:func:`repro.core.materialize.cuboid_sizes` reports and the view
advisor budgets with, so a cache of ``selection.space_used`` cells
holds the advisor's whole choice.  Costs are modeled simulated seconds
from the deterministic cost model, so admission decisions are
reproducible across hosts.

The cache is thread-safe; all statistics are kept under the same lock
that guards the entries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.core.lattice import LatticePoint
from repro.core.packed import PackedCuboid
from repro.errors import CubeError

#: What the cache holds and the ladder serves: a read-only packed cuboid
#: (sorted codes and values, in wire order).
ServedCuboid = PackedCuboid


@dataclass
class CacheStats:
    """Monotonic counters describing cache behaviour."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejections: int = 0
    invalidations: int = 0
    patches: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "rejections": self.rejections,
            "invalidations": self.invalidations,
            "patches": self.patches,
        }

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


@dataclass
class _Entry:
    cuboid: ServedCuboid
    size: int
    cost: float
    priority: float
    sequence: int
    hits: int = 0


@dataclass(frozen=True)
class CacheEntryInfo:
    """Read-only view of one resident entry (introspection / CLI)."""

    point: LatticePoint
    size: int
    cost: float
    priority: float
    hits: int


#: Audit callback: ``(kind, point, priority, cells)`` where ``kind`` is
#: ``admitted`` / ``evicted`` / ``rejected`` / ``invalidated``,
#: ``priority`` the entry's GreedyDual priority at that moment and
#: ``cells`` its resident size.  Invoked with the cache lock held, so
#: observers must not call back into the cache.
AuditObserver = Callable[[str, LatticePoint, float, int], None]


class CuboidCache:
    """Cost-aware LRU over cuboids, budgeted in cells.

    Args:
        budget_cells: maximum total resident cells; ``0`` disables
            caching entirely (every ``put`` is rejected).
        observer: optional audit hook receiving every cache-state
            change (admission, budget eviction with the victim's
            GreedyDual priority and cells freed, admission rejection,
            invalidation by a write or by a rejected replacement) — the
            serving layer routes these into its request log, so
            evictions are never silent.
    """

    def __init__(
        self,
        budget_cells: int,
        observer: Optional[AuditObserver] = None,
    ) -> None:
        if budget_cells < 0:
            raise CubeError(
                f"cache budget must be >= 0 cells, got {budget_cells}"
            )
        self.budget_cells = budget_cells
        self.observer = observer
        self._entries: Dict[LatticePoint, _Entry] = {}
        self._clock = 0.0
        self._sequence = 0
        self._used_cells = 0
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def _audit(
        self, kind: str, point: LatticePoint, priority: float, cells: int
    ) -> None:
        if self.observer is not None:
            self.observer(kind, point, priority, cells)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, point: LatticePoint) -> Optional[ServedCuboid]:
        """The cached cuboid, refreshing its priority; ``None`` on miss."""
        with self._lock:
            entry = self._entries.get(point)
            if entry is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            entry.hits += 1
            entry.priority = self._clock + self._benefit(entry)
            self._sequence += 1
            entry.sequence = self._sequence
            return entry.cuboid

    def peek(self, point: LatticePoint) -> Optional[ServedCuboid]:
        """Like :meth:`get` but touching neither stats nor priorities."""
        with self._lock:
            entry = self._entries.get(point)
            return None if entry is None else entry.cuboid

    def __contains__(self, point: LatticePoint) -> bool:
        with self._lock:
            return point in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def used_cells(self) -> int:
        with self._lock:
            return self._used_cells

    def points(self) -> List[LatticePoint]:
        with self._lock:
            return list(self._entries)

    def entries(self) -> Iterator[CacheEntryInfo]:
        with self._lock:
            infos = [
                CacheEntryInfo(
                    point=point,
                    size=entry.size,
                    cost=entry.cost,
                    priority=entry.priority,
                    hits=entry.hits,
                )
                for point, entry in self._entries.items()
            ]
        return iter(infos)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(
        self, point: LatticePoint, cuboid: ServedCuboid, cost: float
    ) -> bool:
        """Admit a cuboid with the given modeled recompute cost.

        Returns True when the entry is resident afterwards.  The entry
        enters at priority ``clock + cost/size``; eviction then removes
        minimum-priority entries until the budget holds — which may
        reject the newcomer itself when everything resident is more
        valuable (counted as a rejection, not an eviction).  A rejected
        newcomer still displaces the version it was to replace: that
        departure is an invalidation.
        """
        size = max(1, len(cuboid))
        with self._lock:
            old = self._entries.pop(point, None)
            if old is not None:
                self._used_cells -= old.size
            self._sequence += 1
            entry = _Entry(
                cuboid=cuboid,
                size=size,
                cost=max(0.0, cost),
                priority=0.0,
                sequence=self._sequence,
            )
            if size <= self.budget_cells:
                entry.priority = self._clock + self._benefit(entry)
                self._entries[point] = entry
                self._used_cells += size
                self._fit(newcomer=point)
            if point in self._entries:
                self.stats.insertions += 1
                self._audit("admitted", point, entry.priority, size)
                return True
            if old is not None:
                self.stats.invalidations += 1
                self._audit("invalidated", point, old.priority, old.size)
            self.stats.rejections += 1
            self._audit("rejected", point, entry.priority, size)
            return False

    def replace(self, point: LatticePoint, cuboid: ServedCuboid) -> bool:
        """Swap a resident cuboid for its successor (incremental
        maintenance); the old object is left as it was, for whoever
        still holds it.

        Re-measures the entry and re-balances the budget if the
        successor grew it.  Returns False when the point is absent, or
        when the budget then evicted it.
        """
        with self._lock:
            entry = self._entries.get(point)
            if entry is None:
                return False
            self._used_cells -= entry.size
            entry.cuboid = cuboid
            entry.size = max(1, len(cuboid))
            entry.priority = self._clock + self._benefit(entry)
            self._used_cells += entry.size
            self.stats.patches += 1
            self._fit()
            return point in self._entries

    def invalidate(self, point: LatticePoint) -> bool:
        """Drop one entry (write-path eviction of an affected point)."""
        with self._lock:
            entry = self._entries.pop(point, None)
            if entry is None:
                return False
            self._used_cells -= entry.size
            self.stats.invalidations += 1
            self._audit("invalidated", point, entry.priority, entry.size)
            return True

    # ------------------------------------------------------------------
    # internals (call with the lock held)
    # ------------------------------------------------------------------
    @staticmethod
    def _benefit(entry: _Entry) -> float:
        return entry.cost / entry.size

    def _victim(self) -> LatticePoint:
        """Minimum-priority entry; ties broken least-recently-touched
        first, so with uniform costs and sizes the policy is exact LRU
        and eviction is fully deterministic."""
        return min(
            self._entries,
            key=lambda point: (
                self._entries[point].priority,
                self._entries[point].sequence,
            ),
        )

    def _fit(self, newcomer: Optional[LatticePoint] = None) -> None:
        """Evict minimum-priority entries until the budget holds.  The
        ``newcomer`` :meth:`put` is admitting leaves uncounted: ``put``
        records it as rejected."""
        while self._used_cells > self.budget_cells:
            point = self._victim()
            victim = self._entries.pop(point)
            self._used_cells -= victim.size
            self._clock = max(self._clock, victim.priority)
            if point != newcomer:
                self.stats.evictions += 1
                self._audit("evicted", point, victim.priority, victim.size)
