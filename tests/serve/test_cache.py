"""Unit tests for the cost-aware cuboid cache (GreedyDual-Size)."""

import pytest

from repro.errors import CubeError
from repro.serve.cache import CuboidCache

P1 = (0, 0)
P2 = (0, 1)
P3 = (1, 0)
P4 = (1, 1)


def cuboid_of(cells):
    return {("k%d" % i,): float(i) for i in range(cells)}


class TestBasics:
    def test_negative_budget_rejected(self):
        with pytest.raises(CubeError):
            CuboidCache(-1)

    def test_put_then_get(self):
        cache = CuboidCache(10)
        cuboid = cuboid_of(3)
        assert cache.put(P1, cuboid, cost=1.0)
        assert cache.get(P1) == cuboid
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0

    def test_miss_counts(self):
        cache = CuboidCache(10)
        assert cache.get(P1) is None
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.0

    def test_peek_touches_nothing(self):
        cache = CuboidCache(10)
        cache.put(P1, cuboid_of(2), cost=1.0)
        before = cache.stats.as_dict()
        assert cache.peek(P1) == cuboid_of(2)
        assert cache.peek(P2) is None
        assert cache.stats.as_dict() == before

    def test_contains_len_points(self):
        cache = CuboidCache(10)
        cache.put(P1, cuboid_of(2), cost=1.0)
        cache.put(P2, cuboid_of(3), cost=1.0)
        assert P1 in cache and P2 in cache and P3 not in cache
        assert len(cache) == 2
        assert set(cache.points()) == {P1, P2}
        assert cache.used_cells == 5

    def test_empty_cuboid_counts_one_cell(self):
        cache = CuboidCache(10)
        cache.put(P1, {}, cost=1.0)
        assert cache.used_cells == 1

    def test_zero_budget_rejects_everything(self):
        cache = CuboidCache(0)
        assert not cache.put(P1, cuboid_of(1), cost=100.0)
        assert cache.stats.rejections == 1
        assert len(cache) == 0


class TestReplacement:
    def test_put_replaces_same_point(self):
        cache = CuboidCache(10)
        cache.put(P1, cuboid_of(2), cost=1.0)
        cache.put(P1, cuboid_of(5), cost=1.0)
        assert len(cache) == 1
        assert cache.used_cells == 5
        assert cache.peek(P1) == cuboid_of(5)

    def test_oversized_put_also_drops_stale_version(self):
        cache = CuboidCache(4)
        cache.put(P1, cuboid_of(2), cost=1.0)
        assert not cache.put(P1, cuboid_of(9), cost=1.0)
        assert P1 not in cache
        assert cache.used_cells == 0

    def test_uniform_costs_degrade_to_lru(self):
        cache = CuboidCache(2)
        cache.put(P1, cuboid_of(1), cost=1.0)
        cache.put(P2, cuboid_of(1), cost=1.0)
        cache.get(P1)  # refresh P1: P2 is now least valuable
        cache.put(P3, cuboid_of(1), cost=1.0)
        assert P1 in cache and P3 in cache and P2 not in cache
        assert cache.stats.evictions == 1

    def test_expensive_entry_survives_cheap_newcomers(self):
        cache = CuboidCache(2)
        cache.put(P1, cuboid_of(1), cost=100.0)
        cache.put(P2, cuboid_of(1), cost=0.1)
        cache.put(P3, cuboid_of(1), cost=0.1)  # evicts P2, not P1
        assert P1 in cache and P3 in cache and P2 not in cache

    def test_worthless_newcomer_rejects_itself(self):
        cache = CuboidCache(2)
        cache.put(P1, cuboid_of(1), cost=10.0)
        cache.put(P2, cuboid_of(1), cost=10.0)
        admitted = cache.put(P3, cuboid_of(2), cost=0.001)
        assert not admitted
        assert P1 in cache and P2 in cache and P3 not in cache
        assert cache.stats.rejections == 1
        assert cache.stats.evictions == 0

    def test_clock_rises_with_evictions(self):
        """After churn, long-resident entries eventually age out: the
        clock inherits evicted priorities so newcomers outrank entries
        that were valuable long ago but never touched since."""
        cache = CuboidCache(2)
        cache.put(P1, cuboid_of(1), cost=5.0)
        cache.put(P2, cuboid_of(1), cost=1.0)
        for _ in range(8):  # churn the second slot with modest costs
            cache.put(P3, cuboid_of(1), cost=2.0)
            cache.put(P4, cuboid_of(1), cost=2.0)
        assert P1 not in cache  # aged out despite the highest cost

    def test_eviction_accounting_is_exact(self):
        cache = CuboidCache(7)
        cache.put(P1, cuboid_of(3), cost=1.0)
        cache.put(P2, cuboid_of(3), cost=1.0)
        cache.put(P3, cuboid_of(4), cost=5.0)
        assert cache.used_cells <= 7
        assert cache.used_cells == sum(
            info.size for info in cache.entries()
        )


class TestInvalidation:
    def test_invalidate(self):
        cache = CuboidCache(10)
        cache.put(P1, cuboid_of(4), cost=1.0)
        assert cache.invalidate(P1)
        assert not cache.invalidate(P1)
        assert cache.used_cells == 0
        assert cache.stats.invalidations == 1


def grown(cuboid):
    """A successor of ``cuboid`` three cells larger."""
    return {**cuboid, **{("new%d" % i,): 1.0 for i in range(3)}}


class TestReplace:
    def test_replace_swaps_in_the_successor(self):
        cache = CuboidCache(10)
        resident = {("a",): 1.0}
        cache.put(P1, resident, cost=1.0)
        successor = {("a",): 2.0, ("b",): 1.0}
        assert cache.replace(P1, successor)
        assert cache.peek(P1) is successor
        assert resident == {("a",): 1.0}  # the old object is untouched
        assert cache.used_cells == 2
        assert cache.stats.patches == 1

    def test_replace_absent_point(self):
        cache = CuboidCache(10)
        assert not cache.replace(P1, cuboid_of(1))
        assert P1 not in cache and cache.stats.patches == 0

    def test_replace_growth_rebalances_budget(self):
        cache = CuboidCache(4)
        cache.put(P1, cuboid_of(2), cost=0.5)
        cache.put(P2, cuboid_of(2), cost=50.0)
        survived = cache.replace(P1, grown(cuboid_of(2)))
        assert cache.used_cells <= 4
        # P1 grew to 5 cells; something had to go, and the cheap grown
        # entry is the natural victim.
        assert not survived
        assert P2 in cache


class TestEntryInfo:
    def test_entries_report_sizes_costs_hits(self):
        cache = CuboidCache(10)
        cache.put(P1, cuboid_of(3), cost=2.0)
        cache.get(P1)
        cache.get(P1)
        (info,) = list(cache.entries())
        assert info.point == P1
        assert info.size == 3
        assert info.cost == 2.0
        assert info.hits == 2
        assert info.priority > 0

    def test_stats_dict_keys(self):
        cache = CuboidCache(10)
        assert set(cache.stats.as_dict()) == {
            "hits",
            "misses",
            "insertions",
            "evictions",
            "rejections",
            "invalidations",
            "patches",
        }


class TestAuditObserver:
    """Every cache-state change reaches the observer — evictions are
    never silent (they feed the serving layer's request log)."""

    def observed(self, budget):
        records = []
        cache = CuboidCache(
            budget,
            observer=lambda kind, point, priority, cells: records.append(
                (kind, point, priority, cells)
            ),
        )
        return cache, records

    def test_admission(self):
        cache, records = self.observed(10)
        cache.put(P1, cuboid_of(3), cost=1.0)
        assert len(records) == 1
        kind, point, priority, cells = records[0]
        assert (kind, point, cells) == ("admitted", P1, 3)
        assert priority > 0

    def test_budget_eviction_reports_victim_priority_and_cells(self):
        cache, records = self.observed(4)
        cache.put(P1, cuboid_of(3), cost=0.1)
        (_, _, admit_priority, _) = records[0]
        records.clear()
        cache.put(P2, cuboid_of(3), cost=50.0)
        kinds = [record[0] for record in records]
        assert kinds == ["evicted", "admitted"]
        kind, point, priority, cells = records[0]
        assert point == P1
        assert cells == 3
        assert priority == admit_priority
        assert cache.stats.evictions == 1

    def test_rejection_of_the_newcomer(self):
        cache, records = self.observed(4)
        cache.put(P1, cuboid_of(3), cost=50.0)
        records.clear()
        cache.put(P2, cuboid_of(3), cost=0.01)
        assert [record[0] for record in records] == ["rejected"]
        assert records[0][1] == P2
        assert cache.stats.rejections == 1

    def test_oversize_rejection(self):
        cache, records = self.observed(2)
        cache.put(P1, cuboid_of(5), cost=1.0)
        assert [record[0] for record in records] == ["rejected"]
        assert records[0][3] == 5

    def test_invalidation(self):
        cache, records = self.observed(10)
        cache.put(P1, cuboid_of(2), cost=1.0)
        records.clear()
        cache.invalidate(P1)
        assert [record[0] for record in records] == ["invalidated"]
        assert records[0][1] == P1
        assert records[0][3] == 2

    def test_replace_eviction_is_audited(self):
        cache, records = self.observed(4)
        cache.put(P1, cuboid_of(2), cost=0.5)
        cache.put(P2, cuboid_of(2), cost=50.0)
        records.clear()
        cache.replace(P1, grown(cuboid_of(2)))
        evicted = [record for record in records if record[0] == "evicted"]
        assert evicted and evicted[0][1] == P1
        assert cache.stats.evictions == 1

    @pytest.mark.parametrize("budget, cost", [(3, 1.0), (4, 0.001)])
    def test_refused_replacement_records_the_resident_leaving(
        self, budget, cost
    ):
        """A ``put`` over a resident point displaces it even when the
        newcomer is refused — oversized (budget 3), or out-valued by the
        rest of the cache (budget 4): the old version's departure is an
        invalidation, audited and counted."""
        cache, records = self.observed(budget)
        cache.put(P1, cuboid_of(1), cost=1.0)
        cache.put(P2, cuboid_of(1), cost=50.0)
        records.clear()
        assert not cache.put(P1, cuboid_of(4), cost=cost)
        assert [(kind, point) for kind, point, _, _ in records] == [
            ("invalidated", P1),
            ("rejected", P1),
        ]
        assert records[0][3] == 1
        assert P1 not in cache and cache.used_cells == 1
        assert cache.stats.invalidations == 1
        assert cache.stats.rejections == 1
        assert cache.stats.evictions == 0

    def test_no_observer_is_fine(self):
        cache = CuboidCache(4)
        cache.put(P1, cuboid_of(3), cost=1.0)
        cache.put(P2, cuboid_of(3), cost=50.0)
        assert cache.stats.evictions == 1
