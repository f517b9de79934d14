"""Tests for CubeServer.explain_query(): the ladder decision tree.

The load-bearing contract: ``explain_query()`` is side-effect-free, and
the trail it predicts is the trail ``query()`` actually records in the
request log when no write intervenes — verified here over a 100-query
deterministic replay, which is also what the CLI's ``--verify`` flag
re-checks end to end.  (Both run the one ``_walk_ladder``; the random
schedules are in ``tests/prop/test_hypothesis_explain.py``.)
"""

import pytest

from repro.core.query import Query
from repro.errors import CubeError, InvalidQuery
from repro.obs.events import rung_reasons
from repro.serve import CubeServer, TIERS
from repro.serve.replay import sample_points
from repro.testing import small_workload
from tests.conftest import advised_server, cuboid_of


def explain(server, point):
    return server.explain_query(Query(point=point))


def fresh(**overrides):
    workload = small_workload(**overrides)
    table = workload.fact_table()
    return table, workload.oracle(table)


class TestExplainShape:
    def test_lists_all_rungs_in_ladder_order(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        explanation = explain(server, table.lattice.topo_finer_first()[0])
        assert tuple(d.rung for d in explanation.rungs) == TIERS
        assert sum(1 for d in explanation.rungs if d.taken) == 1

    def test_cold_server_recomputes(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        explanation = explain(server, table.lattice.topo_finer_first()[0])
        assert explanation.tier == "recompute"
        by_rung = {d.rung: d for d in explanation.rungs}
        assert by_rung["cache"].reason == "not resident"
        assert "snapshot" in by_rung["recompute"].reason

    def test_cached_point_stops_the_ladder(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        point = table.lattice.topo_finer_first()[0]
        cuboid_of(server, point)
        explanation = explain(server, point)
        assert explanation.tier == "cache"
        assert "resident in cache" in explanation.rungs[0].reason
        assert all(
            d.reason == "not reached (resolved at cache)"
            for d in explanation.rungs[1:]
        )

    def test_rollup_taken_reason_carries_proof_verdicts(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        points = table.lattice.topo_finer_first()
        cuboid_of(server, points[0])  # finest cuboid derives the rest
        explanation = explain(server, points[-1])
        rollup = next(
            d for d in explanation.rungs if d.rung == "rollup"
        )
        assert rollup.taken
        assert "disjoint=True covered=True" in rollup.reason

    def test_rollup_rejection_carries_proof_verdicts(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        points = table.lattice.topo_finer_first()
        # Only the coarsest cuboid is resident: it cannot derive any
        # finer point, so the rollup rung is examined and rejected.
        cuboid_of(server, points[-1])
        explanation = explain(server, points[0])
        rollup = next(
            d for d in explanation.rungs if d.rung == "rollup"
        )
        assert not rollup.taken
        assert "disjoint=" in rollup.reason
        assert "covered=" in rollup.reason

    def test_render_marks(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        point = table.lattice.topo_finer_first()[0]
        cuboid_of(server, point)
        text = explain(server, point).render()
        assert text.splitlines()[0].endswith("-> cache")
        assert "1. cache       *" in text
        assert ". not reached" in text
        assert "DESIGN.md Sec. 5c" in text

    def test_unknown_point_raises(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        # Both shapes of bad spec raise the structured taxonomy error
        # (InvalidQuery is a CubeError, so old callers keep working).
        with pytest.raises(InvalidQuery):
            explain(server, "$nope:warp")
        with pytest.raises(CubeError):
            explain(server, tuple(99 for _ in table.lattice.axis_states))


class TestExplainIsPure:
    def test_no_events_no_stats_no_cache_effects(self):
        table, oracle = fresh()
        server = CubeServer(table, oracle)
        point = table.lattice.topo_finer_first()[0]
        cuboid_of(server, point)
        before_stats = server.stats()
        before_events = server.events.stats()
        before_entries = {
            entry.point: (entry.hits, entry.priority)
            for entry in server.cache.entries()
        }
        for target in list(table.lattice.points()):
            explain(server, target)
        assert server.events.stats() == before_events
        after_stats = server.stats()
        assert after_stats.requests == before_stats.requests
        assert after_stats.cache == before_stats.cache
        assert {
            entry.point: (entry.hits, entry.priority)
            for entry in server.cache.entries()
        } == before_entries


class TestExplainAgreesWithExecution:
    @pytest.mark.parametrize("advised_cells", [0, 60])
    def test_hundred_replayed_queries(self, advised_cells):
        """Cold, and warmed with the Sec. 3.6 advisor's choice under a
        60-cell budget (a budget of 0 chooses nothing)."""
        table, oracle = fresh(n_facts=120, seed=21)
        server, selection = advised_server(
            table, oracle, advised_cells, cache_cells=256
        )
        assert bool(selection.chosen) == bool(advised_cells)
        replay = sample_points(table.lattice, 100, seed=13)
        for point in replay:
            explanation = explain(server, point)
            cuboid_of(server, point)
            recorded = server.events.named("serve.request")[-1]
            attrs = recorded.spans[0].attrs
            assert attrs["tier"] == explanation.tier, (
                f"explain predicted {explanation.tier} but execution "
                f"recorded {attrs['tier']} for "
                f"{table.lattice.describe(point)}"
            )
            # The recorded decision trail is the explanation's, reasons
            # and rejected rungs included, not just the final verdict.
            assert tuple(attrs["rungs"]) == TIERS
            assert attrs["rungs"] == rung_reasons(explanation.rungs)

    def test_every_tier_appears_somewhere(self):
        table, oracle = fresh(n_facts=120, seed=21)
        server = CubeServer(table, oracle, cache_cells=256)
        for point in sample_points(table.lattice, 100, seed=13):
            cuboid_of(server, point)
        tiers_seen = {
            record.spans[0].attrs["tier"]
            for record in server.events.named("serve.request")
        }
        assert {"cache", "recompute"} <= tiers_seen

    def test_explanation_goes_stale_across_writes(self):
        table, oracle = fresh(n_facts=60, seed=5)
        server = CubeServer(table, oracle, cache_cells=4096)
        point = table.lattice.topo_finer_first()[0]
        cuboid_of(server, point)
        before = explain(server, point)
        assert before.tier == "cache"
        version = server.delete([table.rows[0]])
        after = explain(server, point)
        assert after.version == (version,)
        assert before.version != after.version
