"""``repro.serve`` — the concurrent cube-serving layer.

Turns the one-shot materialization story of paper Sec. 3.6 into a
runtime: :class:`CubeServer` answers cuboid/cell/slice/dice queries
from the cheapest *sound* source (cache, guarded roll-up, engine
recompute), backed by the cost-aware :class:`CuboidCache` and
single-flight miss deduplication, and stays exact under concurrent
inserts and deletes.  The Sec. 3.6 advisor's choice of cuboids is
served by warming that cache with it.

Typical use::

    from repro.core.materialize import select_views
    from repro.core.query import Query
    from repro.serve import CubeServer

    selection = select_views(table, oracle, space_budget=512)
    server = CubeServer(table, oracle, cache_cells=4096)
    server.warm(selection.chosen)     # the advisor's cuboids, cached
    query = Query(point="$n:rigid, $p:LND, $y:rigid")
    print(server.explain_query(query).render())   # the ladder, unexecuted
    cuboid = server.query(query).as_cuboid()
    server.insert(delta_rows)         # caches patched or evicted soundly
    print(server.stats().summary())
"""

from repro.serve.cache import CacheEntryInfo, CacheStats, CuboidCache
from repro.serve.server import CubeServer, ServeStats, TIERS
from repro.serve.singleflight import SingleFlight

__all__ = [
    "CacheEntryInfo",
    "CacheStats",
    "CubeServer",
    "CuboidCache",
    "ServeStats",
    "SingleFlight",
    "TIERS",
]
