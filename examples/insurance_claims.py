#!/usr/bin/env python3
"""Insurance-claims warehouse: the intro's other motivating domain.

The paper's motivation names "records of insurance claims" as a natural
XML warehouse: claims are heterogeneous trees (a claim may have several
damaged parties, an adjuster report may be missing, locations nest
differently per intake channel).  This example exercises the wider API
surface on that domain:

- a SUM measure (total payout) instead of COUNT;
- iceberg cubes (only cells with enough claims);
- summarizability-checked roll-ups (and the wrong answer you would get
  without the check);
- the advisor's cuboids under a space budget, warmed into a
  ``CubeServer``'s cache;
- the same server kept current as new claims arrive.

Run:  python examples/insurance_claims.py
"""

import random

from repro.core.aggregates import AggregateSpec
from repro.core.axes import AxisSpec
from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.extract import extract_fact_table
from repro.core.incremental import split_rows
from repro.core.materialize import select_views
from repro.core.properties import PropertyOracle
from repro.core.query import Query, X3Query
from repro.core.rollup import derivable, rollup_cuboid
from repro.errors import CubeError
from repro.patterns.relaxation import Relaxation
from repro.serve import CubeServer
from repro.xmlmodel.nodes import Document, Element

REGIONS = ["north", "south", "east", "west"]
PERILS = ["hail", "flood", "fire", "theft", "collision"]


def build_claims(n_claims: int, seed: int = 21) -> Document:
    """Claims with realistic heterogeneity: nested locations (phone
    intake wraps them in <intake>), optional adjusters, multiple
    damaged parties."""
    rng = random.Random(seed)
    root = Element("claims")
    for number in range(n_claims):
        claim = root.make_child(
            "claim",
            attrs={"id": f"c{number}", "payout": str(rng.randrange(1, 50) * 100)},
        )
        # Region: direct child, or nested under the intake channel.
        holder = claim
        if rng.random() < 0.25:
            holder = claim.make_child("intake")
        holder.make_child("region", text=rng.choice(REGIONS))
        # Peril: one or (multi-peril storms) two.
        claim.make_child("peril", text=rng.choice(PERILS))
        if rng.random() < 0.2:
            claim.make_child("peril", text=rng.choice(PERILS))
        # Adjuster: sometimes missing (not yet assigned).
        if rng.random() < 0.8:
            claim.make_child("adjuster", text=f"adj{rng.randrange(6)}")
    return Document(root, name="claims")


def claims_query(aggregate: AggregateSpec) -> X3Query:
    return X3Query(
        fact_tag="claim",
        axes=(
            AxisSpec.from_path(
                "$r", "region",
                frozenset({Relaxation.LND, Relaxation.PC_AD}),
            ),
            AxisSpec.from_path("$p", "peril"),
            AxisSpec.from_path("$a", "adjuster"),
        ),
        aggregate=aggregate,
        fact_id_path="@id",
    )


def main() -> None:
    doc = build_claims(500)
    count_query = claims_query(AggregateSpec("COUNT"))
    payout_query = claims_query(AggregateSpec("SUM", "@payout"))

    # ------------------------------------------------------------------
    print("== total payout by (region, peril) ==")
    payout_table = extract_fact_table(doc, payout_query)
    payout_cube = compute_cube(payout_table, ExecutionOptions(algorithm="BUC"))
    cuboid = payout_cube.cuboid_by_description(
        "$r:PC-AD, $p:rigid, $a:LND"
    )
    for key, value in sorted(cuboid.items(), key=lambda kv: -kv[1])[:5]:
        print(f"   {key}: ${value:,.0f}")

    # ------------------------------------------------------------------
    print("\n== iceberg: (region, peril, adjuster) cells with >= 8 claims ==")
    count_table = extract_fact_table(doc, count_query)
    iceberg = compute_cube(
        count_table, ExecutionOptions(algorithm="BUC", min_support=8)
    )
    top_point = count_table.lattice.point_by_description(
        "$r:rigid, $p:rigid, $a:rigid"
    )
    full = compute_cube(count_table, ExecutionOptions(algorithm="BUC"))
    print(f"   {len(iceberg.cuboids[top_point])} qualifying cells "
          f"(full cuboid has {len(full.cuboids[top_point])})")

    # ------------------------------------------------------------------
    print("\n== summarizability-checked roll-up ==")
    oracle = PropertyOracle.from_data(count_table)
    lattice = count_table.lattice
    source = lattice.point_by_description("$r:LND, $p:rigid, $a:rigid")
    target = lattice.point_by_description("$r:LND, $p:rigid, $a:LND")
    count_cube = compute_cube(count_table, ExecutionOptions(algorithm="COUNTER"))
    ok, reason = derivable(lattice, source, target, oracle)
    print(f"   derive peril totals from (peril, adjuster)? {ok}")
    print(f"   reason: {reason}")
    if not ok:
        wrong = rollup_cuboid(
            lattice, count_cube.cuboids[source], source, target,
            count_table.aggregate.fn,
        )
        right = count_cube.cuboids[target]
        diff = {
            key: (wrong.get(key), right.get(key))
            for key in right
            if wrong.get(key) != right.get(key)
        }
        sample = list(diff.items())[:2]
        print(f"   unchecked roll-up would be wrong in {len(diff)} cells,"
              f" e.g. {sample}")

    # ------------------------------------------------------------------
    print("\n== the advisor's cuboids under a 1500-cell budget ==")
    selection = select_views(count_table, oracle, space_budget=1500)
    advised = CubeServer(
        FactTable(lattice, count_table.rows, count_table.aggregate),
        oracle,
        cache_cells=selection.space_used,
    )
    warmed = advised.warm(selection.chosen)
    reference = compute_cube(count_table, ExecutionOptions(algorithm="NAIVE"))
    for point in lattice.points():
        answer = advised.query(Query(point=point)).as_cuboid()
        assert answer == reference.cuboids[point]
    print(f"   chose {len(selection.chosen)} cuboids "
          f"({selection.space_used} cells), {len(warmed)} warmed into "
          f"the cache; {selection.coverage_ratio():.0%} of the lattice "
          "servable without touching base")
    print(f"   every point verified: {advised.stats().summary()}")

    # ------------------------------------------------------------------
    print("\n== keeping answers current as claims arrive ==")
    initial, delta = split_rows(count_table, 0.8)
    live = CubeServer(
        FactTable(lattice, initial, aggregate=count_table.aggregate), oracle
    )
    live.warm()
    live.insert(delta)
    print(f"   appended {len(delta)} claims -> "
          f"{live.stats().patched_points} cached cuboids replaced by patched "
          "successors")
    for point in lattice.points():
        answer = live.query(Query(point=point)).as_cuboid()
        assert answer == reference.cuboids[point]
    print("   served answers == full recompute: verified")

    try:
        compute_cube(payout_table, ExecutionOptions(algorithm="BUC", min_support=3))
    except CubeError as error:
        print(f"\n(guard rails work too: {error})")


if __name__ == "__main__":
    main()
