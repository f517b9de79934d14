#!/usr/bin/env python3
"""DBLP analytics: schema-driven customized cubing (paper Sec. 4.5).

Generates a DBLP-shaped warehouse, derives the summarizability
properties from the DBLP DTD (Sec. 3.7), and compares the whole
algorithm line-up the way Fig. 10 does — including which optimized
variants silently produce wrong answers and how the customized
algorithms (BUCCUST / TDCUST) get speed *and* correctness.

Run:  python examples/dblp_analytics.py
"""

from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.extract import extract_fact_table
from repro.core.properties import PropertyOracle
from repro.datagen.dblp import DblpConfig, dblp_dtd, dblp_query, generate_dblp


def main() -> None:
    doc = generate_dblp(DblpConfig(n_articles=800, seed=3))
    query = dblp_query()
    print("query:")
    print(query.to_flwor())

    table = extract_fact_table(doc, query)
    lattice = table.lattice
    print(f"\n{len(table)} articles, {lattice.size()} cuboids")

    # Sec. 3.7: the DTD tells us where the properties hold.
    dtd = dblp_dtd()
    oracle = PropertyOracle.from_schema(lattice, dtd, "article")
    print("\nschema-derived per-axis properties:")
    for position, states in enumerate(lattice.axis_states):
        axis = states.axis
        print(
            f"  {axis.name} ({axis.path_text():8s}): "
            f"disjoint={oracle.axis_disjoint(position, states.rigid_index)} "
            f"covered={oracle.axis_covered(position, states.rigid_index)}"
        )
    print("  (author repeats and may be missing; month may be missing;")
    print("   year and journal are mandatory and unique - as the DTD says)")

    reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
    print(f"\n{'algorithm':<10} {'sim-s':>8}  correct")
    for name in (
        "COUNTER", "BUC", "BUCOPT", "BUCCUST",
        "TD", "TDOPT", "TDOPTALL", "TDCUST",
    ):
        result = compute_cube(
            table,
            ExecutionOptions(algorithm=name, oracle=oracle, memory_entries=30_000),
        )
        ok = result.same_contents(reference)
        print(f"{name:<10} {result.simulated_seconds:>8.3f}  {ok}")

    # A concrete analytic answer: articles per (year, journal).
    point = lattice.point_by_description(
        "$a:LND, $m:LND, $y:rigid, $j:rigid"
    )
    cuboid = reference.cuboids[point]
    top = sorted(cuboid.items(), key=lambda item: -item[1])[:5]
    print("\nbusiest (year, journal) cells:")
    for key, count in top:
        print(f"  {key}: {int(count)} articles")


if __name__ == "__main__":
    main()
