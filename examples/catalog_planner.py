#!/usr/bin/env python3
"""Electronic-catalog analytics with advisor-driven algorithm planning.

The intro's third motivating domain: heterogeneous vendor catalog feeds.
This example shows the planner path a downstream system would use:

1. let the Sec. 4.6 advisor pick an algorithm from the table's
   statistics and the data's summarizability verdicts;
2. run the whole line-up and set the pick against the actual simulated
   costs;
3. answer a business question from the cube;
4. export the cube as an XML document and read it back.

Run:  python examples/catalog_planner.py
"""

from repro.core.advisor import estimate_cells, recommend_for_table
from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.export import cube_from_xml, cube_to_xml
from repro.core.extract import extract_fact_table
from repro.core.properties import PropertyOracle
from repro.datagen.catalog import CatalogConfig, catalog_query, generate_catalog

ALGORITHMS = ["COLUMNAR", "COUNTER", "BUC", "BUCOPT", "BUCCUST", "TD"]


def main() -> None:
    doc = generate_catalog(CatalogConfig(n_products=600, seed=13))
    query = catalog_query()
    table = extract_fact_table(doc, query)
    print(f"catalog: {len(table)} products, "
          f"{table.lattice.size()} cuboids")

    # 1. The advisor's pick, from statistics alone.
    oracle = PropertyOracle.from_data(table)
    cells, _ = estimate_cells(table)
    pick = recommend_for_table(table, oracle, memory_entries=4000)
    print(f"\nestimated cube: ~{cells:.0f} cells")
    print(f"advisor picks {pick.algorithm}: {pick.rationale}")

    # 2. Run the line-up; set the pick against the actual costs.
    print("\nactual:")
    actual = {}
    for name in ALGORITHMS:
        result = compute_cube(
            table,
            ExecutionOptions(
                algorithm=name, oracle=oracle, memory_entries=4000
            ),
        )
        actual[name] = result.simulated_seconds
        print(f"   {name:<9}  {result.simulated_seconds:.4f} sim-s")
    ranked = sorted(actual, key=actual.get)
    print(f"\nadvisor's pick ranks {ranked.index(pick.algorithm) + 1} "
          f"of {len(ranked)} (actual winner: {ranked[0]})")

    # 3. The business question: product counts by (category, brand),
    # with PC-AD recovering the nested vendor shapes.
    cube = compute_cube(
        table, ExecutionOptions(algorithm=pick.algorithm, oracle=oracle)
    )
    print(f"actual cube: {cube.total_cells()} cells")
    cuboid = cube.cuboid_by_description("$c:PC-AD, $b:PC-AD")
    top = sorted(cuboid.items(), key=lambda kv: -kv[1])[:5]
    print("\nbusiest (category, brand) cells (all vendor shapes):")
    for key, count in top:
        print(f"   {key}: {int(count)}")

    # 4. Persist and reload.
    text = cube_to_xml(cube, query=query)
    again = cube_from_xml(text, table.lattice)
    assert again.same_contents(cube)
    print(f"\ncube XML round-trip verified ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main()
