#!/usr/bin/env python3
"""Electronic-catalog analytics with cost-based algorithm planning.

The intro's third motivating domain: heterogeneous vendor catalog feeds.
This example shows the planner path a downstream system would use:

1. collect cheap statistics of the extracted fact table;
2. let the analytic cost estimator rank the algorithm line-up;
3. run the predicted winner, then verify the prediction against the
   actual simulated costs;
4. export the cube as an XML document and read it back.

Run:  python examples/catalog_planner.py
"""

from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.estimate import CostEstimator
from repro.core.export import cube_from_xml, cube_to_xml
from repro.core.extract import extract_fact_table
from repro.datagen.catalog import CatalogConfig, catalog_query, generate_catalog

ALGORITHMS = ["COUNTER", "BUC", "TD", "TDOPT", "TDOPTALL"]


def main() -> None:
    doc = generate_catalog(CatalogConfig(n_products=600, seed=13))
    query = catalog_query()
    table = extract_fact_table(doc, query)
    print(f"catalog: {len(table)} products, "
          f"{table.lattice.size()} cuboids")

    # 1-2. Statistics + predicted ranking.
    estimator = CostEstimator(table, memory_entries=4000)
    print("\npredicted cost ranking:")
    for name in estimator.rank(ALGORITHMS):
        print(f"   {name:<9} ~{estimator.estimate(name):.4f} sim-s")

    # 3. Run everything; compare predicted vs actual ordering.
    print("\nactual:")
    actual = {}
    for name in ALGORITHMS:
        result = compute_cube(
            table, ExecutionOptions(algorithm=name, memory_entries=4000)
        )
        actual[name] = result.simulated_seconds
        print(f"   {name:<9}  {result.simulated_seconds:.4f} sim-s")
    predicted_winner = estimator.rank(ALGORITHMS)[0]
    actual_winner = min(actual, key=actual.get)
    print(f"\npredicted winner: {predicted_winner}; "
          f"actual winner: {actual_winner}")
    print("(cost is only half the story: TDOPT/TDOPTALL also require")
    print(" summarizability to be *correct* — see the Sec. 4.6 advisor")
    print(" in repro.warehouse, which gates on the property oracle)")

    # The business question: product counts by (category, brand), with
    # PC-AD recovering the nested vendor shapes.
    cube = compute_cube(table, ExecutionOptions(algorithm=actual_winner))
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
