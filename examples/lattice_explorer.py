#!/usr/bin/env python3
"""Explore a query's relaxed-cube lattice (the paper's Fig. 3, live).

Prints the level census of Query 1's 30-point lattice and the one-step
relaxations out of the rigid pattern, read off ``CubeLattice`` itself.

Run:  python examples/lattice_explorer.py
"""

from collections import Counter

from repro.datagen.publications import query1


def main() -> None:
    query = query1()
    lattice = query.lattice()
    print(f"Query 1 lattice: {lattice.size()} cuboids over "
          f"{lattice.axis_count} axes")
    print(f"  top    = {lattice.describe(lattice.top)}")
    print(f"  bottom = {lattice.describe(lattice.bottom)}")

    print("\nlevel census (relaxation steps -> cuboids):")
    census = Counter(lattice.rank(point) for point in lattice.points())
    for steps, count in sorted(census.items()):
        print(f"  {steps:>2}: {'#' * count}  ({count})")

    print("\none-step relaxations of the rigid pattern (Fig. 3 (b)-(g)):")
    for successor in lattice.successors(lattice.top):
        print(f"  -> {lattice.describe(successor)}")


if __name__ == "__main__":
    main()
