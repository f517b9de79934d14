#!/usr/bin/env python3
"""Quickstart: the paper's running example, end to end.

Builds the Figure 1 publication database, parses Query 1 from the
paper's augmented FLWOR syntax, extracts the annotated fact table,
computes the cube with BUC, and walks through the cuboids the paper's
motivation section discusses.

Run:  python examples/quickstart.py
"""

from repro import ExecutionOptions, compute_cube, extract_fact_table, parse_x3_query
from repro.datagen.publications import QUERY1_TEXT, figure1_document


def main() -> None:
    # 1. The warehouse: Figure 1's four heterogeneous publications.
    doc = figure1_document()
    print(f"warehouse: {doc.element_count()} elements, depth {doc.max_depth()}")

    # 2. Query 1, in the paper's own syntax.
    query = parse_x3_query(QUERY1_TEXT)
    print("\nthe query round-trips back to FLWOR:")
    print(query.to_flwor())

    # 3. The relaxed-cube lattice of Fig. 3.
    lattice = query.lattice()
    print(f"\nlattice: {lattice.size()} cuboids "
          f"(top = {lattice.describe(lattice.top)})")

    # 4. One evaluation of the most relaxed pattern (Fig. 2) feeds all of
    #    them.
    table = extract_fact_table(doc, query)
    print(f"fact table: {len(table)} facts")

    # 5. Compute the cube.
    cube = compute_cube(table, ExecutionOptions(algorithm="BUC"))
    print(f"\n{cube.summary()}\n")

    # 6. The cuboids the paper's motivation walks through.
    year = cube.cuboid_by_description("$n:LND, $p:LND, $y:rigid")
    print("group-by year            :", dict(sorted(year.items())))
    pub_year = cube.cuboid_by_description("$n:LND, $p:rigid, $y:rigid")
    print("group-by publisher, year :", dict(sorted(pub_year.items())))
    print("  -> (p1, 2003) counts the two-author publication ONCE, and")
    print("     the online article (no publisher) is not covered here,")
    print("     so the publisher,year counts do NOT roll up to the year")
    print("     counts: that is the paper's summarizability violation.")

    # 7. Structural relaxation recovers heterogeneous matches.
    rigid_author = cube.cuboid_by_description("$n:rigid, $p:LND, $y:LND")
    relaxed_author = cube.cuboid_by_description("$n:PC-AD, $p:LND, $y:LND")
    print("\ngroup-by author (rigid)  :", dict(sorted(rigid_author.items())))
    print("group-by author (PC-AD)  :", dict(sorted(relaxed_author.items())))
    print("  -> PC-AD finds 'Smith', whose author sits under an <authors>")
    print("     wrapper the rigid pattern cannot see.")


if __name__ == "__main__":
    main()
