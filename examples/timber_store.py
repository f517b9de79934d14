#!/usr/bin/env python3
"""Driving the TIMBER-style native XML store directly.

Loads raw XML text into :class:`repro.timber.TimberDB`, runs a
structural join over the tag index, matches a relaxed tree pattern
against the store, and extracts a fact table through the database
backend — all with page-level I/O accounting, the substrate the paper's
measurements ran on.

Run:  python examples/timber_store.py
"""

from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.extract import extract_from_db
from repro.datagen.publications import figure1_document, query1
from repro.patterns.match import match_db
from repro.patterns.parse import parse_pattern
from repro.timber.database import TimberDB
from repro.timber.structural_join import stack_tree_join
from repro.xmlmodel.serializer import serialize

BOOKSTORE_XML = """
<bookstore>
  <book genre="db"><title>XML Warehousing</title>
    <author><name>Ada</name></author>
    <author><name>Alan</name></author>
  </book>
  <book genre="ir"><title>Tree Patterns</title>
    <editors><author><name>Grace</name></author></editors>
  </book>
</bookstore>
"""


def main() -> None:
    db = TimberDB(buffer_pages=64, memory_entries=10_000)

    # Load raw XML text (parsed by the hand-written parser) and the
    # Figure 1 document (serialize -> reparse round-trip for fun).
    db.load(BOOKSTORE_XML, name="bookstore")
    db.load(serialize(figure1_document()), name="figure1")
    db.build_index()
    print(f"store: {db!r}")
    print(f"tags: {db.tags()}")

    # A raw structural join: book ancestors of name descendants.
    pairs = list(
        stack_tree_join(db.postings("book"), db.postings("name"), db.cost)
    )
    print(f"\nstructural join book//name: {len(pairs)} pairs")
    for anc, desc in pairs:
        print(f"  book@{anc.start} contains name@{desc.start} "
              f"({db.record_of(desc).text})")

    # Tree-pattern matching with an optional (outer-join) branch.
    pattern = parse_pattern("//book[//name=$n][/title=$t]")
    witnesses = match_db(db, pattern)
    print(f"\npattern {pattern.signature()}: {len(witnesses)} witnesses")
    for witness in witnesses:
        print(f"  title={witness.value_of('$t')!r} name={witness.value_of('$n')!r}")

    # Cube over the DB backend, with I/O accounted.
    db.reset_cost()
    table = extract_from_db(db, query1())
    print(f"\nextraction touched {db.cost.io.page_reads} page reads, "
          f"{db.cost.io.buffer_hits} buffer hits")
    cube = compute_cube(table, ExecutionOptions(algorithm="COUNTER"))
    print(cube.summary())


if __name__ == "__main__":
    main()
