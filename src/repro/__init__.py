"""repro — a full reproduction of *X^3: A Cube Operator for XML OLAP*
(Wiwatwattana, Jagadish, Lakshmanan, Srivastava; ICDE 2007).

Quickstart::

    from repro import (
        ExecutionOptions, parse_x3_query, extract_fact_table, compute_cube,
    )
    from repro.datagen.publications import figure1_document

    doc = figure1_document()
    query = parse_x3_query('''
        for $b in doc("book.xml")//publication,
            $n in $b/author/name,
            $p in $b//publisher/@id,
            $y in $b/year
        X^3 $b/@id by $n (LND, SP, PC-AD),
                    $p (LND, PC-AD),
                    $y (LND)
        return COUNT($b).
    ''')
    table = extract_fact_table(doc, query)
    cube = compute_cube(table, ExecutionOptions(algorithm="BUC"))

    # Parallel: fan the lattice out over 4 workers and merge.
    fast = compute_cube(
        table, ExecutionOptions(algorithm="BUC", workers=4, engine="thread")
    )
    assert fast.same_contents(cube)

:class:`ExecutionOptions` is the single options object for every
execution surface (``compute_cube``, ``CubeSession.compute``, the bench
harness, the ``x3`` command line).

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
per-figure reproduction results.
"""

from repro.core import (
    AggregateSpec,
    AxisSpec,
    CostSnapshot,
    CubeLattice,
    CubeResult,
    ExecutionOptions,
    FactTable,
    X3Query,
    compute_cube,
    extract_fact_table,
)
from repro.lang import parse_x3_query
from repro.patterns import TreePattern, parse_pattern
from repro.warehouse import CubeSession, XmlWarehouse
from repro.xmlmodel import Document, Element, parse

__version__ = "1.0.0"

__all__ = [
    "AggregateSpec",
    "AxisSpec",
    "CostSnapshot",
    "CubeLattice",
    "CubeResult",
    "ExecutionOptions",
    "FactTable",
    "X3Query",
    "compute_cube",
    "extract_fact_table",
    "parse_x3_query",
    "TreePattern",
    "parse_pattern",
    "XmlWarehouse",
    "CubeSession",
    "Document",
    "Element",
    "parse",
    "__version__",
]
