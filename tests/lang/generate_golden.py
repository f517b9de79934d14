"""Regenerate the ``tests/lang/golden`` fixtures.

Run after a *deliberate* grammar or compiler change::

    PYTHONPATH=src python tests/lang/generate_golden.py

and review the diff — these files pin the language's observable
behaviour, so an unexpected change here is a regression, not noise.
"""

import json
from pathlib import Path

from repro.core.extract import extract_fact_table
from repro.core.properties import PropertyOracle
from repro.datagen.publications import QUERY1_TEXT, figure1_document
from repro.lang import parse_x3_query
from repro.lang.ast import pretty
from repro.lang.compiler import CompiledDefinition, compile_statement
from repro.lang.parser import parse_statement
from repro.serve import CubeServer
from repro.server.model import CubeCatalog, LogicalCube

GOLDEN_DIR = Path(__file__).parent / "golden"

#: name -> (form, statement text) — one fixture per statement form.
CASES = {
    "rollup": ("ROLLUP", "ROLLUP pubs BY n:detail, y:detail"),
    "drilldown": ("DRILLDOWN", "DRILLDOWN pubs ON p BY n:detail"),
    "slice": (
        "SLICE",
        "SLICE pubs ON y = '2003' BY n:detail, y:detail",
    ),
    "dice": (
        "DICE",
        "DICE pubs BY n:detail, y:detail "
        "WHERE y IN ('2003', '2004') AND n = 'John'",
    ),
    "cell": (
        "CELL",
        "CELL pubs KEY ('John', '2003') BY n:detail, y:detail",
    ),
    "explain": (
        "EXPLAIN",
        "EXPLAIN ROLLUP pubs BY n:detail, y:detail "
        "AT VERSION 0 WITHIN 0.05s MEASURE COUNT",
    ),
    "x3": ("X^3", QUERY1_TEXT),
}


def main() -> None:
    table = extract_fact_table(
        [figure1_document()], parse_x3_query(QUERY1_TEXT)
    )
    server = CubeServer(table, PropertyOracle.from_data(table))
    catalog = CubeCatalog()
    catalog.register(
        LogicalCube.from_lattice("pubs", server.lattice), server
    )
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (form, text) in CASES.items():
        statement = parse_statement(text)
        compiled = compile_statement(statement, catalog)
        fixture = {
            "form": form,
            "text": text,
            "pretty": pretty(statement),
        }
        if isinstance(compiled, CompiledDefinition):
            spec = compiled.spec
            fixture["definition"] = {
                "fact_tag": spec.fact_tag,
                "document": spec.document,
                "fact_id_path": spec.fact_id_path,
                "aggregate": spec.aggregate.function.upper(),
                "axes": [axis.name for axis in spec.axes],
                "lattice_points": spec.lattice().size(),
                "flwor": spec.to_flwor(),
            }
        else:
            fixture["cube"] = compiled.cube
            fixture["explain"] = compiled.explain
            fixture["query"] = compiled.query.to_dict()
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(fixture, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
