"""DTD-style schema model, parsing, inference and property reasoning.

The paper's Section 3.7 infers summarizability properties of lattice points
from schema knowledge (which sub-elements are optional and which may
repeat).  This subpackage provides:

- :class:`~repro.schema.dtd.Dtd` — element declarations with child
  cardinalities and attribute declarations;
- :func:`~repro.schema.dtd_parser.parse_dtd` — a parser for the DTD subset;
- :func:`~repro.schema.inference.infer_dtd` — learn cardinalities from
  document instances;
- :mod:`repro.schema.properties` — path-level reasoning used by the cube
  layer to decide where disjointness / total coverage are guaranteed.
"""

from repro.schema.dtd import Cardinality, Dtd, ElementDecl
from repro.schema.dtd_parser import parse_dtd
from repro.schema.inference import infer_dtd

__all__ = ["Cardinality", "Dtd", "ElementDecl", "parse_dtd", "infer_dtd"]
