"""A user-facing warehouse facade tying the pieces together.

:class:`XmlWarehouse` is the "just let me cube my XML" entry point a
downstream user starts with:

    warehouse = XmlWarehouse()
    warehouse.add(open("claims.xml").read())
    session = warehouse.query(QUERY_TEXT)
    cube = session.compute()                    # advisor-chosen algorithm
    session.cuboid("$r:rigid, $p:LND")

It wires together document loading, DTD inference, property oracles,
the Sec. 4.6 algorithm advisor, and cube computation; every component
remains usable on its own.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from repro.core.advisor import (  # noqa: F401  (choose_algorithm re-exported)
    Recommendation,
    choose_algorithm,
    recommend_for_table,
)
from repro.core.bindings import FactTable
from repro.core.cube import CubeResult, ExecutionOptions, compute_cube
from repro.core.extract import extract_from_documents
from repro.core.packed import PackedCuboid
from repro.core.properties import PropertyOracle
from repro.core.query import X3Query
from repro.errors import QueryError
from repro.lang.compiler import parse_x3_query
from repro.schema.dtd import Dtd
from repro.schema.inference import infer_dtd
from repro.xmlmodel.nodes import Document
from repro.xmlmodel.parser import parse


class CubeSession:
    """One query against a warehouse: extraction + computation + reads.

    ``schema`` is what the oracle is derived from when first read: a
    DTD, or the documents of the table (their DTD is then inferred).
    """

    def __init__(
        self,
        query: X3Query,
        table: FactTable,
        schema: Union[Dtd, Tuple[Document, ...]],
        memory_entries: int,
    ) -> None:
        self.query = query
        self.table = table
        self.memory_entries = memory_entries
        self._schema = schema
        self._result: Optional[CubeResult] = None

    # ------------------------------------------------------------------
    @cached_property
    def oracle(self) -> PropertyOracle:
        """Sec. 3.7 verdicts for this query's lattice, derived once."""
        schema = self._schema
        return PropertyOracle.from_schema(
            self.table.lattice,
            schema if isinstance(schema, Dtd) else infer_dtd(schema),
            self.query.fact_tag,
        )

    def recommend(self) -> Recommendation:
        """Sec. 4.6 advice for this query's data."""
        return recommend_for_table(
            self.table, self.oracle, self.memory_entries
        )

    def compute(
        self,
        algorithm: Optional[str] = None,
        options: Optional[ExecutionOptions] = None,
        **kwargs,
    ) -> CubeResult:
        """Compute (and cache) the cube; advisor picks the algorithm by
        default.

        The session fills in its own oracle and memory budget wherever the
        given :class:`ExecutionOptions` left them unset; extra keyword
        arguments (``workers=4``, ``min_support=2``, ...) are
        :class:`ExecutionOptions` fields.
        """
        if options is None:
            options = ExecutionOptions(
                algorithm=algorithm or self.recommend().algorithm,
                oracle=self.oracle,
                memory_entries=self.memory_entries,
                **kwargs,
            )
        else:
            if kwargs:
                options = options.replace(**kwargs)
            if algorithm is not None:
                options = options.replace(algorithm=algorithm)
            if options.oracle is None:
                options = options.replace(oracle=self.oracle)
            if options.memory_entries is None:
                options = options.replace(memory_entries=self.memory_entries)
        self._result = compute_cube(self.table, options)
        return self._result

    @property
    def result(self) -> CubeResult:
        if self._result is None:
            return self.compute()
        return self._result

    def cuboid(self, description: str) -> PackedCuboid:
        return self.result.cuboid_by_description(description)

    def properties_report(self) -> Dict[str, Tuple[bool, bool]]:
        """Axis name -> (disjoint, covered) at the rigid state."""
        out: Dict[str, Tuple[bool, bool]] = {}
        for position, states in enumerate(self.table.lattice.axis_states):
            out[states.axis.name] = (
                self.oracle.axis_disjoint(position, states.rigid_index),
                self.oracle.axis_covered(position, states.rigid_index),
            )
        return out


class XmlWarehouse:
    """Documents + (optional) schema + query sessions.

    Args:
        dtd: a known schema; when omitted, one is inferred from the
            loaded documents the first time a session's oracle is read
            (the customized algorithms then use inferred cardinalities).
        memory_entries: operator budget handed to every session.
    """

    def __init__(
        self, dtd: Optional[Dtd] = None, memory_entries: int = 50_000
    ) -> None:
        self.documents: List[Document] = []
        self._declared_dtd = dtd
        self._inferred_dtd: Optional[Dtd] = None
        self.memory_entries = memory_entries

    # ------------------------------------------------------------------
    def add(self, source: Union[str, Document], name: str = "") -> Document:
        doc = source if isinstance(source, Document) else parse(source, name)
        self.documents.append(doc)
        self._inferred_dtd = None  # stale
        return doc

    @property
    def dtd(self) -> Dtd:
        if self._declared_dtd is not None:
            return self._declared_dtd
        if self._inferred_dtd is None:
            if not self.documents:
                raise QueryError("the warehouse has no documents")
            self._inferred_dtd = infer_dtd(self.documents)
        return self._inferred_dtd

    def query(self, query: Union[str, X3Query]) -> CubeSession:
        """Start a cube session for a query (text or structured)."""
        if not self.documents:
            raise QueryError("the warehouse has no documents")
        structured = (
            query if isinstance(query, X3Query) else parse_x3_query(query)
        )
        table = extract_from_documents(self.documents, structured)
        # The declared DTD, or else these very documents: a later ``add``
        # must not reach the session.
        declared = self._declared_dtd
        schema = tuple(self.documents) if declared is None else declared
        return CubeSession(structured, table, schema, self.memory_entries)

    def fact_count(self, fact_tag: str) -> int:
        return sum(doc.tag_count(fact_tag) for doc in self.documents)
