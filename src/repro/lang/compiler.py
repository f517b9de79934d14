"""The X^3QL compiler: AST to the unified serving API.

Navigation statements compile against a :class:`CubeCatalog` into the
frozen :class:`repro.core.query.Query` both backends already speak, so
every language query inherits the provenance envelope, version fences
and the soundness ladder for free.  The FLWOR ``X^3`` form compiles to
an :class:`repro.core.query.X3Query` cube *definition* (it names no
catalog cube — it describes one).

Name resolution errors (:class:`~repro.errors.QueryCompileError`, a
subclass of :class:`~repro.errors.InvalidQuery`) carry the source
position of the offending clause and keep the HTTP 400 mapping;
:class:`~repro.errors.UnknownCube` passes through untouched (404).

The compile cost is folded into the serving model's simulated clock as
a deterministic token-count model (:func:`modeled_lang_seconds`): real
wall time would make the smoke record's ``api_x3ql`` replay (``x3 bench
--smoke``, held to 1.10x the JSON endpoint's modeled p95 and compared
exactly with the committed ``BENCH_smoke.json``) machine-dependent, while
a per-token charge is reproducible bit-for-bit and still scales with
statement complexity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.aggregates import AggregateSpec
from repro.core.axes import AxisSpec
from repro.core.query import Query, X3Query
from repro.errors import (
    InvalidQuery,
    PatternError,
    QueryCompileError,
    QueryError,
    QueryParseError,
)
from repro.lang.ast import (
    NavStatement,
    Pos,
    Statement,
    X3Statement,
)
from repro.lang.parser import Parser, parse_statement
from repro.lang.tokens import TokenKind, tokenize
from repro.patterns.relaxation import Relaxation
from repro.server.model import BoundCube, CubeCatalog

#: Verb to :data:`repro.core.query.QUERY_KINDS` entry.
VERB_KINDS: Dict[str, str] = {
    "ROLLUP": "aggregate",
    "DRILLDOWN": "drilldown",
    "SLICE": "slice",
    "DICE": "dice",
    "CELL": "cell",
}

#: Deterministic modeled cost of compiling one statement (simulated
#: seconds), charged on the serving clock by the text endpoints.
LANG_SECONDS_PER_STATEMENT = 5e-7
#: Deterministic modeled cost per token of the statement.
LANG_SECONDS_PER_TOKEN = 5e-8


def modeled_lang_seconds(token_count: int) -> float:
    """The simulated parse+compile cost of a ``token_count`` statement."""
    return (
        LANG_SECONDS_PER_STATEMENT + LANG_SECONDS_PER_TOKEN * token_count
    )


@dataclass(frozen=True)
class CompiledQuery:
    """One navigation statement resolved against the catalog."""

    cube: str  #: catalog name the query addresses
    query: Query  #: the frozen serving request
    explain: bool  #: ``EXPLAIN`` prefix: plan, do not execute
    statement: NavStatement
    modeled_seconds: float  #: simulated parse+compile cost


@dataclass(frozen=True)
class CompiledDefinition:
    """One FLWOR ``X^3`` statement: a cube definition, not a request."""

    spec: X3Query
    statement: X3Statement
    modeled_seconds: float


Compiled = Union[CompiledQuery, CompiledDefinition]


def _fail(message: str, pos: Pos) -> QueryCompileError:
    return QueryCompileError(message, line=pos.line, column=pos.column)


# ======================================================================
# navigation statements -> Query
# ======================================================================
def compile_nav(
    statement: NavStatement, catalog: CubeCatalog
) -> CompiledQuery:
    """Resolve one navigation statement to a frozen :class:`Query`.

    Raises :class:`QueryCompileError` on name/shape errors and lets
    :class:`UnknownCube` propagate for the 404 mapping.
    """
    bound = catalog.get(statement.cube)
    point = _point(statement, bound)
    axis = _axis(statement, bound)
    filters = _filters(statement, bound)
    try:
        query = Query(
            point=point,
            kind=VERB_KINDS[statement.verb],
            axis=axis,
            value=statement.value,
            key=statement.key,
            filters=filters,
            measure=statement.measure,
            read_version=statement.at_version,
            deadline_seconds=statement.within_seconds,
        )
    except InvalidQuery as error:
        raise _fail(str(error), statement.pos) from None
    return CompiledQuery(
        cube=statement.cube,
        query=query,
        explain=statement.explain,
        statement=statement,
        modeled_seconds=0.0,
    )


def _point(statement: NavStatement, bound: BoundCube) -> str:
    group_by: Dict[str, str] = {}
    for assignment in statement.group_by:
        if assignment.name in group_by:
            raise _fail(
                f"dimension {assignment.name!r} assigned twice in BY",
                assignment.pos,
            )
        group_by[assignment.name] = assignment.level
    try:
        return bound.point_for(group_by)
    except InvalidQuery as error:
        pos = (
            statement.group_by[0].pos
            if statement.group_by
            else statement.pos
        )
        raise _fail(str(error), pos) from None


def _axis(statement: NavStatement, bound: BoundCube) -> Optional[str]:
    if statement.axis is None:
        return None
    try:
        return bound.axis_for(statement.axis)
    except InvalidQuery as error:
        raise _fail(str(error), statement.pos) from None


def _filters(
    statement: NavStatement, bound: BoundCube
) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    if not statement.where:
        return ()
    if statement.verb != "DICE":
        # Query only applies filters to dice; silently ignoring a WHERE
        # on the other verbs would lie about the answer.
        raise _fail(
            f"WHERE filters apply to DICE only, not {statement.verb} "
            f"(slice with ON axis = 'value', or use DICE)",
            statement.where[0].pos,
        )
    out: List[Tuple[str, Tuple[str, ...]]] = []
    seen: Dict[str, Pos] = {}
    for predicate in statement.where:
        if predicate.name in seen:
            raise _fail(
                f"dimension {predicate.name!r} filtered twice in WHERE "
                f"(use one IN (...) list)",
                predicate.pos,
            )
        seen[predicate.name] = predicate.pos
        try:
            axis = bound.axis_for(predicate.name)
        except InvalidQuery as error:
            raise _fail(str(error), predicate.pos) from None
        out.append((axis, predicate.values))
    return tuple(out)


# ======================================================================
# the FLWOR X^3 statement -> X3Query
# ======================================================================
def compile_x3(statement: X3Statement) -> X3Query:
    """Compile the FLWOR form to an :class:`X3Query` cube definition.

    Semantic errors (unbound variables, paths not relative to the fact
    variable, unknown relaxations, bad aggregates) raise
    :class:`QueryParseError`, like the syntax errors before them.
    """
    fact_var = statement.fact_var
    paths: Dict[str, str] = {}
    for binding in statement.bindings:
        if binding.source_var != fact_var:
            raise QueryParseError(
                f"axis {binding.var} must be relative to the fact "
                f"variable {fact_var}",
                line=binding.pos.line,
                column=binding.pos.column,
            )
        paths[binding.var] = binding.path

    # Fact identity: "$b/@id" names the id path, bare "$b" means node
    # identity.
    measure = statement.measure
    if measure.var == fact_var:
        fact_id_path = measure.path
    else:
        fact_id_path = "@id"

    axes: List[AxisSpec] = []
    seen = set()
    for entry in statement.by:
        if entry.var not in paths:
            raise QueryParseError(
                f"X^3 clause names unbound variable {entry.var}",
                line=entry.pos.line,
                column=entry.pos.column,
            )
        try:
            relaxations = frozenset(
                Relaxation.from_text(name)
                for name in entry.relaxations
            )
            axes.append(
                AxisSpec.from_path(
                    entry.var, paths[entry.var], relaxations
                )
            )
        except QueryParseError:
            raise
        except (QueryError, PatternError) as error:
            raise QueryParseError(
                str(error),
                line=entry.pos.line,
                column=entry.pos.column,
            ) from None
        seen.add(entry.var)
    missing = [
        binding.var
        for binding in statement.bindings
        if binding.var not in seen
    ]
    if missing:
        raise QueryParseError(
            f"bound variables missing from the X^3 clause: {missing}",
            line=statement.pos.line,
            column=statement.pos.column,
        )

    arg = statement.aggregate_arg
    measure_path = ""
    if arg is not None and arg.var == fact_var:
        measure_path = arg.path
    try:
        return X3Query(
            fact_tag=statement.fact_tag,
            axes=tuple(axes),
            aggregate=AggregateSpec(statement.aggregate, measure_path),
            fact_id_path=fact_id_path,
            document=statement.document,
        )
    except QueryError as error:
        raise QueryParseError(
            str(error),
            line=statement.pos.line,
            column=statement.pos.column,
        ) from None


def parse_x3_query(text: str) -> X3Query:
    """Parse the paper's augmented FLWOR text (Query 1) into an
    :class:`X3Query`::

        for $b in doc("book.xml")//publication,
            $n in $b/author/name,
            $y in $b/year
        X^3 $b/@id by $n (LND, SP, PC-AD),
            $y (LND)
        return COUNT($b).

    ``X^3`` may also be written ``X3``, ``X~3`` or ``X"3`` (OCR
    variants of the operator glyph).  The fact variable is whichever
    variable the ``doc()`` binding introduces; every axis path must be
    relative to it.  Raises :class:`QueryParseError` (with the source
    position where one can be pinned) on any malformed input.
    """
    statement = parse_statement(text)
    if not isinstance(statement, X3Statement):
        raise QueryParseError(
            "query must have the shape: for ... X^3 <measure> by ... "
            "return AGG(...)"
        )
    return compile_x3(statement)


# ======================================================================
# entry points
# ======================================================================
def compile_statement(
    statement: Statement, catalog: CubeCatalog
) -> Compiled:
    """Compile one parsed statement (cost model not included — use
    :func:`compile_text` for the end-to-end form)."""
    if isinstance(statement, X3Statement):
        return CompiledDefinition(
            spec=compile_x3(statement),
            statement=statement,
            modeled_seconds=0.0,
        )
    return compile_nav(statement, catalog)


def compile_text(text: str, catalog: CubeCatalog) -> Compiled:
    """Parse and compile one statement of X^3QL text.

    Raises :class:`QueryParseError` on syntax, :class:`UnknownCube` on
    an unknown cube name, :class:`QueryCompileError` on any other name
    or shape mismatch.  The returned object carries the deterministic
    modeled parse+compile cost.
    """
    tokens = tokenize(text)
    parser = Parser(tokens)
    statement = parser.statement()
    while parser.peek().kind is TokenKind.SEMI:
        parser.advance()
    if parser.peek().kind is not TokenKind.EOF:
        parser.fail(
            f"unexpected {parser.peek().describe()} after the statement "
            f"(the text endpoints take one statement at a time)"
        )
    compiled = compile_statement(statement, catalog)
    cost = modeled_lang_seconds(len(tokens) - 1)  # EOF is free
    if isinstance(compiled, CompiledQuery):
        return CompiledQuery(
            cube=compiled.cube,
            query=compiled.query,
            explain=compiled.explain,
            statement=compiled.statement,
            modeled_seconds=cost,
        )
    return CompiledDefinition(
        spec=compiled.spec,
        statement=compiled.statement,
        modeled_seconds=cost,
    )
