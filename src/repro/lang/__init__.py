"""X^3QL: the textual query language front door.

The pipeline is ``tokenize`` → ``parse_statement`` → ``compile_text``;
the :mod:`repro.lang.repl` module drives it interactively (``x3
sql``) and :mod:`repro.server.http` exposes it as
``POST /api/v1/query``.
"""

from repro.lang.ast import (
    Assignment,
    AxisBinding,
    AxisRelaxations,
    NAV_VERBS,
    NavStatement,
    PathExpr,
    Pos,
    Predicate,
    Statement,
    X3Statement,
    pretty,
)
from repro.lang.compiler import (
    Compiled,
    CompiledDefinition,
    CompiledQuery,
    compile_nav,
    compile_statement,
    compile_text,
    compile_x3,
    modeled_lang_seconds,
    parse_x3_query,
)
from repro.lang.parser import Parser, parse_statement, parse_statements
from repro.lang.tokens import Token, TokenKind, tokenize

__all__ = [
    "Assignment",
    "AxisBinding",
    "AxisRelaxations",
    "Compiled",
    "CompiledDefinition",
    "CompiledQuery",
    "NAV_VERBS",
    "NavStatement",
    "Parser",
    "PathExpr",
    "Pos",
    "Predicate",
    "Statement",
    "Token",
    "TokenKind",
    "X3Statement",
    "compile_nav",
    "compile_statement",
    "compile_text",
    "compile_x3",
    "modeled_lang_seconds",
    "parse_statement",
    "parse_statements",
    "parse_x3_query",
    "pretty",
    "tokenize",
]
