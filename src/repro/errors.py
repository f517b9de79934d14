"""Exception hierarchy for the X3 reproduction library.

Every error raised by this package derives from :class:`X3Error`, so callers
can catch one base class.  Sub-hierarchies mirror the subsystems: XML
parsing, schema handling, tree patterns, and cube computation.
"""

from __future__ import annotations


class X3Error(Exception):
    """Base class for all errors raised by this library."""


class XmlError(X3Error):
    """Base class for XML data-model errors."""


class XmlParseError(XmlError):
    """Raised when an XML document cannot be parsed.

    Attributes:
        line: 1-based line of the offending input position.
        column: 1-based column of the offending input position.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class XmlStructureError(XmlError):
    """Raised when a document tree is manipulated inconsistently."""


class SchemaError(X3Error):
    """Base class for DTD/schema errors."""


class DtdParseError(SchemaError):
    """Raised when a DTD text cannot be parsed."""


class PatternError(X3Error):
    """Base class for tree-pattern errors."""


class PatternParseError(PatternError):
    """Raised when a textual tree-pattern cannot be parsed."""


class RelaxationError(PatternError):
    """Raised when a relaxation is not applicable to a pattern node."""


class QueryError(X3Error):
    """Base class for X3 query specification errors."""


class QueryParseError(QueryError):
    """Raised when an X^3QL / FLWOR text cannot be parsed.

    Attributes:
        line: 1-based line of the offending source position (0 when the
            error has no position, e.g. pre-tokenizer shape checks).
        column: 1-based column of the offending source position.
        incomplete: the parser ran out of input mid-statement — the text
            so far is a valid prefix.  The REPL uses this to keep
            reading continuation lines instead of reporting an error.
    """

    def __init__(
        self,
        message: str,
        *,
        line: int = 0,
        column: int = 0,
        incomplete: bool = False,
    ) -> None:
        self.line = line
        self.column = column
        self.incomplete = incomplete
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class CubeError(X3Error):
    """Base class for cube-computation errors."""


class InvalidQuery(CubeError):
    """A structurally malformed query: an unknown lattice point or axis,
    a bad query kind, missing slice/dice operands, an impossible
    drilldown.  Serving entry points raise this instead of ad-hoc
    ``ValueError``/``KeyError`` so transports can map it 1:1 to a
    status code (HTTP 400)."""


class QueryCompileError(InvalidQuery):
    """A well-formed X^3QL statement that does not compile against the
    logical model: an unknown dimension or level, a filter on a verb
    that cannot carry one, a key on a non-cell query.  Subclasses
    :class:`InvalidQuery` so transports keep the HTTP 400 mapping;
    carries the source position of the offending clause.

    Attributes:
        line: 1-based source line of the offending clause (0: none).
        column: 1-based source column of the offending clause.
    """

    def __init__(
        self, message: str, *, line: int = 0, column: int = 0
    ) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnknownCube(X3Error):
    """A query named a cube the catalog does not hold (HTTP 404)."""

    def __init__(self, name: str, known: "tuple[str, ...]" = ()) -> None:
        self.name = name
        self.known = tuple(known)
        detail = f"; catalog has {sorted(self.known)}" if known else ""
        super().__init__(f"unknown cube {name!r}{detail}")


class Overloaded(X3Error):
    """Request admission refused: the bounded queue is full (HTTP 429).

    Attributes:
        retry_after_seconds: the backoff hint transports should relay
            (the HTTP layer sends it as ``Retry-After``).
    """

    def __init__(
        self, message: str, retry_after_seconds: float = 1.0
    ) -> None:
        self.retry_after_seconds = retry_after_seconds
        super().__init__(message)


class StaleVersion(CubeError):
    """The backend cannot satisfy the query's ``read_version`` floor —
    its state has not caught up to the version token the client carries
    from an earlier write (HTTP 409)."""

    def __init__(
        self,
        requested: "tuple[int, ...]",
        current: "tuple[int, ...]",
    ) -> None:
        self.requested = tuple(requested)
        self.current = tuple(current)
        super().__init__(
            f"read_version {list(self.requested)} not reached: backend "
            f"is at {list(self.current)}"
        )


class ClusterError(X3Error):
    """Base class for sharded-cluster coordination errors."""


class ShardUnavailable(ClusterError):
    """Raised when a shard replica cannot answer (crashed or unhealthy).

    The coordinator catches this to fail over to another replica; it
    only escapes to callers when every replica of a shard is down.
    """

    def __init__(self, shard: int, replica: int, reason: str = "") -> None:
        self.shard = shard
        self.replica = replica
        detail = f" ({reason})" if reason else ""
        super().__init__(
            f"shard {shard} replica {replica} unavailable{detail}"
        )
