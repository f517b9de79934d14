"""The ``x3 sql`` interactive shell for X^3QL.

``x3`` boots the same backends as ``x3 server`` (a single
:class:`~repro.serve.CubeServer` or a sharded cluster behind the
:class:`~repro.core.query.CubeBackend` API) and registers the cube in a
:class:`~repro.server.model.CubeCatalog`; the :class:`Repl` here
evaluates X^3QL statements against it.  Interactive niceties: readline
line editing with a persistent history file, multi-line continuation
driven by the parser's ``incomplete`` flag (an unfinished FLWOR keeps prompting),
aligned table output or ``\\json`` mode, and ``\\``-prefixed meta
commands (``\\help`` lists them).
"""

from __future__ import annotations

import json
import sys
from typing import IO, List, Mapping, Optional, Sequence

from repro.errors import QueryParseError, X3Error
from repro.lang.compiler import (
    Compiled,
    CompiledDefinition,
    compile_statement,
)
from repro.lang.parser import parse_statement, parse_statements
from repro.core.query import QueryResult
from repro.server.model import CubeCatalog

HISTORY_FILE = "~/.x3sql_history"

PROMPT = "x3ql> "
CONTINUE_PROMPT = "  ..> "

HELP_TEXT = """\
Statements (end-of-line runs a complete statement; unfinished ones
keep prompting; ';' separates several on one line):
  ROLLUP <cube> [BY dim:level, ...]
  DRILLDOWN <cube> ON <dim> [BY ...]
  SLICE <cube> ON <dim> = '<value>' [BY ...]
  DICE <cube> [BY ...] WHERE dim = 'v' [AND dim IN ('a', 'b')]
  CELL <cube> KEY ('v', NULL, ...) [BY ...]
  EXPLAIN <any of the above>
  for $b in doc("...")//tag, ... X^3 $b/@id by $v (LND, ...) return AGG(...).
Clauses: AT VERSION <n, ...>   WITHIN <n>[s|ms]   MEASURE <AGG>
Meta commands:
  \\help          this text
  \\cubes         list the served cubes
  \\explain STMT  show the backend's plan for STMT (no execution)
  \\ast STMT      show the parsed AST of STMT
  \\json [on|off] toggle JSON output
  \\q             quit
"""


class Repl:
    """One X^3QL session over a catalog (transport-free, testable)."""

    def __init__(
        self,
        catalog: CubeCatalog,
        *,
        json_output: bool = False,
        out: Optional[IO[str]] = None,
    ) -> None:
        self.catalog = catalog
        self.json_output = json_output
        self.out = out if out is not None else sys.stdout

    # ------------------------------------------------------------------
    def echo(self, text: str) -> None:
        print(text, file=self.out)

    def execute(self, text: str) -> bool:
        """Run every statement (or one meta command) in ``text``;
        returns False when anything failed."""
        stripped = text.strip()
        if not stripped:
            return True
        if stripped.startswith("\\"):
            return self.meta(stripped)
        try:
            statements = parse_statements(text)
            ok = True
            for statement in statements:
                compiled = compile_statement(statement, self.catalog)
                self.show(self.run(compiled))
            return ok
        except X3Error as error:
            self.echo(f"error: {error}")
            return False

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, compiled: Compiled) -> object:
        if isinstance(compiled, CompiledDefinition):
            return compiled.to_dict()
        bound = self.catalog.get(compiled.cube)
        if compiled.explain:
            return bound.backend.explain_query(compiled.query).to_dict()
        return bound.backend.query(compiled.query)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def show(self, outcome: object) -> None:
        if isinstance(outcome, QueryResult):
            if self.json_output:
                self.echo(json.dumps(outcome.to_dict(), indent=1))
            else:
                self.show_result(outcome)
            return
        # definitions / explanations are already JSON-shaped
        if isinstance(outcome, dict) and not self.json_output:
            flwor = outcome.get("flwor")
            if isinstance(flwor, str):
                self.echo(flwor)
                self.echo(
                    f"-- cube definition: {len(outcome['axes'])} axes, "
                    f"{outcome['lattice_points']} lattice points"
                )
                return
        self.echo(json.dumps(outcome, indent=1))

    def show_result(self, result: QueryResult) -> None:
        if isinstance(result.payload, Mapping):
            headers = self._headers(result)
            rows = [
                [*key, f"{value:g}"] for key, value in result.payload.items()
            ]
            self.echo(_table(headers, rows))
            count = f"{len(rows)} row{'s' if len(rows) != 1 else ''}"
        else:
            value = result.payload
            self.echo("NULL" if value is None else f"{value:g}")
            count = "1 cell"
        deadline = " DEADLINE EXCEEDED" if result.deadline_exceeded else ""
        self.echo(
            f"-- {count} · {result.point} · tier {result.tier} · "
            f"version {list(result.version)} · "
            f"{result.modeled_seconds * 1e3:.3f}ms modeled{deadline}"
        )

    @staticmethod
    def _headers(result: QueryResult) -> List[str]:
        """Column names from the served point description: the kept
        (non-LND) axes, when their count matches the key arity."""
        kept = [
            part.split(":", 1)[0].strip()
            for part in result.point.split(",")
            if ":" in part and not part.strip().endswith(":LND")
        ]
        rows = result.payload if isinstance(result.payload, Mapping) else {}
        arity = len(next(iter(rows), ()))
        if rows and len(kept) != arity:
            kept = [f"key{position}" for position in range(arity)]
        return kept + ["value"]

    # ------------------------------------------------------------------
    # meta commands
    # ------------------------------------------------------------------
    def meta(self, line: str) -> bool:
        command, _, rest = line.partition(" ")
        rest = rest.strip()
        if command in ("\\q", "\\quit", "\\exit"):
            raise EOFError
        if command in ("\\help", "\\?"):
            self.echo(HELP_TEXT)
            return True
        if command == "\\cubes":
            for entry in self.catalog.describe():
                dims = ", ".join(
                    f"{dim['name']}->{dim['axis']}"
                    for dim in entry["dimensions"]
                )
                self.echo(
                    f"{entry['name']}: {dims} "
                    f"({entry['lattice_points']} lattice points, "
                    f"version {entry['version']})"
                )
            return True
        if command == "\\json":
            if rest in ("on", "off"):
                self.json_output = rest == "on"
            else:
                self.json_output = not self.json_output
            self.echo(
                f"json output {'on' if self.json_output else 'off'}"
            )
            return True
        if command in ("\\explain", "\\ast"):
            if not rest:
                self.echo(f"usage: {command} STATEMENT")
                return False
            try:
                statement = parse_statement(rest)
                if command == "\\ast":
                    self.echo(repr(statement))
                    return True
                compiled = compile_statement(statement, self.catalog)
                if isinstance(compiled, CompiledDefinition):
                    self.echo(
                        json.dumps(
                            {
                                "kind": "definition",
                                "flwor": compiled.spec.to_flwor(),
                            },
                            indent=1,
                        )
                    )
                    return True
                bound = self.catalog.get(compiled.cube)
                plan = bound.backend.explain_query(compiled.query)
                self.echo(json.dumps(plan.to_dict(), indent=1))
                return True
            except X3Error as error:
                self.echo(f"error: {error}")
                return False
        self.echo(f"unknown meta command {command!r} (try \\help)")
        return False


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(header), *(len(row[i]) for row in rows), 1)
        if rows
        else max(len(header), 1)
        for i, header in enumerate(headers)
    ]
    def line(cells: Sequence[str]) -> str:
        return " | ".join(
            cell.ljust(width) for cell, width in zip(cells, widths)
        ).rstrip()
    rule = "-+-".join("-" * width for width in widths)
    return "\n".join([line(headers), rule] + [line(row) for row in rows])


# ----------------------------------------------------------------------
# the interactive loop
# ----------------------------------------------------------------------
def _setup_readline() -> None:  # pragma: no cover - interactive only
    try:
        import atexit
        import os
        import readline
    except ImportError:
        return
    path = os.path.expanduser(HISTORY_FILE)
    try:
        readline.read_history_file(path)
    except OSError:
        pass
    readline.set_history_length(1000)
    atexit.register(
        lambda: _write_history(readline, path)
    )


def _write_history(readline: object, path: str) -> None:  # pragma: no cover
    try:
        readline.write_history_file(path)  # type: ignore[attr-defined]
    except OSError:
        pass


def interact(repl: Repl) -> int:  # pragma: no cover - interactive only
    """The prompt loop: multi-line continuation via the parser's
    ``incomplete`` flag, one history entry per statement."""
    _setup_readline()
    repl.echo(
        "x3-sql: the X^3QL shell (\\help for help, \\q to quit)"
    )
    buffer: List[str] = []
    while True:
        prompt = CONTINUE_PROMPT if buffer else PROMPT
        try:
            line = input(prompt)
        except EOFError:
            repl.echo("")
            return 0
        except KeyboardInterrupt:
            repl.echo("^C")
            buffer = []
            continue
        buffer.append(line)
        text = "\n".join(buffer)
        if not text.strip():
            buffer = []
            continue
        if not text.strip().startswith("\\"):
            try:
                parse_statements(text)
            except QueryParseError as error:
                if error.incomplete:
                    continue  # keep reading the statement
        buffer = []
        try:
            repl.execute(text)
        except EOFError:
            return 0


def run(repl: Repl, statements: Optional[Sequence[str]]) -> int:
    """``-c`` statements, else piped stdin, else the interactive loop."""
    if statements:
        ok = True
        for statement in statements:
            try:
                ok = repl.execute(statement) and ok
            except EOFError:
                break
        return 0 if ok else 1
    if not sys.stdin.isatty():
        try:
            ok = repl.execute(sys.stdin.read())
        except EOFError:
            ok = True
        return 0 if ok else 1
    return interact(repl)  # pragma: no cover - interactive only
