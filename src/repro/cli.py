"""The ``x3-cube`` command line tool: run an X^3 query over XML files.

Usage::

    x3-cube --query query.xq data1.xml data2.xml
    x3-cube --query query.xq data.xml --algorithm BUC --cuboid '$n:LND, $y:rigid'
    x3-cube --query query.xq data.xml --list-cuboids
    x3-cube --query query.xq data.xml --min-support 5 --top 20

The query file holds the paper's augmented FLWOR syntax (see Query 1 in
the README).  Without ``--cuboid``, the tool prints a summary plus the
finest and coarsest cuboids.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.cube import ENGINE_CHOICES, ExecutionOptions, compute_cube
from repro.core.extract import extract_fact_table
from repro.core.properties import PropertyOracle
from repro.errors import X3Error
from repro.lang.compiler import parse_x3_query
from repro.xmlmodel.parser import parse_file


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="x3-cube",
        description="Compute an X^3 cube (ICDE 2007) over XML files.",
    )
    parser.add_argument("files", nargs="+", help="XML input files")
    parser.add_argument(
        "--query", required=True, help="file holding the X^3 FLWOR text"
    )
    parser.add_argument(
        "--algorithm",
        default="BUC",
        help="cube algorithm (default BUC; see x3-bench for the line-up)",
    )
    parser.add_argument(
        "--cuboid",
        action="append",
        metavar="DESC",
        help=(
            "print a specific cuboid, e.g. '$n:LND, $p:rigid, $y:rigid'; "
            "repeatable"
        ),
    )
    parser.add_argument(
        "--list-cuboids",
        action="store_true",
        help="list every lattice point and its group count",
    )
    parser.add_argument(
        "--min-support",
        type=float,
        default=0.0,
        help="iceberg threshold (COUNT cubes only)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="rows shown per printed cuboid (default 10)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker pool size for the parallel engine (default 1:"
        " serial execution)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help="execution engine (default auto: serial for 1 worker,"
        " thread pool otherwise)",
    )
    parser.add_argument(
        "--properties",
        action="store_true",
        help="report observed summarizability per axis",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="trace the run (parse, storage, algorithm, engine spans) and"
        " print a span summary plus metric totals",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="with --profile: also write a Chrome trace_event JSON file"
        " (load it in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--export",
        metavar="PATH",
        help="also write the full cube as an XML document",
    )
    return parser


def _print_cuboid(lattice, cube, description: str, top: int) -> None:
    point = lattice.point_by_description(description)
    cuboid = cube.cuboid(point)
    print(f"-- {lattice.describe(point)} ({len(cuboid)} groups)")
    rows = sorted(cuboid.items(), key=lambda item: (-item[1], item[0]))
    for key, value in rows[:top]:
        label = ", ".join(part if part is not None else "-" for part in key)
        print(f"   ({label}): {value:g}")
    if len(rows) > top:
        print(f"   ... {len(rows) - top} more")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro import obs

    session = obs.trace() if args.profile else None
    tracer = session.__enter__() if session is not None else None
    try:
        with open(args.query, "r", encoding="utf-8") as handle:
            query = parse_x3_query(handle.read())
        docs = [parse_file(path) for path in args.files]
        table = extract_fact_table(docs, query)
    except (OSError, X3Error) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    lattice = table.lattice
    try:
        options = ExecutionOptions(
            algorithm=args.algorithm,
            min_support=args.min_support,
            workers=args.workers,
            engine=args.engine,
        )
        cube = compute_cube(table, options)
    except X3Error as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if session is not None:
            session.__exit__(None, None, None)

    print(
        f"{len(table)} facts, {lattice.size()} cuboids, "
        f"{cube.total_cells()} cells "
        f"[{cube.algorithm}, {cube.simulated_seconds:.3f} sim-s]"
    )
    if cube.metrics is not None and cube.metrics.engine != "serial":
        print(f"   {cube.metrics.summary()}")
        print(
            f"   modeled speedup {cube.cost.speedup_estimate:.2f}x "
            f"({cube.cost.simulated_seconds:.3f} sim-s total work, "
            f"{cube.cost.parallel_simulated_seconds:.3f} sim-s critical"
            f" path)"
        )

    if tracer is not None:
        report = tracer.trace()
        print("profile (top spans by wall time):")
        for line in report.summary(top=args.top).splitlines():
            print(f"   {line}")
        totals = [
            ("cpu ops", report.metrics.total("x3_cost_cpu_ops_total")),
            ("page reads", report.metrics.total("x3_cost_page_reads_total")),
            ("page writes", report.metrics.total("x3_cost_page_writes_total")),
            ("sorts", report.metrics.total("x3_sorts_total")),
        ]
        print(
            "profile totals: "
            + ", ".join(f"{label} {value:g}" for label, value in totals)
        )
        if args.trace_out:
            report.write_chrome(args.trace_out)
            print(f"wrote Chrome trace to {args.trace_out}")
    elif args.trace_out:
        print("error: --trace-out requires --profile", file=sys.stderr)
        return 1

    if args.properties:
        oracle = PropertyOracle.from_data(table)
        print("observed summarizability per axis (rigid state):")
        for position, states in enumerate(lattice.axis_states):
            print(
                f"   {states.axis.name}: "
                f"disjoint={oracle.axis_disjoint(position, states.rigid_index)} "
                f"covered={oracle.axis_covered(position, states.rigid_index)}"
            )

    if args.export:
        from repro.core.export import cube_to_xml

        with open(args.export, "w", encoding="utf-8") as handle:
            handle.write(cube_to_xml(cube, query=query))
        print(f"wrote cube to {args.export}")

    if args.list_cuboids:
        for point in lattice.topo_finer_first():
            print(
                f"   {lattice.describe(point)}: "
                f"{len(cube.cuboids[point])} groups"
            )
        return 0

    descriptions = args.cuboid or [
        lattice.describe(lattice.top),
        lattice.describe(lattice.bottom),
    ]
    for description in descriptions:
        try:
            _print_cuboid(lattice, cube, description, args.top)
        except KeyError as error:
            print(f"error: unknown cuboid {error}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
