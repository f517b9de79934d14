"""What ``x3 bench`` runs: the figure sweeps (gated on their claims), the
scaling experiment and the smoke (engine runs + serving replays), plus
the ``BENCH_<name>.json`` artifact scheme they share."""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional, Union

from repro.bench.figures import FIGURES, run_figure
from repro.bench.harness import run_replays, run_smoke, smoke_failures
from repro.bench.report import format_figure, format_smoke

#: Version tag stamped into every ``BENCH_<name>.json`` artifact.
BENCH_ARTIFACT_SCHEMA = "x3-bench/v1"


def write_bench_artifact(
    name: str, payload: Dict[str, Any], root: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write ``root/BENCH_<name>.json``.

    The smoke and the figure sweeps route their JSON output
    through here so artifacts share one name pattern, one schema tag and
    one serialization (sorted keys would churn diffs: insertion order is
    kept, matching how each payload is assembled).
    """
    path = pathlib.Path(root) / f"BENCH_{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"artifact": name, "schema": BENCH_ARTIFACT_SCHEMA, **payload}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return path


def run(args: argparse.Namespace) -> int:
    """One ``x3 bench`` invocation; ``--trace-out`` traces all of it."""
    if args.trace_out:
        from repro import obs

        with obs.trace() as tracer:
            status = _run(args)
        report = tracer.trace()
        report.write_chrome(args.trace_out)
        print(
            f"wrote Chrome trace ({len(report.records)} spans) to"
            f" {args.trace_out}"
        )
        problem = validate_trace_file(args.trace_out)
        if problem is not None:
            print(f"trace INVALID: {problem}", file=sys.stderr)
            return 1
        return status
    return _run(args)


def validate_trace_file(path: str) -> Optional[str]:
    """Check a written Chrome trace is well-formed and non-trivial.

    Returns ``None`` when the file holds at least one complete
    (``ph == "X"``) span, otherwise a description of the problem.  This
    is the gate CI relies on: a benchmark run that silently produced an
    empty or malformed trace must fail the job, not upload garbage.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        return f"cannot read {path}: {error}"
    except json.JSONDecodeError as error:
        return f"{path} is not valid JSON: {error}"
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return f"{path} has no traceEvents array"
    spans = [
        event
        for event in events
        if isinstance(event, dict) and event.get("ph") == "X"
    ]
    if not spans:
        return f"{path} contains no complete spans"
    print(f"smoke trace OK: {len(spans)} spans")
    return None


def _run(args: argparse.Namespace) -> int:
    if args.smoke:
        # The committed BENCH_smoke.json is the flagless invocation's
        # record (2 workers, thread pool); tier-1 and CI compare only that.
        runs = run_smoke(workers=max(2, args.workers), engine=args.engine)
        replays = run_replays()
        print(format_smoke(runs, replays))
        if args.artifact_dir:
            path = write_bench_artifact(
                "smoke",
                {"runs": [run.as_row() for run in runs], "replays": replays},
                args.artifact_dir,
            )
            print(f"wrote {path}")
        failures = smoke_failures(runs, replays)
        for text in failures:
            print(f"smoke FAILED: {text}", file=sys.stderr)
        return 1 if failures else 0
    if not args.figure and not args.all and not args.scaling:
        args.print_help()
        return 2
    if args.scaling:
        from repro.bench.scaling import format_scaling, run_scaling

        print(format_scaling(run_scaling()))
        print()
        if not args.figure and not args.all:
            return 0
    figure_ids = sorted(FIGURES) if args.all else [args.figure]
    # Claims describe a spec's own sweep: an override prints them only.
    enforce = args.scale == 1.0 and args.axes is None and args.memory is None
    rows: List[Dict[str, Any]] = []
    broken: List[str] = []
    for figure_id in figure_ids:
        spec, runs = run_figure(
            figure_id,
            scale=args.scale,
            axes=args.axes,
            memory_entries=args.memory,
            validate=args.validate,
            workers=args.workers,
            engine=args.engine,
        )
        rows.extend({"figure": figure_id, **run.as_row()} for run in runs)
        print(format_figure(spec, runs))
        print()
        if enforce:
            broken.extend(
                f"{figure_id}: recorded reproduced={claim.reproduced},"
                f" measured {outcome}: {claim.text}"
                for claim, outcome in spec.check(runs)
                if outcome is not None and outcome != claim.reproduced
            )
        if args.dat:
            from repro.bench.plots import write_figure_dat

            path = write_figure_dat(args.dat, spec, runs)
            print(f"wrote {path}")
    if args.artifact_dir and rows:
        path = write_bench_artifact(
            "figures", {"figures": figure_ids, "runs": rows}, args.artifact_dir
        )
        print(f"wrote {path}")
    for text in broken:
        print(f"claim gate FAILED: {text}", file=sys.stderr)
    return 1 if broken else 0
