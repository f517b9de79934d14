"""What ``x3 bench`` runs: the figure sweeps, the scaling experiment and
the CI smoke, plus the ``BENCH_<name>.json`` artifact scheme every
benchmark writer shares."""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional, Union

from repro.bench.figures import FIGURES, run_figure
from repro.bench.harness import (
    AlgorithmRun,
    run_buc_td_duel,
    run_columnar_duel,
    run_smoke,
)
from repro.bench.report import format_figure, format_runs_csv, format_smoke

#: Version tag stamped into every ``BENCH_<name>.json`` artifact.
BENCH_ARTIFACT_SCHEMA = "x3-bench/v1"


def bench_artifact_path(
    name: str, root: Union[str, pathlib.Path, None] = None
) -> pathlib.Path:
    """The canonical path of one bench artifact: ``BENCH_<name>.json``.

    ``root`` defaults to the current working directory (CI runs every
    tool from the repository root); benchmark tests pass the repo root
    explicitly.
    """
    base = pathlib.Path(root) if root is not None else pathlib.Path.cwd()
    return base / f"BENCH_{name}.json"


def write_bench_artifact(
    name: str,
    payload: Dict[str, Any],
    root: Union[str, pathlib.Path, None] = None,
) -> pathlib.Path:
    """Write one benchmark artifact under the unified naming scheme.

    Every benchmark writer in the repository — the engine smoke, the
    figure sweeps, the serve and cluster benchmark suites, the perf
    gate — routes its JSON output through here so artifacts share one
    name pattern (``BENCH_<name>.json``), one schema tag and one
    serialization (sorted keys would churn diffs: insertion order is
    kept, matching how each payload is assembled).
    """
    path = bench_artifact_path(name, root)
    document = {
        "artifact": name,
        "schema": BENCH_ARTIFACT_SCHEMA,
        **payload,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return path


def runs_payload(runs: List[AlgorithmRun]) -> Dict[str, Any]:
    """A JSON-ready payload for a list of algorithm runs."""
    return {"runs": [run.as_row() for run in runs]}


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
        runs = run_smoke(workers=max(2, args.workers))
        print(format_smoke(runs))
        duel_summary: Optional[Dict[str, Any]] = None
        buc_td_summary: Optional[Dict[str, Any]] = None
        if args.duel_facts > 0:
            duel_runs, duel_summary = run_columnar_duel(args.duel_facts)
            runs.extend(duel_runs)
            print(
                "columnar duel @ {facts} facts: modeled {modeled}x,"
                " wall {wall}x vs COUNTER (identical={identical})".format(
                    facts=duel_summary["facts"],
                    modeled=duel_summary["modeled_speedup"],
                    wall=duel_summary["wall_speedup"],
                    identical=duel_summary["identical"],
                )
            )
            buc_td_runs, buc_td_summary = run_buc_td_duel(args.duel_facts)
            runs.extend(buc_td_runs)
            for name in ("buc", "td"):
                print(
                    "{algo} duel @ {facts} facts: modeled {modeled}x,"
                    " wall {wall}x vs dict kernel"
                    " (identical={identical})".format(
                        algo=name.upper(),
                        facts=buc_td_summary["facts"],
                        modeled=buc_td_summary[f"{name}_modeled_speedup"],
                        wall=buc_td_summary[f"{name}_wall_speedup"],
                        identical=buc_td_summary[f"{name}_identical"],
                    )
                )
        if args.artifact_dir:
            payload = runs_payload(runs)
            if duel_summary is not None:
                payload["columnar_duel"] = duel_summary
            if buc_td_summary is not None:
                payload["buc_td_duel"] = buc_td_summary
            path = write_bench_artifact("engine", payload, args.artifact_dir)
            print(f"wrote {path}")
        failed = [run for run in runs if run.correct is False]
        if failed:
            names = sorted({run.algorithm for run in failed})
            print(
                f"smoke FAILED: wrong results from {', '.join(names)}",
                file=sys.stderr,
            )
            return 1
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as handle:
                handle.write(format_runs_csv(runs) + "\n")
            print(f"wrote {len(runs)} runs to {args.csv}")
        return 0
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
    all_runs: List[AlgorithmRun] = []
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
        all_runs.extend(runs)
        print(format_figure(spec, runs))
        print()
        if args.dat:
            from repro.bench.plots import write_figure_dat

            path = write_figure_dat(args.dat, spec, runs)
            print(f"wrote {path}")
    if args.artifact_dir and all_runs:
        payload = {"figures": figure_ids, **runs_payload(all_runs)}
        path = write_bench_artifact(
            "figures", payload, args.artifact_dir
        )
        print(f"wrote {path}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(format_runs_csv(all_runs) + "\n")
        print(f"wrote {len(all_runs)} runs to {args.csv}")
    return 0

