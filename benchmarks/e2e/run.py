"""The benchmark's one entry point: ``python3 benchmarks/e2e/run.py``.

``--workload NAME`` runs one workload in this process and ends with the
one-line JSON object the driver reads (``--trace 0``: the end-to-end
metrics, ``--trace 1``: the per-layer ledger).  Without ``--workload``
all four run, each in a fresh subprocess with ``PYTHONHASHSEED=0``;
``--trace 1`` then does the traced run *after* the untraced one, so one
command prints both tables.

Run as a script, Python puts this directory — not the checkout's root —
on ``sys.path``; the root (for ``benchmarks.e2e``) and ``src/`` (the
program) are added here, the one place that does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

_ROOT = Path(__file__).resolve().parents[2]
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

if TYPE_CHECKING:  # the program is imported after the PYTHONHASHSEED exec
    from benchmarks.e2e.runner import RunResult

#: ``run_seconds`` of BENCHMARK.json: 20 s of timed passes plus the
#: batch repeats.
DEFAULT_SECONDS = 30
DEFAULT_SEED = 17
RUN_SCRIPT = Path(__file__)


def build_parser() -> argparse.ArgumentParser:
    from benchmarks.e2e.workloads import SCALES, WORKLOADS

    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="X3 wall-clock benchmark: four workloads, their "
        "end-to-end metrics, a per-layer ledger.",
    )
    parser.add_argument(
        "--workload",
        choices=[spec.name for spec in WORKLOADS],
        help="run one workload in this process (default: all four, "
        "each in a fresh subprocess)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="feeds WorkloadConfig.seed and the plan RNG (default 17)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(DEFAULT_SECONDS),
        help="two thirds of it are timed passes; the batch repeats are "
        "sized to fill the rest",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="1: the traced run (per-layer ledger + span file)",
    )
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default="full",
        help="'tiny' is the smoke-test size",
    )
    parser.add_argument(
        "--check",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="compare answers with serial NAIVE (default on; a run "
        "with --no-check reports correct=false and exits 1)",
    )
    return parser


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes feed set/dict iteration order inside the program;
        # pin them — before the program is imported — so two runs of
        # one seed do the same work.
        os.execve(
            sys.executable,
            sys.orig_argv,
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    args = build_parser().parse_args()
    if args.workload is None:
        return run_all(args)
    result = run_one(
        args.workload, args.seed, args.seconds, args.scale,
        bool(args.trace), args.check,
    )
    print_result(result)
    return 0 if result.correct and args.check else 1


def run_one(
    workload: str,
    seed: int,
    seconds: float,
    scale: str,
    trace: bool,
    check: bool,
) -> "RunResult":
    from benchmarks.e2e.workloads import spec_by_name

    spec = spec_by_name(workload)
    if trace:
        from benchmarks.e2e.ledger import run_traced

        result = run_traced(spec, seed, seconds, scale, check)
    else:
        from benchmarks.e2e.runner import run_workload

        result = run_workload(spec, seed, seconds, scale, check)
    if not check:
        result.failed = max(result.failed, 1)  # unchecked is not correct
    return result


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def print_result(result: "RunResult") -> None:
    """Every metric by name with its unit (``*`` = on the driver's
    line), the counts behind them, then the ``INFO`` line and — last —
    the driver's JSON object."""
    info = result.info
    kind = "per-layer ledger (traced run)" if result.trace else "end to end"
    print(
        f"== {result.workload}  seed={result.seed} scale={result.scale}"
        f"  {kind}"
    )
    for name, (value, unit) in result.metrics.items():
        mark = "*" if name in result.declared else " "
        print(f" {mark}{name:<44} {format_value(value):>14} {unit}")
    print(
        f"  ops attempted={result.attempted} failed={result.failed} "
        f"NAIVE checks {'passed' if result.correct else 'FAILED'}"
    )
    for key in (
        "facts", "cells", "lattice_points", "cube_algorithm",
        "setup_repeats", "setup_work_s", "cube_repeats", "timed_passes",
        "ops_per_pass", "timed_wall_s", "op_phase_s", "read_samples",
        "write_samples", "tiers_first_pass", "trace_file", "spans",
        "sanity",
    ):
        if key in info:
            print(f"  {key}: {info[key]}")
    everything = {name: value for name, (value, _) in result.metrics.items()}
    print(
        "INFO "
        + json.dumps(
            {**info, "metrics": everything}, sort_keys=True, default=str
        )
    )
    print(json.dumps(result.contract_line()))


def format_value(value: float) -> str:
    if value == 0 or not math.isfinite(value):
        return str(value)
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:,.1f}"
    if magnitude >= 1:
        return f"{value:.4f}"
    return f"{value:.6f}"


# ----------------------------------------------------------------------
# fresh-subprocess runs (all-workloads mode, ``agree``, the smoke test)
# ----------------------------------------------------------------------
def run_subprocess(
    workload: str,
    seed: int,
    seconds: float,
    scale: str = "full",
    trace: int = 0,
    echo: bool = False,
) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, float]]:
    """One workload in a fresh interpreter.  Returns the parsed
    contract line, the ``INFO`` line, and every printed metric by name;
    raises when the run printed no result."""
    completed = subprocess.run(
        [
            sys.executable, str(RUN_SCRIPT),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--scale", scale,
            "--trace", str(trace),
        ],
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    lines = completed.stdout.splitlines()
    if echo:
        for line in lines:
            if not line.startswith(("INFO ", "{")):
                print(line)
    try:
        contract = json.loads(lines[-1])
        info = json.loads(lines[-2][len("INFO "):])
    except (IndexError, ValueError):
        raise RuntimeError(
            f"{workload} (seed {seed}, trace {trace}) exited "
            f"{completed.returncode} without a result"
        ) from None
    return contract, info, info.pop("metrics")


def run_all(args: argparse.Namespace) -> int:
    from benchmarks.e2e.workloads import WORKLOADS

    failed: List[str] = []
    summary: Dict[str, Any] = {}
    for spec in WORKLOADS:
        for trace in range(args.trace + 1):
            contract, _, _ = run_subprocess(
                spec.name, args.seed, args.seconds, args.scale,
                trace=trace, echo=True,
            )
            summary.setdefault(spec.name, {}).update(contract["metrics"])
            if not contract["correct"]:
                failed.append(spec.name)
    print(json.dumps({"correct": not failed, "workloads": summary}))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
