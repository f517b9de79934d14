"""Do two sets of runs of the same code agree within the bounds?

``python -m benchmarks.e2e.agree --sets 2 --runs 5`` runs the whole
benchmark ``sets × runs`` times at ``run_seconds``, the sets interleaved
(A B A B ...) so a slow spell of the host lands on both, every run on
another seed (1, 2, 3, ...).  Per metric × workload it prints each
set's median and quartiles, the relative gap between the set medians,
and the quartile spread of all the runs pooled (``(q3 - q1) / median``,
quartiles as ``statistics.quantiles(n=4)``) — the two numbers a
``bound`` in ``BENCHMARK.json`` has to cover.  It exits 1 when a gap or
a pooled spread of a bounded metric exceeds its bound (``setup_s`` is
held to the gap only, as the driver holds it).

Metrics without a bound — the raw-wall metrics that live in the ledger
— are tabulated too: they are the evidence for why they carry none.
The output is Markdown: NOISE.md quotes it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from benchmarks.e2e.run import DEFAULT_SECONDS, run_subprocess
from benchmarks.e2e.runner import UNITS

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: ``samples[(workload, metric)][set]`` → one value per run.
Samples = Dict[Tuple[str, str], List[List[float]]]


def main() -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.agree")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    if args.sets < 2 or args.runs < 2:
        parser.error("need at least 2 sets of at least 2 runs")

    contract = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    workloads = [entry["name"] for entry in contract["workloads"]]
    bounds = {
        entry["name"]: float(entry["bound"])
        for entry in contract["end_to_end"]
    }
    samples = collect(args.sets, args.runs, workloads)
    over = report(args.sets, args.runs, workloads, bounds, samples)
    return 1 if over else 0


def collect(sets: int, runs: int, workloads: List[str]) -> Samples:
    samples: Samples = {}
    seed = 1
    for run in range(runs):
        for which in range(sets):
            for workload in workloads:
                result, _, metrics = run_subprocess(
                    workload, seed, float(DEFAULT_SECONDS)
                )
                if not result["correct"]:
                    raise SystemExit(
                        f"{workload} seed {seed}: "
                        f"{result['failed']} failed ops"
                    )
                print(
                    f"run {run + 1}/{runs} set {'ABCDEFGH'[which]} "
                    f"{workload} seed {seed}: "
                    + " ".join(
                        f"{name}={entry['value']:.5g}"
                        for name, entry in result["metrics"].items()
                    ),
                    file=sys.stderr,
                )
                for name, value in metrics.items():
                    per_set = samples.setdefault(
                        (workload, name), [[] for _ in range(sets)]
                    )
                    per_set[which].append(value)
            seed += 1
    return samples


def spread(values: List[float]) -> float:
    """``(q3 - q1) / median`` — the driver's spread."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def report(
    sets: int,
    runs: int,
    workloads: List[str],
    bounds: Dict[str, float],
    samples: Samples,
) -> List[str]:
    """Print the Markdown tables; return the (metric, workload) pairs
    over their bound."""
    over: List[str] = []
    print(
        f"`agree --sets {sets} --runs {runs}`: {sets} interleaved sets "
        f"of {runs} runs of {DEFAULT_SECONDS} s, seeds 1..{sets * runs}.  "
        f"`gap` = |median A − median B| ÷ median A; `spread` = "
        f"(q3 − q1) ÷ median over all {sets * runs} runs.\n"
    )
    for workload in workloads:
        print(f"### {workload}\n")
        print(
            "| metric | median A | q1..q3 A | median B | q1..q3 B | "
            "gap | spread | bound | |"
        )
        print("|---|---|---|---|---|---|---|---|---|")
        for name in UNITS:
            per_set = samples[workload, name]
            first, second = per_set[0], per_set[1]
            medians = [statistics.median(first), statistics.median(second)]
            gap = abs(medians[0] - medians[1]) / medians[0]
            pooled = spread([value for one in per_set for value in one])
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                wide = pooled > bound and name != "setup_s"
                verdict = "**OVER**" if gap > bound or wide else "ok"
                if verdict != "ok":
                    over.append(f"{name} on {workload}")
            print(
                f"| {name} | {medians[0]:.5g} | {_quartiles(first)} | "
                f"{medians[1]:.5g} | {_quartiles(second)} | "
                f"{gap:.1%} | {pooled:.1%} | "
                f"{'' if bound is None else bound} | {verdict} |"
            )
        print()
    if over:
        print("**Over the bound:** " + "; ".join(over))
    else:
        print(
            "Every bounded metric × workload is within its bound, gap "
            "and spread."
        )
    return over


def _quartiles(values: List[float]) -> str:
    quartiles = statistics.quantiles(values, n=4)
    return f"{quartiles[0]:.5g}..{quartiles[2]:.5g}"


if __name__ == "__main__":
    raise SystemExit(main())
