"""Alternating parent/change pairs of ``benchmarks/e2e`` workloads.

The procedure a change that claims a wall-clock gain has to follow on a
small shared host (choosing-metrics Sec. 8; PRs 14 and 17 scripted it by
hand): run the parent commit and the change N times each, one process at
a time, in pairs whose first side alternates, and compare the medians
against the parent's own spread.  Each side is a *checkout*; its own
``benchmarks/e2e/run.py --workload W --seed S --trace 0`` is what runs,
so both sides build what they time from their own source.

    python3 benchmarks/pairs.py --parent ../parent --change . \\
        --workload cluster_scatter --seed 17 --pairs 10

judges every ``end_to_end`` metric of the parent's ``BENCHMARK.json``
(its ``name`` and which way is ``better``): for each it prints every raw
reading, the EXPERIMENTS.md table row (median, q1-q3, wins, delta of the
medians) and whether the Sec. 8 rule for claiming a gain is met.
``--workload`` may be given more than once: the workloads are paired one
after the other, each reported as above, and the rows are printed again
together at the end — the whole no-regression table of one change.
After each workload's rows come the parent and change medians of every
``per_layer`` metric of the same file that the runs' ``INFO`` lines
carry, labelled "reported, not judged": no claim is made on them.
Runs last ``run_seconds`` of the same file: a claim is made at the
length the benchmark sets.  A pair is *refused* — listed
with its reason, kept out of the statistics, exit status 1 — when a run
is ``correct: false`` or the two sides did not do the same work
(``plan_digest``, ``tier_digest``, ``tiers_first_pass`` or
``cube_algorithm`` differ).

This file only reads what ``run.py`` prints (the ``INFO`` line and the
driver's JSON line); it imports nothing from either checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: What two runs of one pair must agree on to have done the same work.
SAME_WORK = ("plan_digest", "tier_digest", "tiers_first_pass", "cube_algorithm")
#: Fewer pairs than this are reported, never claimed (Sec. 8).
CLAIM_PAIRS = 10


@dataclass(frozen=True)
class Metric:
    """One ``end_to_end`` entry of ``BENCHMARK.json``."""

    name: str
    better: str  #: "lower" or "higher"
    digits: int  #: decimals a reading is printed with

    @classmethod
    def declared(cls, entry: Dict[str, Any]) -> "Metric":
        if entry["better"] not in ("lower", "higher"):
            raise ValueError(f"{entry['name']}: better is {entry['better']!r}")
        return cls(entry["name"], entry["better"], 3 if entry["unit"] == "s" else 1)


@dataclass(frozen=True)
class Run:
    """What one ``run.py --trace 0`` printed."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    info: Dict[str, Any]

    @classmethod
    def from_stdout(cls, stdout: str) -> "Run":
        """Read the driver's JSON line (the last one) and the ``INFO``
        line above it."""
        lines = [line for line in stdout.splitlines() if line.strip()]
        if not lines:
            raise ValueError("the run printed nothing")
        try:
            contract = json.loads(lines[-1])
            metrics = {
                name: float(entry["value"])
                for name, entry in contract["metrics"].items()
            }
            correct = bool(contract["correct"])
            attempted = int(contract["attempted"])
            failed = int(contract["failed"])
        except (ValueError, KeyError, TypeError) as error:
            raise ValueError(
                f"last line is not the driver's JSON object: {lines[-1]!r}"
            ) from error
        info: Dict[str, Any] = {}
        for line in lines[:-1]:
            if line.startswith("INFO "):
                info = json.loads(line[len("INFO "):])
        return cls(correct, attempted, failed, metrics, info)


def refusal(parent: Run, change: Run) -> Optional[str]:
    """Why this pair may not be compared (None when it may)."""
    for side, run in (("parent", parent), ("change", change)):
        if not run.correct:
            return (
                f"{side} run is correct: false"
                f" ({run.failed}/{run.attempted} ops failed)"
            )
    for key in SAME_WORK:
        if parent.info.get(key) != change.info.get(key):
            return (
                f"{key} differs: parent {parent.info.get(key)!r},"
                f" change {change.info.get(key)!r}"
            )
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, the quartiles interpolated between the
    readings (a single reading is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


@dataclass(frozen=True)
class Comparison:
    """The statistics of the accepted pairs, for one metric."""

    parent: Tuple[float, ...]
    change: Tuple[float, ...]
    better: str = "lower"

    def _gain(self, parent: float, change: float) -> float:
        """How much better ``change`` reads than ``parent``."""
        return parent - change if self.better == "lower" else change - parent

    @property
    def wins(self) -> int:
        """Pairs in which the change reads better (ties count for
        neither side)."""
        return sum(self._gain(p, c) > 0 for p, c in zip(self.parent, self.change))

    @property
    def losses(self) -> int:
        return sum(self._gain(p, c) < 0 for p, c in zip(self.parent, self.change))

    @property
    def delta(self) -> float:
        """Change of the median, as a fraction of the parent's."""
        parent = quartiles(self.parent)[1]
        return (quartiles(self.change)[1] - parent) / parent

    def claimable(self) -> bool:
        """Sec. 8: at least ten pairs, the change wins at least nine
        tenths of them, and the change's median is better by more than
        the parent's inter-quartile distance."""
        q1, parent_median, q3 = quartiles(self.parent)
        return (
            len(self.parent) >= CLAIM_PAIRS
            and 10 * self.wins >= 9 * len(self.parent)
            and self._gain(parent_median, quartiles(self.change)[1]) > q3 - q1
        )


def _spread(values: Sequence[float], digits: int) -> str:
    if len(values) < 3:  # too few for quartiles: the readings themselves
        return " / ".join(f"{value:.{digits}f}" for value in values)
    q1, median, q3 = quartiles(values)
    return f"{median:.{digits}f} ({q1:.{digits}f}–{q3:.{digits}f})"


def _percent(delta: float) -> str:
    return f"{100 * delta:+.1f} %".replace("-", "−")


def table_row(label: str, metric: Metric, compared: Comparison) -> str:
    """The EXPERIMENTS.md row (columns: workload, metric, pairs, parent
    median (q1-q3), change median (q1-q3), change wins, delta median)."""
    pairs = len(compared.parent)
    cells = [
        label,
        f"`{metric.name}`",
        str(pairs),
        _spread(compared.parent, metric.digits),
        _spread(compared.change, metric.digits),
        f"{compared.wins}/{pairs}",
        _percent(compared.delta),
    ]
    return "| " + " | ".join(cells) + " |"


def reported_lines(
    accepted: Sequence[Tuple[Run, Run]], reported: Sequence[Metric]
) -> List[str]:
    """The medians of each ``reported`` metric that every accepted run
    of both sides carries in its ``INFO`` line's ``metrics``."""
    lines: List[str] = []
    for metric in reported:
        readings = [
            [run.info.get("metrics", {}).get(metric.name) for run in side]
            for side in zip(*accepted)
        ]
        if any(value is None for side in readings for value in side):
            continue
        parent, change = (quartiles([float(v) for v in side])[1] for side in readings)
        delta = f" ({_percent((change - parent) / parent)})" if parent else ""
        lines.append(
            f"reported, not judged: {metric.name} ({metric.better} is better)"
            f" median parent {parent:.4g}, change {change:.4g}{delta}"
        )
    return lines


def report(
    label: str,
    pairs: Sequence[Tuple[Run, Run]],
    metrics: Sequence[Metric],
    reported: Sequence[Metric] = (),
) -> List[str]:
    """Every line printed after the runs: refused pairs with their
    reason, each metric's raw readings in the order run, the failed
    ops, one row per metric, the medians of the ``reported`` metrics,
    then each judged metric's verdict."""
    accepted: List[Tuple[Run, Run]] = []
    lines: List[str] = []
    for number, (parent, change) in enumerate(pairs, start=1):
        reason = refusal(parent, change)
        if reason is not None:
            lines.append(f"pair {number} REFUSED: {reason}")
        else:
            accepted.append((parent, change))
    if not accepted:
        return lines + ["no pair accepted"]

    compared = {
        metric.name: Comparison(
            tuple(parent.metrics[metric.name] for parent, _ in accepted),
            tuple(change.metrics[metric.name] for _, change in accepted),
            metric.better,
        )
        for metric in metrics
    }
    for metric in metrics:
        sides = compared[metric.name]
        for side, values in (("parent", sides.parent), ("change", sides.change)):
            readings = " ".join(f"{value:.{metric.digits}f}" for value in values)
            lines.append(f"{side} {metric.name}, in the order run: {readings}")
    (failed_p, attempted_p), (failed_c, attempted_c) = [
        (sum(run.failed for run in side), sum(run.attempted for run in side))
        for side in zip(*accepted)
    ]
    lines.append(
        f"failed ops parent {failed_p}/{attempted_p},"
        f" change {failed_c}/{attempted_c}"
    )
    lines += [table_row(label, metric, compared[metric.name]) for metric in metrics]
    lines += reported_lines(accepted, reported)
    # A gain bought with a larger share of failed operations is no gain.
    fails_more = failed_c * attempted_p > failed_p * attempted_c
    for metric in metrics:
        sides = compared[metric.name]
        met = sides.claimable() and not fails_more
        q1, _, q3 = quartiles(sides.parent)
        lines.append(
            f"claim rule for {metric.name} ({metric.better} is better;"
            f" >= {CLAIM_PAIRS} pairs, wins >= 9/10 of them, medians further"
            f" apart than the parent's q3 - q1 = {q3 - q1:.{metric.digits}f},"
            f" no larger share of failed ops): {'met' if met else 'NOT met'}"
            f" ({sides.wins} wins, {sides.losses} losses,"
            f" {len(sides.parent) - sides.wins - sides.losses} ties"
            f"{', the change fails more ops' if fails_more else ''})"
        )
    return lines


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Run:
    """One untraced run of ``checkout``'s own benchmark, in a fresh
    interpreter started in that checkout."""
    completed = subprocess.run(
        [
            sys.executable,
            str(checkout / "benchmarks" / "e2e" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
        check=False,
    )
    try:
        return Run.from_stdout(completed.stdout)
    except ValueError as error:
        raise SystemExit(
            f"{checkout}: {error}\n{completed.stderr[-2000:]}"
        ) from error


Runner = Callable[[Path, str, int, float], Run]


def run_pairs(
    parent: Path,
    change: Path,
    workload: str,
    seed: int,
    count: int,
    seconds: float,
    metrics: Sequence[Metric],
    run: Runner = run_once,
) -> List[Tuple[Run, Run]]:
    """``count`` pairs of one workload, the first side alternating."""
    pairs: List[Tuple[Run, Run]] = []
    for number in range(count):
        order = ("parent", "change") if number % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            runs[side] = run(
                parent if side == "parent" else change, workload, seed, seconds
            )
            readings = " ".join(
                f"{metric.name}={runs[side].metrics[metric.name]:.{metric.digits + 1}f}"
                for metric in metrics
            )
            print(
                f"{workload} pair {number + 1}/{count} {side}: {readings}",
                flush=True,
            )
        pairs.append((runs["parent"], runs["change"]))
    return pairs


def main(
    argv: Optional[Sequence[str]] = None, run: Runner = run_once
) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/pairs.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to pair; repeat it for several, which"
                        " run one after the other, one table row each")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    declared = json.loads((parent / "BENCHMARK.json").read_text())
    seconds = float(declared["run_seconds"])
    metrics = [Metric.declared(entry) for entry in declared["end_to_end"]]
    reported = [Metric.declared(entry) for entry in declared.get("per_layer", [])]

    rows: List[str] = []
    refused = False
    for workload in args.workload:
        pairs = run_pairs(
            parent, change, workload, args.seed, args.pairs, seconds,
            metrics, run,
        )
        lines = report(
            f"`{workload}`, `--seed {args.seed}`", pairs, metrics, reported
        )
        print("\n".join(lines))
        rows += [line for line in lines if line.startswith("| ")]
        refused = refused or any(refusal(*pair) is not None for pair in pairs)
    if len(args.workload) > 1:
        print("\n".join(["", "EXPERIMENTS.md rows:"] + rows))
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
