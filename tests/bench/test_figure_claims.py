"""The committed record of the figure reproduction, checked without
recomputing anything: every ``FigureSpec`` claim is evaluated on the rows
of ``BENCH_figures.json`` exactly as ``x3 bench`` evaluates it on fresh
runs, and EXPERIMENTS.md and ``figures_dat/`` must say what those rows
say.  Regenerate all three with::

    x3 bench --all --validate --artifact-dir . --dat figures_dat
"""

import dataclasses
import functools
import json
import pathlib
import re

import pytest

from repro.bench.figures import FIGURES, Sweep
from repro.bench.harness import AlgorithmRun
from repro.bench.plots import figure_dat

ROOT = pathlib.Path(__file__).resolve().parents[2]
DEVIATIONS = {"fig6", "fig8", "fig9", "fig10"}


@functools.lru_cache(maxsize=None)
def committed_runs():
    """figure id -> the runs ``BENCH_figures.json`` records for it."""
    document = json.loads((ROOT / "BENCH_figures.json").read_text())
    runs = {figure_id: [] for figure_id in document["figures"]}
    for row in document["runs"]:
        runs[row["figure"]].append(AlgorithmRun.from_row(row))
    return runs


def runs_of(figure_id):
    return committed_runs()[figure_id]


def with_sim(runs, algorithm, seconds):
    """``runs`` with one algorithm's simulated seconds replaced."""
    return [
        dataclasses.replace(run, simulated_seconds=seconds)
        if run.algorithm == algorithm
        else run
        for run in runs
    ]


def squeeze(text):
    return re.sub(r"\s+", " ", text)


def markdown_block(figure_id):
    """The table and claim list EXPERIMENTS.md must carry for a figure."""
    spec, sweep = FIGURES[figure_id], Sweep(runs_of(figure_id))
    head = ["series", *map(str, sweep.axes), "correct"]
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for name, by_axes in sweep.sim.items():
        cells = [f"{by_axes[k]:.3f}" for k in sweep.axes]
        correct = "yes" if all(sweep.correct[name].values()) else "**no**"
        lines.append("| " + " | ".join([name, *cells, correct]) + " |")
    lines.append("")
    for claim, outcome in spec.check(runs_of(figure_id)):
        lines.append(f"- {'✓' if outcome else '✗'} {claim.text}")
    return "\n".join(lines)


class TestCommittedArtifact:
    def test_covers_every_figure_on_its_own_sweep(self):
        assert set(committed_runs()) == set(FIGURES)
        for figure_id, spec in FIGURES.items():
            per_config = len(spec.algorithms) * len(spec.encodings)
            assert len(runs_of(figure_id)) == len(spec.configs()) * per_config

    @pytest.mark.parametrize("figure_id", sorted(FIGURES))
    def test_every_claim_has_its_recorded_outcome(self, figure_id):
        for claim, outcome in FIGURES[figure_id].check(runs_of(figure_id)):
            assert outcome is claim.reproduced, claim.text

    def test_the_wrong_runs_are_the_ones_the_paper_expects(self):
        wrong = [
            (figure_id, run.algorithm)
            for figure_id, runs in committed_runs().items()
            for run in runs
            if not run.correct
        ]
        unsafe = ("BUCOPT", "TDOPT", "TDOPTALL")
        assert sorted(wrong) == sorted(
            [("fig9", name) for name in unsafe] * 5
            + [("fig10", name) for name in unsafe]
        )

    def test_fig8_is_smaller_and_faster_than_fig6(self):
        """Sec. 4.2: with coverage holding the lattice is one relaxation
        step smaller, so the cubes are smaller and TD is faster."""
        by_axes = {
            figure_id: {
                run.n_axes: run
                for run in runs_of(figure_id)
                if run.algorithm == "TD"
            }
            for figure_id in ("fig6", "fig8")
        }
        for n_axes, dense_covered in by_axes["fig8"].items():
            dense_uncovered = by_axes["fig6"][n_axes]
            assert dense_covered.cells < dense_uncovered.cells
            assert (
                dense_covered.simulated_seconds
                < dense_uncovered.simulated_seconds
            )


class TestKnownDeviations:
    def test_exactly_four_with_their_numbers(self):
        deviating = {
            figure_id: [c for c in spec.claims if not c.reproduced]
            for figure_id, spec in FIGURES.items()
        }
        assert {k for k, claims in deviating.items() if claims} == DEVIATIONS
        for figure_id in DEVIATIONS:
            (claim,) = deviating[figure_id]
            assert re.search(r"measured: .*\d\.\d", claim.text), claim.text
            assert "PR 8" in claim.text

    def test_a_reproduced_claim_that_stops_holding_is_caught(self):
        outcomes = FIGURES["fig7"].check(with_sim(runs_of("fig7"), "BUC", 9.9))
        assert [o for c, o in outcomes if "bottom-up is best" in c.text] == [
            False
        ]

    def test_a_deviation_that_starts_holding_is_caught(self):
        runs = with_sim(runs_of("fig10"), "COUNTER", 0.001)
        (claim, outcome), *_ = FIGURES["fig10"].check(runs)
        assert "COUNTER wins" in claim.text and not claim.reproduced
        assert outcome is True


class TestDocumentsFollowTheArtifact:
    @pytest.mark.parametrize("figure_id", sorted(FIGURES))
    def test_experiments_md_table_and_claims(self, figure_id):
        document = squeeze((ROOT / "EXPERIMENTS.md").read_text())
        block = markdown_block(figure_id)
        assert squeeze(block) in document, (
            f"EXPERIMENTS.md is stale for {figure_id}; it must contain:\n"
            f"{block}"
        )

    def test_experiments_md_ticks_nothing_else(self):
        document = (ROOT / "EXPERIMENTS.md").read_text()
        figures = document[: document.index("## Sec. 4.4 scaling")]
        claims = sum(len(spec.claims) for spec in FIGURES.values())
        assert len(re.findall(r"^- [✓✗] ", figures, flags=re.M)) == claims
        assert len(re.findall(r"[✓✗]", figures)) == claims

    @pytest.mark.parametrize("figure_id", sorted(FIGURES))
    def test_figures_dat(self, figure_id):
        committed = (ROOT / "figures_dat" / f"{figure_id}.dat").read_text()
        assert committed == figure_dat(FIGURES[figure_id], runs_of(figure_id))
