"""Unit tests for the ASCII report rendering."""

from repro.bench.figures import FIGURES
from repro.bench.harness import AlgorithmRun
from repro.bench.report import format_figure


def run(algorithm="BUC", n_axes=2, sim=0.5, correct=None, passes=1):
    return AlgorithmRun(
        workload="w",
        algorithm=algorithm,
        n_axes=n_axes,
        n_facts=100,
        simulated_seconds=sim,
        wall_seconds=0.01,
        cells=10,
        passes=passes,
        correct=correct,
    )


class TestFormatFigure:
    def test_series_table(self):
        spec = FIGURES["fig4"]
        runs = [
            run(a, axes, sim)
            for a in spec.algorithms
            for axes, sim in [(2, 0.1), (3, 0.2)]
        ]
        text = format_figure(spec, runs)
        assert "fig4" in text
        assert "BUC" in text
        assert "0.100" in text

    def test_bar_chart_for_single_axis(self):
        spec = FIGURES["fig10"]
        runs = [run(a, 4, 0.3) for a in spec.algorithms]
        text = format_figure(spec, runs)
        assert "#" in text
        assert "bar chart" in text

    def test_incorrect_flag_shown(self):
        spec = FIGURES["fig10"]
        runs = [run("BUCOPT", 4, 0.3, correct=False)]
        assert "INCORRECT" in format_figure(spec, runs)

    def test_thrash_note(self):
        spec = FIGURES["fig4"]
        runs = [run("COUNTER", 2, 0.1, passes=3), run("COUNTER", 3, 0.5, passes=5)]
        assert "5" in format_figure(spec, runs)

    def test_wrongness_note_in_series(self):
        spec = FIGURES["fig9"]
        runs = [
            run("TDOPT", 2, 0.1, correct=False),
            run("TDOPT", 3, 0.2, correct=False),
        ]
        assert "incorrect" in format_figure(spec, runs)

    def test_claims_follow_the_table(self):
        spec = FIGURES["fig10"]
        sims = dict(zip(spec.algorithms, (9, 3, 1, 2, 8, 5, 4, 7)))
        wrong = ("BUCOPT", "TDOPT", "TDOPTALL")
        runs = [
            run(a, 4, float(sims[a]), correct=a not in wrong)
            for a in spec.algorithms
        ]
        text = format_figure(spec, runs)
        claims = text[text.index("claims:"):]
        assert "✗ (known deviation) COUNTER wins" in claims
        assert "✓ BUCCUST is better than BUC" in claims
        assert "?" not in claims

    def test_unvalidated_correctness_claim_is_not_evaluable(self):
        spec = FIGURES["fig10"]
        runs = [run(a, 4, 0.3) for a in spec.algorithms]
        assert "? (not evaluable on this sweep) the correctness split" in (
            format_figure(spec, runs)
        )
