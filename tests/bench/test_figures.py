"""Unit tests for the per-figure experiment definitions."""

from repro.bench.figures import FIGURES, Sweep, run_figure


class TestSpecs:
    def test_all_figures_defined(self):
        assert set(FIGURES) == {
            "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "figD",
        }

    def test_settings_match_paper(self):
        assert FIGURES["fig4"].density == "sparse"
        assert not FIGURES["fig4"].coverage and FIGURES["fig4"].disjoint
        assert FIGURES["fig6"].density == "dense"
        assert FIGURES["fig7"].coverage and FIGURES["fig7"].disjoint
        assert not FIGURES["fig9"].coverage and not FIGURES["fig9"].disjoint
        assert FIGURES["fig10"].kind == "dblp"

    def test_fig5_scales_fig4(self):
        assert FIGURES["fig5"].base_facts > FIGURES["fig4"].base_facts

    def test_algorithm_lineups(self):
        assert "TDOPT" in FIGURES["fig4"].algorithms
        assert "TDOPTALL" in FIGURES["fig7"].algorithms
        assert "TDOPT" not in FIGURES["fig7"].algorithms
        assert set(FIGURES["fig10"].algorithms) >= {"BUCCUST", "TDCUST"}

    def test_configs_scale_knob(self):
        spec = FIGURES["fig4"]
        small = spec.configs(scale=0.5)
        big = spec.configs(scale=2.0)
        assert big[0].n_facts == 4 * small[0].n_facts

    def test_dblp_single_config(self):
        assert len(FIGURES["fig10"].configs()) == 1

    def test_buc_td_duel_figure(self):
        spec = FIGURES["figD"]
        assert spec.algorithms == ("BUC", "TD")
        assert spec.encodings == ("dict", "auto")
        assert spec.base_facts == 100_000
        assert spec.axes == (3,)
        assert spec.coverage and spec.disjoint

    def test_duel_series_split_by_encoding(self):
        spec, runs = run_figure("figD", scale=0.002)
        assert set(Sweep(runs).sim) == {"BUC", "BUC[dict]", "TD", "TD[dict]"}


class TestRunFigure:
    def test_axes_restriction(self):
        spec, runs = run_figure("fig4", scale=0.3, axes=[2, 3])
        assert {run.n_axes for run in runs} == {2, 3}
        assert spec.figure_id == "fig4"

    def test_series_pivot(self):
        _, runs = run_figure("fig4", scale=0.3, axes=[2, 3])
        sweep = Sweep(runs)
        assert set(sweep.sim) == set(FIGURES["fig4"].algorithms)
        for by_axes in sweep.sim.values():
            assert sorted(by_axes) == sweep.axes == [2, 3]
