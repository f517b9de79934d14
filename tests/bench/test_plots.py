"""Unit tests for .dat series export."""

from repro.bench.figures import FIGURES
from repro.bench.harness import AlgorithmRun
from repro.bench.plots import figure_dat, write_figure_dat


def runs_for(spec, axes=(2, 3)):
    out = []
    for algorithm in spec.algorithms:
        for axis in axes:
            out.append(
                AlgorithmRun(
                    workload="w",
                    algorithm=algorithm,
                    n_axes=axis,
                    n_facts=10,
                    simulated_seconds=0.5 * axis,
                    wall_seconds=0.01,
                    cells=3,
                    passes=1,
                )
            )
    return out


class TestFigureDat:
    def test_header_and_rows(self):
        spec = FIGURES["fig4"]
        text = figure_dat(spec, runs_for(spec))
        lines = text.strip().splitlines()
        assert lines[0].startswith("# fig4")
        assert lines[1] == "# axes " + " ".join(spec.algorithms)
        assert lines[2].startswith("2 ")
        assert len(lines) == 4

    def test_missing_points_are_nan(self):
        spec = FIGURES["fig4"]
        runs = [run for run in runs_for(spec) if run.algorithm != "TD"
                or run.n_axes != 3]
        text = figure_dat(spec, runs)
        assert "nan" in text

    def test_write_creates_file(self, tmp_path):
        spec = FIGURES["fig4"]
        path = write_figure_dat(str(tmp_path), spec, runs_for(spec))
        assert path.endswith("fig4.dat")
        content = open(path).read()
        assert content.startswith("# fig4")


class TestRunnerDatFlag:
    def test_runner_writes_dat(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "bench", "--figure", "fig4", "--scale", "0.25", "--axes", "2",
                "--dat", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "fig4.dat").exists()
