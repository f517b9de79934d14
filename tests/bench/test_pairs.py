"""The statistics of ``benchmarks/pairs.py`` on canned ``run.py`` output
(no benchmark is run here)."""

import json

import pytest

from benchmarks.pairs import (
    Comparison,
    Metric,
    Run,
    main,
    quartiles,
    refusal,
    report,
)

INFO = {
    "plan_digest": "a8fbb343206a5c8b",
    "tier_digest": "01cb3d5a3968d22e",
    "tiers_first_pass": {"scatter-gather": 160},
    "cube_algorithm": "AUTO->BUCOPT",
    "facts": 4000,
}

#: The ``end_to_end`` block of ``BENCHMARK.json``.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]
METRICS = [Metric.declared(entry) for entry in END_TO_END]
DECLARED = json.dumps({"run_seconds": 30, "end_to_end": END_TO_END})


def stdout(setup_s, rss=100.0, correct=True, failed=0, **info):
    """What ``run.py --workload W --trace 0`` ends with."""
    contract = {
        "correct": correct,
        "attempted": 1226,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    return "\n".join(
        [
            "== cluster_scatter  seed=17 scale=full  end to end",
            f" *setup_s    {setup_s} s",
            "  ops attempted=1226 failed=0 NAIVE checks passed",
            "INFO " + json.dumps({**INFO, **info}, sort_keys=True),
            json.dumps(contract),
            "",
        ]
    )


def runs(parent, change, **change_info):
    return [
        (
            Run.from_stdout(stdout(p, rss=118.0)),
            Run.from_stdout(stdout(c, rss=107.0, **change_info)),
        )
        for p, c in zip(parent, change)
    ]


class TestReadingARun:
    def test_contract_and_info_lines(self):
        run = Run.from_stdout(stdout(0.166, rss=107.05))
        assert run.correct and (run.attempted, run.failed) == (1226, 0)
        assert run.metrics == {"setup_s": 0.166, "peak_rss_mb": 107.05}
        assert run.info["plan_digest"] == "a8fbb343206a5c8b"

    @pytest.mark.parametrize(
        "text", ["", "Traceback (most recent call last):\nBoom", '{"a": 1}']
    )
    def test_anything_else_is_an_error(self, text):
        with pytest.raises(ValueError):
            Run.from_stdout(text)


class TestRefusal:
    def test_equal_work_is_accepted(self):
        ((parent, change),) = runs([0.2], [0.1])
        assert refusal(parent, change) is None

    @pytest.mark.parametrize(
        "key,value",
        [
            ("plan_digest", "ffff"),
            ("tier_digest", "ffff"),
            ("tiers_first_pass", {"scatter-gather": 159, "cache": 1}),
            ("cube_algorithm", "AUTO->COUNTER"),
        ],
    )
    def test_different_work_is_refused(self, key, value):
        ((parent, change),) = runs([0.2], [0.1], **{key: value})
        assert refusal(parent, change).startswith(f"{key} differs")

    def test_an_incorrect_run_is_refused_on_either_side(self):
        good = Run.from_stdout(stdout(0.2))
        bad = Run.from_stdout(stdout(0.1, correct=False, failed=3))
        assert "change run is correct: false (3/1226" in refusal(good, bad)
        assert "parent run is correct: false" in refusal(bad, good)


class TestStatistics:
    def test_quartiles_interpolate(self):
        assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
        assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
        assert quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_wins_losses_and_ties(self):
        compared = Comparison((0.20, 0.20, 0.20), (0.10, 0.30, 0.20))
        assert (compared.wins, compared.losses) == (1, 1)
        assert Comparison((0.2,), (0.15,)).delta == pytest.approx(-0.25)

    # PR 17's ten seed-17 readings (EXPERIMENTS.md).
    PARENT = (0.660, 0.666, 0.637, 0.554, 0.616, 0.598, 0.520, 0.524, 0.566, 0.631)
    CHANGE = (0.248, 0.229, 0.210, 0.216, 0.192, 0.206, 0.180, 0.190, 0.195, 0.192)

    def test_a_clear_gain_is_claimable(self):
        compared = Comparison(self.PARENT, self.CHANGE)
        assert compared.wins == 10 and compared.claimable()
        assert compared.delta == pytest.approx(-0.67, abs=0.005)

    def test_nine_of_ten_is_enough_and_eight_is_not(self):
        nine = self.CHANGE[:9] + (0.7,)
        assert Comparison(self.PARENT, nine).claimable()
        eight = self.CHANGE[:8] + (0.7, 0.7)
        assert not Comparison(self.PARENT, eight).claimable()

    def test_a_tie_is_not_a_win(self):
        tied = self.CHANGE[:8] + self.PARENT[8:]
        assert Comparison(self.PARENT, tied).wins == 8
        assert not Comparison(self.PARENT, tied).claimable()

    def test_medians_inside_the_parents_spread_are_not_a_gain(self):
        parent = (0.20, 0.30, 0.25, 0.35, 0.22, 0.28, 0.31, 0.24, 0.27, 0.33)
        change = tuple(value - 0.01 for value in parent)  # wins 10/10
        compared = Comparison(parent, change)
        assert compared.wins == 10 and not compared.claimable()

    def test_fewer_than_ten_pairs_are_reported_not_claimed(self):
        nine = Comparison(self.PARENT[:9], self.CHANGE[:9])
        assert nine.wins == 9 and not nine.claimable()

    def test_a_slower_change_is_not_a_gain(self):
        assert not Comparison(self.CHANGE, self.PARENT).claimable()


class TestReport:
    def test_the_row_and_every_reading(self):
        lines = report(
            "`cluster_scatter`, `--seed 17`",
            runs(TestStatistics.PARENT, TestStatistics.CHANGE),
            METRICS,
        )
        assert lines[0] == (
            "parent setup_s, in the order run: 0.660 0.666 0.637 0.554"
            " 0.616 0.598 0.520 0.524 0.566 0.631"
        )
        assert lines[1].startswith("change setup_s, in the order run: 0.248 ")
        assert lines[2] == "parent peak_rss_mb, in the order run: " + " ".join(
            ["118.0"] * 10
        )
        assert "failed ops parent 0/12260, change 0/12260" in lines
        assert lines[5:7] == [
            # (PR 17 printed 0.636 and 0.200 from the unrounded readings)
            "| `cluster_scatter`, `--seed 17` | `setup_s` | 10 |"
            " 0.607 (0.557–0.635) | 0.201 (0.192–0.214) | 10/10 | −67.0 % |",
            "| `cluster_scatter`, `--seed 17` | `peak_rss_mb` | 10 |"
            " 118.0 (118.0–118.0) | 107.0 (107.0–107.0) | 10/10 | −9.3 % |",
        ]
        assert lines[7].startswith("claim rule for setup_s (lower is better;")
        assert lines[8].startswith("claim rule for peak_rss_mb (lower is")
        assert all(": met (10 wins" in line for line in lines[7:])

    # The sizing pairs of the shard-log change on cluster_scatter, seed 17,
    # padded to ten with readings inside the same ranges.
    RSS_PARENT = (121.6, 120.1, 121.1, 120.4, 121.9, 120.8, 121.3, 120.2,
                  121.0, 121.4)
    RSS_CHANGE = (94.9, 94.6, 94.7, 95.1, 94.8, 94.5, 95.0, 94.9, 94.6, 94.8)

    def test_a_peak_rss_gain_is_judged_on_its_own(self):
        """``setup_s`` does not move, ``peak_rss_mb`` falls: the verdict
        is per metric."""
        setup = (0.060, 0.058, 0.061, 0.057, 0.059, 0.062, 0.058, 0.060,
                 0.059, 0.061)
        pairs = [
            (
                Run.from_stdout(stdout(s, rss=p)),
                Run.from_stdout(stdout(s, rss=c)),
            )
            for s, p, c in zip(setup, self.RSS_PARENT, self.RSS_CHANGE)
        ]
        lines = report("w", pairs, METRICS)
        assert (
            "| w | `peak_rss_mb` | 10 | 121.0 (120.5–121.4) |"
            " 94.8 (94.6–94.9) | 10/10 | −21.7 % |"
        ) in lines
        setup_verdict, rss_verdict = lines[-2:]
        assert setup_verdict.startswith("claim rule for setup_s")
        assert ": NOT met (0 wins, 0 losses, 10 ties)" in setup_verdict
        assert rss_verdict.startswith("claim rule for peak_rss_mb")
        assert "q3 - q1 = 0.9," in rss_verdict
        assert ": met (10 wins, 0 losses, 0 ties)" in rss_verdict

    def test_a_higher_is_better_metric_wins_upwards(self):
        metric = Metric.declared(
            {"name": "setup_s", "unit": "s", "better": "higher"}
        )
        lines = report(
            "w", runs(TestStatistics.PARENT, TestStatistics.CHANGE), [metric]
        )
        assert lines[-1].startswith("claim rule for setup_s (higher is better;")
        assert ": NOT met (0 wins, 10 losses, 0 ties)" in lines[-1]

    def test_a_gain_that_fails_more_operations_is_not_met(self):
        """``correct: true`` runs can still fail operations; the verdict
        compares the shares (ISSUE 19: "no larger share of failed ops")."""
        pairs = runs(TestStatistics.PARENT, TestStatistics.CHANGE)
        flaky = Run.from_stdout(stdout(0.248, rss=107.0, failed=2))
        lines = report("w", [(pairs[0][0], flaky)] + pairs[1:], METRICS)
        assert "failed ops parent 0/12260, change 2/12260" in lines
        for verdict in lines[-2:]:
            assert ": NOT met (10 wins, 0 losses, 0 ties, the change fails" in (
                verdict
            )
        # The same two failures on the parent's side do not count against
        # the change.
        flaky = Run.from_stdout(stdout(0.660, rss=118.0, failed=2))
        lines = report("w", [(flaky, pairs[0][1])] + pairs[1:], METRICS)
        assert "failed ops parent 2/12260, change 0/12260" in lines
        assert all(": met (10 wins" in verdict for verdict in lines[-2:])

    def test_per_layer_medians_are_reported_not_judged(self):
        """Each ``per_layer`` metric that every run of both sides carries
        gets its two medians after the rows; the verdicts stay last and
        judge the ``end_to_end`` metrics alone."""
        reported = [
            Metric.declared({"name": name, "unit": unit, "better": "lower"})
            for name, unit in (
                ("read_p50_ms", "ms"),
                ("write_p50_ms", "ms"),
                ("serve.cache.rejected", "count"),
                ("cube_s", "s"),  # on the parent's side only
            )
        ]
        pairs = [
            (
                Run.from_stdout(stdout(0.2, metrics={
                    "read_p50_ms": p, "write_p50_ms": 2.0,
                    "serve.cache.rejected": 0.0, "cube_s": 0.1,
                })),
                Run.from_stdout(stdout(0.1, metrics={
                    "read_p50_ms": c, "write_p50_ms": 2.5,
                    "serve.cache.rejected": 0.0,
                })),
            )
            for p, c in zip((1.0, 1.2, 1.1), (0.9, 0.8, 1.0))
        ]
        lines = report("w", pairs, METRICS, reported)
        rows = [at for at, line in enumerate(lines) if line.startswith("| ")]
        assert lines[rows[-1] + 1:rows[-1] + 4] == [
            "reported, not judged: read_p50_ms (lower is better)"
            " median parent 1.1, change 0.9 (−18.2 %)",
            "reported, not judged: write_p50_ms (lower is better)"
            " median parent 2, change 2.5 (+25.0 %)",
            "reported, not judged: serve.cache.rejected (lower is better)"
            " median parent 0, change 0",
        ]
        assert not any("cube_s" in line for line in lines)
        assert lines[-2].startswith("claim rule for setup_s")
        assert lines[-1].startswith("claim rule for peak_rss_mb")

    def test_main_reports_the_declared_per_layer_metrics(self, tmp_path, capsys):
        declared = json.loads(DECLARED)
        declared["per_layer"] = [
            {"name": "read_p50_ms", "unit": "ms", "better": "lower"},
        ]
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(declared))

        def fake_run(checkout, workload, seed, seconds):
            return Run.from_stdout(stdout(0.1, metrics={"read_p50_ms": 1.5}))

        args = ["--parent", str(tmp_path), "--change", str(tmp_path),
                "--workload", "api_hot", "--pairs", "1"]
        assert main(args, run=fake_run) == 0
        assert (
            "reported, not judged: read_p50_ms (lower is better)"
            " median parent 1.5, change 1.5 (+0.0 %)"
        ) in capsys.readouterr().out.splitlines()

    def test_two_pairs_list_their_readings(self):
        lines = report("w", runs([0.618, 0.579], [0.194, 0.187]), METRICS)
        assert (
            "| w | `setup_s` | 2 | 0.618 / 0.579 | 0.194 / 0.187 | 2/2 |"
            " −68.2 % |"
        ) in lines

    def test_a_refused_pair_is_named_and_left_out(self):
        pairs = runs([0.2, 0.2, 0.2], [0.1, 0.1, 0.1])
        pairs[1] = (
            pairs[1][0],
            Run.from_stdout(stdout(0.001, plan_digest="ffff")),
        )
        lines = report("w", pairs, METRICS)
        assert lines[0].startswith("pair 2 REFUSED: plan_digest differs")
        assert (
            "| w | `setup_s` | 2 | 0.200 / 0.200 | 0.100 / 0.100 | 2/2 |"
            " −50.0 % |"
        ) in lines

    def test_several_workloads_one_row_each(self, tmp_path, capsys):
        parent, change = tmp_path / "parent", tmp_path / "change"
        for checkout in (parent, change):
            checkout.mkdir()
        (parent / "BENCHMARK.json").write_text(DECLARED)
        setup = {"api_hot": (0.068, 0.057), "xml_to_cube": (0.066, 0.066)}
        calls = []

        def fake_run(checkout, workload, seed, seconds):
            calls.append((checkout.name, workload, seed, seconds))
            value = setup[workload][checkout == change]
            return Run.from_stdout(stdout(value, rss=72.2))

        status = main(
            [
                "--parent", str(parent), "--change", str(change),
                "--workload", "api_hot", "--workload", "xml_to_cube",
                "--seed", "5", "--pairs", "2",
            ],
            run=fake_run,
        )
        assert status == 0
        # Workload by workload, the first side alternating within each.
        assert calls == [
            ("parent", "api_hot", 5, 30.0), ("change", "api_hot", 5, 30.0),
            ("change", "api_hot", 5, 30.0), ("parent", "api_hot", 5, 30.0),
            ("parent", "xml_to_cube", 5, 30.0),
            ("change", "xml_to_cube", 5, 30.0),
            ("change", "xml_to_cube", 5, 30.0),
            ("parent", "xml_to_cube", 5, 30.0),
        ]
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == (
            "api_hot pair 1/2 parent: setup_s=0.0680 peak_rss_mb=72.20"
        )
        rows = [
            "| `api_hot`, `--seed 5` | `setup_s` | 2 | 0.068 / 0.068 |"
            " 0.057 / 0.057 | 2/2 | −16.2 % |",
            "| `api_hot`, `--seed 5` | `peak_rss_mb` | 2 | 72.2 / 72.2 |"
            " 72.2 / 72.2 | 0/2 | +0.0 % |",
            "| `xml_to_cube`, `--seed 5` | `setup_s` | 2 | 0.066 / 0.066 |"
            " 0.066 / 0.066 | 0/2 | +0.0 % |",
            "| `xml_to_cube`, `--seed 5` | `peak_rss_mb` | 2 | 72.2 / 72.2 |"
            " 72.2 / 72.2 | 0/2 | +0.0 % |",
        ]
        # Each workload's rows under its own report, then the table.
        assert [line for line in printed if line.startswith("| ")] == rows * 2
        assert printed[-5:] == ["EXPERIMENTS.md rows:"] + rows

    def test_a_refused_pair_in_any_workload_fails_the_run(self, tmp_path):
        (tmp_path / "BENCHMARK.json").write_text(DECLARED)

        def fake_run(checkout, workload, seed, seconds):
            return Run.from_stdout(stdout(0.1, correct=workload != "bad"))

        args = ["--parent", str(tmp_path), "--change", str(tmp_path),
                "--workload", "good", "--pairs", "1"]
        assert main(args, run=fake_run) == 0
        assert main(args + ["--workload", "bad"], run=fake_run) == 1

    def test_nothing_to_report_when_every_pair_is_refused(self):
        pairs = [
            (
                Run.from_stdout(stdout(0.2)),
                Run.from_stdout(stdout(0.1, correct=False)),
            )
        ]
        assert report("w", pairs, METRICS)[-1] == "no pair accepted"
