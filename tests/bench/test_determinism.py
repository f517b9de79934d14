"""The determinism differ: wall-clock keys ignored, everything else exact."""

import json
import os
import pathlib
import subprocess
import sys

import repro
from repro.bench.determinism import (
    diff_json,
    diff_jsonl,
    is_volatile,
    main,
    normalize,
)


class TestVolatileKeys:
    def test_wall_clock_keys_are_volatile(self):
        for key in (
            "wall_seconds",
            "total_wall_seconds",
            "buc_dict_wall_seconds",
            "td_columnar_wall_seconds",
            "wall_speedup",
            "buc_wall_speedup",
            "merge_seconds",
            "queue_wait_seconds",
            "partition_seconds",
        ):
            assert is_volatile(key), key

    def test_modeled_keys_are_not_volatile(self):
        for key in (
            "sim_seconds",
            "buc_columnar_sim_seconds",
            "modeled_seconds",
            "buc_modeled_speedup",
            "cells",
            "seq",
        ):
            assert not is_volatile(key), key

    def test_normalize_strips_recursively(self):
        doc = {
            "wall_seconds": 1.0,
            "runs": [{"sim_seconds": 2.0, "wall_seconds": 0.1}],
            "duel": {"buc_wall_speedup": 9.0, "buc_modeled_speedup": 3.0},
        }
        assert normalize(doc) == {
            "runs": [{"sim_seconds": 2.0}],
            "duel": {"buc_modeled_speedup": 3.0},
        }


class TestDiffJson:
    def _write(self, path, doc):
        path.write_text(json.dumps(doc))
        return str(path)

    def test_wall_clock_noise_is_ignored(self, tmp_path):
        a = self._write(
            tmp_path / "a.json",
            {"cells": 42, "wall_seconds": 0.5},
        )
        b = self._write(
            tmp_path / "b.json",
            {"cells": 42, "wall_seconds": 0.9},
        )
        assert diff_json(a, b) is None

    def test_modeled_difference_is_reported_with_location(self, tmp_path):
        a = self._write(
            tmp_path / "a.json", {"runs": [{"sim_seconds": 1.0}]}
        )
        b = self._write(
            tmp_path / "b.json", {"runs": [{"sim_seconds": 2.0}]}
        )
        problem = diff_json(a, b)
        assert problem is not None
        assert "runs[0].sim_seconds" in problem

    def test_extra_key_is_reported(self, tmp_path):
        a = self._write(tmp_path / "a.json", {"cells": 1})
        b = self._write(tmp_path / "b.json", {"cells": 1, "extra": 2})
        problem = diff_json(a, b)
        assert problem is not None
        assert "extra" in problem


class TestDiffJsonl:
    def _write(self, path, docs):
        path.write_text("".join(json.dumps(d) + "\n" for d in docs))
        return str(path)

    def test_identical_modulo_wall_clock(self, tmp_path):
        a = self._write(
            tmp_path / "a.jsonl",
            [{"seq": 1, "wall_seconds": 0.1}, {"seq": 2}],
        )
        b = self._write(
            tmp_path / "b.jsonl",
            [{"seq": 1, "wall_seconds": 0.7}, {"seq": 2}],
        )
        assert diff_jsonl(a, b) is None

    def test_line_count_mismatch(self, tmp_path):
        a = self._write(tmp_path / "a.jsonl", [{"seq": 1}])
        b = self._write(tmp_path / "b.jsonl", [{"seq": 1}, {"seq": 2}])
        problem = diff_jsonl(a, b)
        assert problem is not None
        assert "line counts differ" in problem

    def test_divergent_line_is_located(self, tmp_path):
        a = self._write(tmp_path / "a.jsonl", [{"seq": 1}, {"op": "read"}])
        b = self._write(tmp_path / "b.jsonl", [{"seq": 1}, {"op": "write"}])
        problem = diff_jsonl(a, b)
        assert problem is not None
        assert problem.startswith("line 2")


class TestCli:
    def test_exit_zero_on_match(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"cells": 3, "wall_seconds": 0.2}')
        b.write_text('{"cells": 3, "wall_seconds": 0.4}')
        assert main([str(a), str(b)]) == 0
        assert "deterministic" in capsys.readouterr().out

    def test_exit_one_on_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"cells": 3}')
        b.write_text('{"cells": 4}')
        assert main([str(a), str(b)]) == 1
        assert "NONDETERMINISM" in capsys.readouterr().err

    def test_jsonl_mode(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text('{"seq": 1}\n')
        b.write_text('{"seq": 1}\n')
        assert main(["--jsonl", str(a), str(b)]) == 0

    def test_real_engine_artifacts_are_deterministic(self, tmp_path):
        """End to end, across interpreters: the smoke record written by
        two processes with different hash seeds is the same record, so
        no number in it hangs on a set's or a str-keyed dict's order
        (one interpreter has one seed and could not see that)."""
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for seed in ("1", "2"):
            subprocess.run(
                [sys.executable, "-m", "repro.cli", "bench", "--smoke",
                 "--artifact-dir", str(tmp_path / seed)],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                check=True,
                capture_output=True,
            )
        assert (
            diff_json(
                str(tmp_path / "1" / "BENCH_smoke.json"),
                str(tmp_path / "2" / "BENCH_smoke.json"),
            )
            is None
        )
