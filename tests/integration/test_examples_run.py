"""Smoke tests: every shipped example runs end to end."""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    pathlib.Path(__file__).resolve().parents[2].joinpath("examples").glob("*.py")
)


def load_module(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=[path.stem for path in EXAMPLES]
)
def test_example_runs(path, capsys):
    module = load_module(path)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"{path.stem} produced no output"


def test_all_examples_present():
    names = {path.stem for path in EXAMPLES}
    assert {
        "quickstart",
        "dblp_analytics",
        "treebank_regimes",
        "insurance_claims",
    } <= names
