"""Everything collected under ``benchmarks/`` is ``bench`` + ``slow``:
tier-1 and the CI fast job deselect it, ``pytest benchmarks/e2e`` runs
it."""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.bench)
        item.add_marker(pytest.mark.slow)
