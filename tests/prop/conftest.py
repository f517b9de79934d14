"""Mark every test of this directory ``prop`` (deselect with
``-m 'not prop'``): the Hypothesis property suites and the differential
suites that replay a reference implementation."""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # The hook sees the whole session's items, not just this directory's.
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.prop)
