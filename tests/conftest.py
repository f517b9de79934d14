"""Shared fixtures: the running example and small controlled workloads.

The workload builders themselves live in :mod:`repro.testing` (one
copy); this file only binds them as pytest fixtures.
"""

from __future__ import annotations

import pytest

from repro.core.extract import extract_fact_table
from repro.core.materialize import select_views
from repro.core.query import Query
from repro.datagen.publications import figure1_document, query1
from repro.serve import CubeServer
from repro.testing import messy_workload as _messy_workload
from repro.testing import small_workload
from repro.xmlmodel.nodes import Element


def cuboid_of(backend, point):
    """The cuboid at ``point`` through the backend's one read path."""
    return backend.query(Query(point=point)).as_cuboid()


def advised_server(table, oracle, space_budget, **settings):
    """A :class:`CubeServer` serving the Sec. 3.6 advisor's choice under
    ``space_budget`` cells: every chosen cuboid warmed into a cache of
    ``settings["cache_cells"]`` cells (default: the selection's own
    space).  Returns the server and the selection."""
    selection = select_views(table, oracle, space_budget=space_budget)
    settings.setdefault("cache_cells", selection.space_used)
    server = CubeServer(table, oracle, **settings)
    assert sorted(server.warm(selection.chosen)) == sorted(selection.chosen)
    return server, selection


def planned_tiers(server):
    """``{point: rung}`` the ladder would answer each lattice point at
    now (explain only: nothing is read, cached or counted)."""
    return {
        point: server.explain_query(Query(point=point)).tier
        for point in server.lattice.points()
    }


def advised_tiers(selection):
    """``{point: rung}`` a server warmed with ``selection`` plans before
    any read: a chosen point is a cache hit, a point a chosen cuboid
    soundly derives rolls up, any other recomputes."""
    return {
        point: (
            "cache" if point in selection.chosen
            else "recompute" if source is None
            else "rollup"
        )
        for point, source in selection.serving.items()
    }


@pytest.fixture()
def fig1_doc():
    return figure1_document()


@pytest.fixture()
def q1():
    return query1()


@pytest.fixture()
def fig1_table(fig1_doc, q1):
    return extract_fact_table(fig1_doc, q1)


@pytest.fixture()
def regular_workload():
    return small_workload()


@pytest.fixture()
def messy_workload():
    """Neither summarizability property holds."""
    return _messy_workload()


@pytest.fixture()
def count_elements(monkeypatch):
    """A function returning how many ``Element`` s have been constructed
    since the fixture was set up (the guard that a code path reads the
    region table and never builds the tree)."""
    built = [0]
    construct = Element.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        construct(self, *args, **kwargs)

    monkeypatch.setattr(Element, "__init__", counting)
    return lambda: built[0]
