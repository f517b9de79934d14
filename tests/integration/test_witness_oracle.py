"""NAIVE's cube against Sec. 2.1's witness-tree grouping.

The library never enumerates witness trees: extraction evaluates
compiled paths over the region table.  ``tests/prop/reference_match.py``
states the paper's grouping independently — match a tree pattern, group
the witnesses by the axis labels, count distinct facts per group — and
this sweep checks two lattice points of NAIVE's COUNT cube against it on
every data generator:

- the rigid top point equals the grouping of the query's rigid pattern;
- the point with every permitted structural relaxation applied and no
  axis dropped equals the grouping of the most relaxed pattern (Fig. 2),
  restricted to the groups in which every axis bound a value (the
  optional nodes' ``None`` groups are the LND points' business).
"""

import pytest

from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.extract import extract_from_documents
from repro.datagen.catalog import CatalogConfig, catalog_query, generate_catalog
from repro.datagen.dblp import DblpConfig, dblp_query, generate_dblp
from repro.datagen.publications import figure1_document, query1
from repro.datagen.treebank import (
    TreebankConfig,
    generate_treebank,
    treebank_query,
)
from repro.patterns.relaxation import most_relaxed_pattern
from tests.prop.reference_match import group_count, match_document

MESSY = TreebankConfig(
    n_facts=60, n_axes=3, coverage=False, disjoint=False, seed=3
)

CASES = [
    pytest.param(lambda: (figure1_document(), query1()), id="figure1"),
    pytest.param(
        lambda: (generate_treebank(MESSY), treebank_query(MESSY)),
        id="treebank-messy",
    ),
    pytest.param(
        lambda: (generate_dblp(DblpConfig(n_articles=60)), dblp_query()),
        id="dblp",
    ),
    pytest.param(
        lambda: (
            generate_catalog(CatalogConfig(n_products=60)),
            catalog_query(),
        ),
        id="catalog",
    ),
]


def _cube(doc, query):
    table = extract_from_documents([doc], query)
    return compute_cube(table, ExecutionOptions(algorithm="NAIVE"))


def _labels(query):
    return [axis.name for axis in query.axes]


@pytest.mark.parametrize("build", CASES)
def test_rigid_top_point_is_the_rigid_patterns_grouping(build):
    doc, query = build()
    cube = _cube(doc, query)
    witnesses = match_document(doc, query.rigid_pattern())
    expected = group_count(witnesses, _labels(query))
    assert cube.cuboids[cube.lattice.top] == expected


@pytest.mark.parametrize("build", CASES)
def test_most_relaxed_point_is_the_most_relaxed_patterns_grouping(build):
    doc, query = build()
    cube = _cube(doc, query)
    relaxed = most_relaxed_pattern(
        query.rigid_pattern(), query.relaxation_specs()
    )
    witnesses = match_document(doc, relaxed)
    expected = {
        key: count
        for key, count in group_count(witnesses, _labels(query)).items()
        if None not in key
    }
    point = tuple(
        len(states.states) - 1 for states in cube.lattice.axis_states
    )
    assert cube.cuboids[point] == expected
