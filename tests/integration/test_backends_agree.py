"""Cross-backend consistency sweep: for every data generator, the
TimberDB extraction path must produce exactly the in-memory extraction's
fact table, and the resulting cubes must match cell for cell."""

import pytest

from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.extract import extract_from_db, extract_from_documents
from repro.datagen.catalog import CatalogConfig, catalog_query, generate_catalog
from repro.datagen.dblp import DblpConfig, dblp_query, generate_dblp
from repro.datagen.publications import figure1_document, query1
from repro.datagen.treebank import (
    TreebankConfig,
    generate_treebank,
    treebank_query,
)
from repro.timber.database import TimberDB
from repro.xmlmodel.serializer import serialize

CASES = [
    pytest.param(
        lambda: (figure1_document(), query1()), id="figure1"
    ),
    pytest.param(
        lambda: (
            generate_treebank(
                TreebankConfig(
                    n_facts=60, n_axes=3, coverage=False, disjoint=False,
                    seed=3,
                )
            ),
            treebank_query(
                TreebankConfig(
                    n_facts=60, n_axes=3, coverage=False, disjoint=False,
                    seed=3,
                )
            ),
        ),
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


@pytest.mark.parametrize("build", CASES)
def test_db_backend_matches_memory(build):
    doc, query = build()
    memory_table = extract_from_documents([doc], query)
    db = TimberDB()
    db.load(serialize(doc))
    db_table = extract_from_db(db, query)

    assert len(memory_table) == len(db_table)
    for mine, theirs in zip(memory_table.rows, db_table.rows):
        assert mine.measure == theirs.measure
        for my_axis, their_axis in zip(mine.axes, theirs.axes):
            assert sorted((v.value, v.mask) for v in my_axis) == sorted(
                (v.value, v.mask) for v in their_axis
            )

    memory_cube = compute_cube(memory_table, ExecutionOptions(algorithm="NAIVE"))
    db_cube = compute_cube(db_table, ExecutionOptions(algorithm="NAIVE"))
    assert memory_cube.same_contents(db_cube)
