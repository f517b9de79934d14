"""Unit tests for the electronic-catalog generator."""

import pytest

from repro.core.cube import ExecutionOptions, compute_cube
from repro.core.extract import extract_fact_table
from repro.core.properties import PropertyOracle
from repro.datagen.catalog import CatalogConfig, catalog_query, generate_catalog
from repro.xmlmodel.serializer import serialize


class TestGeneration:
    def test_product_count_and_determinism(self):
        config = CatalogConfig(n_products=40, seed=2)
        one = generate_catalog(config)
        assert len(one.find_all("product")) == 40
        assert serialize(one) == serialize(generate_catalog(config))

    def test_heterogeneity_knobs(self):
        doc = generate_catalog(CatalogConfig(n_products=300, seed=4))
        products = doc.find_all("product")
        assert any(p.find_children("taxonomy") for p in products)
        assert any(len(p.find_descendants("category")) >= 2 for p in products)
        assert any(p.find_children("details") for p in products)
        assert any(not p.find_descendants("price") for p in products)

    def test_skus_unique(self):
        doc = generate_catalog(CatalogConfig(n_products=50))
        skus = [p.attrs["sku"] for p in doc.find_all("product")]
        assert len(set(skus)) == 50


class TestCubing:
    @pytest.fixture(scope="class")
    def table(self):
        doc = generate_catalog(CatalogConfig(n_products=200, seed=6))
        return extract_fact_table(doc, catalog_query())

    def test_pcad_recovers_nested_shapes(self, table):
        lattice = table.lattice
        cube = compute_cube(table, ExecutionOptions(algorithm="BUC"))
        rigid = cube.cuboids[
            lattice.point_by_description("$c:rigid, $b:LND")
        ]
        relaxed = cube.cuboids[
            lattice.point_by_description("$c:PC-AD, $b:LND")
        ]
        assert sum(relaxed.values()) > sum(rigid.values())
        brand_rigid = cube.cuboids[
            lattice.point_by_description("$c:LND, $b:rigid")
        ]
        brand_relaxed = cube.cuboids[
            lattice.point_by_description("$c:LND, $b:PC-AD")
        ]
        assert sum(brand_relaxed.values()) > sum(brand_rigid.values())

    def test_all_safe_algorithms_agree(self, table):
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        oracle = PropertyOracle.from_data(table)
        for name in ("COUNTER", "BUC", "TD", "BUCCUST", "TDCUST"):
            assert compute_cube(
                table, ExecutionOptions(algorithm=name, oracle=oracle)
            ).same_contents(
                reference
            ), name

    def test_sum_measure(self):
        doc = generate_catalog(CatalogConfig(n_products=100, seed=7))
        table = extract_fact_table(doc, catalog_query("SUM"))
        cube = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        total = cube.cuboids[table.lattice.bottom][()]
        expected = sum(
            float(price.text)
            for price in doc.find_all("price")
        )
        assert total == pytest.approx(expected)
