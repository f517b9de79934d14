"""End-to-end integration: text query -> XML text -> cube."""

from repro import (
    ExecutionOptions,
    compute_cube,
    extract_fact_table,
    parse,
    parse_x3_query,
)
from repro.core.properties import PropertyOracle

SALES_XML = """
<sales>
  <sale id="1"><store><region>EU</region></store><item>pen</item>
    <item>ink</item><amount>10</amount></sale>
  <sale id="2"><store><region>US</region></store><item>pen</item>
    <amount>5</amount></sale>
  <sale id="3"><division><store><region>EU</region></store></division>
    <item>ink</item><amount>2</amount></sale>
  <sale id="4"><item>pen</item><amount>1</amount></sale>
</sales>
"""

QUERY = """
for $s in doc("sales.xml")//sale,
    $r in $s/store/region,
    $i in $s/item
X^3 $s/@id by $r (LND, SP, PC-AD),
            $i (LND)
return COUNT($s).
"""


class TestFullPipeline:
    def test_memory_backend(self):
        doc = parse(SALES_XML)
        query = parse_x3_query(QUERY)
        table = extract_fact_table(doc, query)
        cube = compute_cube(table, ExecutionOptions(algorithm="BUC"))
        # region rigid: sale3's region hides under division (PC-AD/SP
        # territory); sale4 has none at all.
        rigid = cube.cuboid_by_description("$r:rigid, $i:LND")
        assert rigid == {("EU",): 1.0, ("US",): 1.0}
        relaxed = cube.cuboid_by_description("$r:PC-AD, $i:LND")
        assert relaxed == {("EU",): 2.0, ("US",): 1.0}
        items = cube.cuboid_by_description("$r:LND, $i:rigid")
        assert items == {("pen",): 3.0, ("ink",): 2.0}

    def test_all_algorithms_agree_via_data_oracle(self):
        query = parse_x3_query(QUERY)
        table = extract_fact_table(parse(SALES_XML), query)
        oracle = PropertyOracle.from_data(table)
        reference = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        for name in ("COUNTER", "BUC", "TD", "BUCCUST", "TDCUST"):
            assert compute_cube(
                table, ExecutionOptions(algorithm=name, oracle=oracle)
            ).same_contents(
                reference
            )

    def test_sum_pipeline(self):
        text = QUERY.replace("COUNT($s)", "SUM($s/amount)")
        query = parse_x3_query(text)
        table = extract_fact_table(parse(SALES_XML), query)
        cube = compute_cube(table, ExecutionOptions(algorithm="NAIVE"))
        items = cube.cuboid_by_description("$r:LND, $i:rigid")
        assert items[("pen",)] == 16.0  # 10 + 5 + 1
        assert items[("ink",)] == 12.0  # 10 + 2


class TestMultiDocumentWarehouse:
    def test_facts_across_documents(self):
        query = parse_x3_query(QUERY)
        docs = [parse(SALES_XML, name="a"), parse(SALES_XML, name="b")]
        table = extract_fact_table(docs, query)
        assert len(table) == 8
        cube = compute_cube(table, ExecutionOptions(algorithm="COUNTER"))
        items = cube.cuboid_by_description("$r:LND, $i:rigid")
        assert items[("pen",)] == 6.0
