"""Tests for repro.database (tables, bitmap index, BitWeaving, queries)."""

import numpy as np
import pytest

from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.api import PimSession
from repro.database.queries import QueryEngine
from repro.database.tables import ColumnTable, generate_sales_table


@pytest.fixture(scope="module")
def table() -> ColumnTable:
    return generate_sales_table(50_000, seed=11)


class TestColumnTable:
    def test_generated_columns(self, table):
        assert table.num_rows == 50_000
        assert set(table.columns) == {"region", "product", "quantity", "discount"}
        assert table.cardinalities["region"] == 16
        assert table.column("region").max() < 16

    def test_column_bits(self, table):
        assert table.column_bits("region") == 4
        assert table.column_bits("quantity") == 8

    def test_describe(self, table):
        assert "sales" in table.describe()

    def test_add_column_validation(self):
        table = ColumnTable("t", 10)
        with pytest.raises(ValueError):
            table.add_column("c", np.zeros(5, dtype=np.int64))
        with pytest.raises(TypeError):
            table.add_column("c", np.zeros(10))
        with pytest.raises(ValueError):
            table.add_column("c", np.full(10, -1, dtype=np.int64))
        with pytest.raises(KeyError):
            table.column("missing")

    def test_invalid_row_count(self):
        with pytest.raises(ValueError):
            generate_sales_table(0)

    def test_zipf_skew(self, table):
        counts = np.bincount(table.column("region"), minlength=16)
        assert counts[0] > counts[8]


class TestBitmapIndex:
    def test_bitmaps_partition_the_rows(self, table):
        index = BitmapIndex(table, ["region"])
        total = sum(
            BitmapIndex.count(index.bitmap("region", value), table.num_rows)
            for value in range(16)
        )
        assert total == table.num_rows

    def test_in_predicate_matches_reference(self, table):
        index = BitmapIndex(table, ["region"])
        result, plan = index.evaluate_in("region", [1, 3])
        expected = int(np.isin(table.column("region"), [1, 3]).sum())
        assert BitmapIndex.count(result, table.num_rows) == expected
        assert plan.total_operations == 1  # one OR

    def test_conjunction_matches_reference(self, table):
        index = BitmapIndex(table, ["region", "product"])
        predicates = [("region", [0, 1]), ("product", [2, 3, 4])]
        result, plan = index.evaluate_conjunction(predicates)
        codes_region = table.column("region")
        codes_product = table.column("product")
        expected = int(
            (np.isin(codes_region, [0, 1]) & np.isin(codes_product, [2, 3, 4])).sum()
        )
        assert BitmapIndex.count(result, table.num_rows) == expected
        assert plan.total_operations == 1 + 2 + 1  # ORs within columns + final AND

    def test_empty_predicates_rejected(self, table):
        index = BitmapIndex(table, ["region"])
        with pytest.raises(ValueError):
            index.evaluate_in("region", [])
        with pytest.raises(ValueError):
            index.evaluate_conjunction([])
        with pytest.raises(KeyError):
            index.bitmap("region", 99)

    def test_storage_and_bulk_vectors(self, table):
        index = BitmapIndex(table, ["region"])
        assert index.storage_bytes() == 16 * ((table.num_rows + 7) // 8)
        vectors = index.as_bulk_vectors("region")
        assert len(vectors) == 16
        assert vectors[0].num_bits == table.num_rows


class TestBitWeaving:
    @pytest.fixture(scope="class")
    def column(self, table):
        return BitWeavingColumn.from_table(table, "quantity")

    def test_plane_count_and_storage(self, column, table):
        assert column.num_bits == 8
        assert len(column.planes) == 8
        assert column.storage_bytes() == 8 * ((table.num_rows + 7) // 8)

    @pytest.mark.parametrize("constant", [0, 1, 37, 128, 255])
    def test_less_than_matches_reference(self, column, table, constant):
        codes = table.column("quantity")
        result, _ = column.scan_less_than(constant)
        expected = column.reference_scan(codes, lambda c: c < constant)
        assert np.array_equal(result, expected)

    @pytest.mark.parametrize("constant", [0, 5, 100, 255])
    def test_equal_matches_reference(self, column, table, constant):
        codes = table.column("quantity")
        result, _ = column.scan_equal(constant)
        expected = column.reference_scan(codes, lambda c: c == constant)
        assert np.array_equal(result, expected)

    def test_less_equal_and_range(self, column, table):
        codes = table.column("quantity")
        result, _ = column.scan_less_equal(99)
        assert np.array_equal(result, column.reference_scan(codes, lambda c: c <= 99))
        result, _ = column.scan_range(32, 96)
        assert np.array_equal(
            result, column.reference_scan(codes, lambda c: (c >= 32) & (c <= 96))
        )

    def test_range_validation(self, column):
        with pytest.raises(ValueError):
            column.scan_range(10, 5)
        with pytest.raises(ValueError):
            column.scan_less_than(256)

    def test_plan_reports_operations(self, column):
        _, plan = column.scan_less_than(37)
        assert plan.total_operations > 0
        assert plan.planes_touched == 8
        assert set(plan.operations) <= {"and", "or", "not"}

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BitWeavingColumn(np.array([4]), num_bits=2)
        with pytest.raises(ValueError):
            BitWeavingColumn(np.array([-1]), num_bits=4)
        with pytest.raises(ValueError):
            BitWeavingColumn(np.array([[1, 2]]), num_bits=4)


def _session(engine: QueryEngine, tier: str) -> PimSession:
    """A fresh session pricing through ``engine``: the serial host CPU
    (``"host"``) or the Ambit service tier on ``engine.ambit``."""
    if tier == "host":
        return PimSession.over_host(coster=engine)
    return PimSession.over_service(engine=engine.ambit, coster=engine)


def _range_count(engine: QueryEngine, tier: str, column, low: int, high: int):
    return _session(engine, tier).range_count(column, low, high).result()


class TestQueryEngine:
    def test_backends_agree_on_result(self, table):
        column = BitWeavingColumn.from_table(table, "quantity")
        engine = QueryEngine()
        cpu = _range_count(engine, "host", column, 32, 96)
        ambit = _range_count(engine, "service", column, 32, 96)
        assert cpu.matching_rows == ambit.matching_rows
        expected = int(((table.column("quantity") >= 32) & (table.column("quantity") <= 96)).sum())
        assert cpu.matching_rows == expected

    def test_ambit_scan_is_faster_for_large_tables(self):
        table = generate_sales_table(8_000_000, seed=1)
        column = BitWeavingColumn.from_table(table, "quantity")
        engine = QueryEngine()
        cpu = _range_count(engine, "host", column, 32, 57)
        ambit = _range_count(engine, "service", column, 32, 57)
        assert ambit.latency_ns < cpu.latency_ns
        assert cpu.latency_ns / ambit.latency_ns > 3

    def test_speedup_grows_with_table_size(self):
        engine = QueryEngine()
        speedups = []
        for rows in (500_000, 4_000_000, 16_000_000):
            table = generate_sales_table(rows, seed=2)
            column = BitWeavingColumn.from_table(table, "quantity")
            cpu = _range_count(engine, "host", column, 32, 57)
            ambit = _range_count(engine, "service", column, 32, 57)
            speedups.append(cpu.latency_ns / ambit.latency_ns)
        assert speedups[0] < speedups[1] < speedups[2]

    def test_bitmap_conjunction_backends_agree(self, table):
        index = BitmapIndex(table, ["region", "product"])
        engine = QueryEngine()
        predicates = [("region", [0, 1]), ("product", [0, 1, 2])]
        cpu = _session(engine, "host").conjunction(index, predicates).result()
        ambit = _session(engine, "service").conjunction(index, predicates).result()
        assert cpu.matching_rows == ambit.matching_rows
        assert cpu.breakdown["scan_ns"] > 0
        assert ambit.breakdown["epilogue_ns"] == pytest.approx(cpu.breakdown["epilogue_ns"])

    def test_epilogue_scales_with_selectivity(self, table):
        engine = QueryEngine()
        low = engine.epilogue_cost(table.num_rows, matching_rows=100)
        high = engine.epilogue_cost(table.num_rows, matching_rows=40_000)
        assert high.latency_ns > low.latency_ns
