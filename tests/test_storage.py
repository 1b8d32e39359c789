"""Tests for the mutation subsystem (`repro.storage`).

The load-bearing acceptance property: after *any* sequence of appends,
updates, and deletes served through the frontend, every maintenance
strategy — eager, lazy, hybrid — leaves the index bit-exact with a
from-scratch rebuild of the mutated table.  Around it: strategy
resolution and the hybrid hot/cold split, charged write costs visible
in the ledger, the unique-row-id precondition, and the write-plan lint
that certifies each lowered write's charge.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.database.bitmap_index import BitmapIndex
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.api import PimSession
from repro.obs import MetricsRegistry
from repro.service import (
    BatchExecutor,
    BatchPolicy,
    BitmapConjunctionRequest,
    ServiceFrontend,
)
from repro.storage import (
    STRATEGIES,
    AppendRequest,
    DeleteRequest,
    MaintenancePolicy,
    UpdateRequest,
    apply_mutation,
    charged_columns,
    is_write_request,
    resolve_maintenance,
)
from repro.verify import WritePlanError
from repro.verify.plan_lint import lint_write_plan

CARDINALITIES = {"region": 6, "status": 4, "tier": 3}


def _device(banks: int = 4) -> DramDevice:
    geometry = DramGeometry(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=banks,
        subarrays_per_bank=2,
        rows_per_subarray=32,
        row_size_bytes=64,
    )
    return DramDevice(
        geometry, DramTimingParameters.ddr3_1600(), DramEnergyParameters.ddr3_1600()
    )


def _engine(banks: int = 4) -> AmbitEngine:
    return AmbitEngine(
        _device(banks), AmbitConfig(banks_parallel=banks, vectorized_functional=True)
    )


def _table_index(rng, rows: int = 240):
    table = ColumnTable("t", rows)
    for name, cardinality in CARDINALITIES.items():
        table.add_column(
            name, rng.integers(0, cardinality, size=rows), cardinality=cardinality
        )
    return table, BitmapIndex(table, list(CARDINALITIES))


def _frontend(maintenance, **kwargs) -> ServiceFrontend:
    kwargs.setdefault("policy", BatchPolicy(max_batch=4, window_ns=None))
    kwargs.setdefault("max_queue_depth", 256)
    return ServiceFrontend(
        executor=BatchExecutor(engine=_engine(), sanitize=True),
        maintenance=maintenance,
        **kwargs,
    )


def _random_write(rng, table, index):
    """One random mutation valid against the table's *current* rows."""
    kind = rng.choice(("append", "update", "delete"))
    if kind == "append" or table.num_rows < 8:
        count = int(rng.integers(1, 5))
        rows = {
            name: [int(v) for v in rng.integers(0, card, size=count)]
            for name, card in CARDINALITIES.items()
        }
        return AppendRequest(table=table, index=index, rows=rows)
    if kind == "update":
        column = str(rng.choice(list(CARDINALITIES)))
        count = int(rng.integers(1, min(8, table.num_rows)))
        row_ids = rng.choice(table.num_rows, size=count, replace=False)
        values = rng.integers(0, CARDINALITIES[column], size=count)
        return UpdateRequest(
            table=table,
            index=index,
            column=column,
            row_ids=[int(r) for r in row_ids],
            values=[int(v) for v in values],
        )
    count = int(rng.integers(1, min(4, table.num_rows)))
    row_ids = rng.choice(table.num_rows, size=count, replace=False)
    return DeleteRequest(table=table, index=index, row_ids=[int(r) for r in row_ids])


def _random_read(rng, index):
    picked = rng.choice(len(CARDINALITIES), size=2, replace=False)
    predicates = []
    for c in picked:
        name = list(CARDINALITIES)[c]
        values = rng.choice(CARDINALITIES[name], size=2, replace=False)
        predicates.append((name, tuple(int(v) for v in values)))
    return BitmapConjunctionRequest(index=index, predicates=tuple(predicates))


def _assert_rebuild_equivalent(index: BitmapIndex, table: ColumnTable) -> None:
    """The index's planes equal a from-scratch rebuild of the table.

    Reading through :meth:`BitmapIndex.bitmap` repairs lazily-deferred
    dirt first, so this is exactly the user-visible equivalence.
    """
    fresh = BitmapIndex(table, list(CARDINALITIES))
    for column, cardinality in CARDINALITIES.items():
        for value in range(cardinality):
            assert np.array_equal(
                index.bitmap(column, value), fresh.bitmap(column, value)
            ), f"plane {column}={value} diverged from rebuild"


class TestMaintenancePolicy:
    def test_strategy_names_validate(self):
        for strategy in STRATEGIES:
            assert MaintenancePolicy(strategy).strategy == strategy
        with pytest.raises(ValueError):
            MaintenancePolicy("write-through")

    def test_resolve_normalizes(self):
        assert resolve_maintenance(None).strategy == "eager"
        assert resolve_maintenance("lazy").strategy == "lazy"
        policy = MaintenancePolicy("hybrid")
        assert resolve_maintenance(policy) is policy

    def test_hybrid_hot_cold_split_follows_reads(self):
        policy = MaintenancePolicy("hybrid", hot_threshold=2)
        # A standalone policy counts into whatever registry it is given
        # (a frontend or cluster shares its own in).
        policy.metrics = MetricsRegistry()
        assert policy.column_strategy("region") == "lazy"  # cold until read
        policy.note_read(["region"])
        policy.note_read(["region"])
        assert policy.is_hot("region")
        assert policy.column_strategy("region") == "eager"
        assert policy.column_strategy("status") == "lazy"  # still cold

    def test_estimate_planes_caps_at_cardinality(self):
        rng = np.random.default_rng(0)
        table, index = _table_index(rng)
        policy = MaintenancePolicy("eager")
        update = UpdateRequest(
            table=table, index=index, column="status",
            row_ids=list(range(12)), values=[v % 4 for v in range(12)],
        )
        # clear-old + set-new would be 2 * 4 distinct values = 8 planes,
        # capped at the column's cardinality of 4.
        assert policy.estimate_planes(update, "status") == 4
        append = AppendRequest(table=table, index=index, rows={"region": [0]})
        assert policy.estimate_planes(append, "region") == CARDINALITIES["region"]

    def test_charged_columns_respects_scatter_restriction(self):
        rng = np.random.default_rng(1)
        table, index = _table_index(rng)
        delete = DeleteRequest(table=table, index=index, row_ids=[0])
        assert set(charged_columns(delete)) == set(CARDINALITIES)
        part = DeleteRequest(
            table=table, index=index, row_ids=[0], columns=("status",), apply=False
        )
        assert charged_columns(part) == ("status",)

    def test_unique_row_ids_required(self):
        rng = np.random.default_rng(2)
        table, index = _table_index(rng)
        with pytest.raises(ValueError):
            apply_mutation(
                UpdateRequest(
                    table=table, index=index, column="status",
                    row_ids=[3, 3], values=[1, 2],
                )
            )


class TestRebuildEquivalence:
    """Any write sequence, any strategy: index == from-scratch rebuild."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_strategies_match_rebuild_after_any_write_sequence(self, strategy, seed):
        rng = np.random.default_rng(seed)
        table, index = _table_index(rng, rows=120)
        frontend = _frontend(strategy)
        for _ in range(int(rng.integers(4, 10))):
            if rng.random() < 0.5:
                frontend.offer(_random_write(rng, table, index))
            else:
                frontend.offer(_random_read(rng, index))
            frontend.drain()
        _assert_rebuild_equivalent(index, table)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batched_writes_match_rebuild(self, strategy):
        """Writes and reads closing in the *same* batch stay equivalent."""
        rng = np.random.default_rng(9)
        table, index = _table_index(rng, rows=120)
        frontend = _frontend(strategy)
        for _ in range(12):
            if rng.random() < 0.5:
                frontend.offer(_random_write(rng, table, index))
            else:
                frontend.offer(_random_read(rng, index))
        frontend.drain()
        _assert_rebuild_equivalent(index, table)


class TestWriteCosts:
    def test_eager_write_costs_land_in_the_ledger(self):
        rng = np.random.default_rng(3)
        table, index = _table_index(rng)
        frontend = _frontend("eager")
        frontend.offer(
            UpdateRequest(
                table=table, index=index, column="status",
                row_ids=[1, 2, 3], values=[0, 1, 2],
            )
        )
        frontend.drain()
        (record,) = [r for r in frontend.records if r.completed]
        assert is_write_request(record.request)
        assert record.value == 3  # rows affected is the response value
        assert record.metrics.latency_ns > 0
        assert record.metrics.energy_j > 0

    def test_lazy_defers_and_the_first_read_repairs(self):
        rng = np.random.default_rng(4)
        table, index = _table_index(rng)
        frontend = _frontend("lazy")
        frontend.offer(
            UpdateRequest(
                table=table, index=index, column="status",
                row_ids=[5], values=[1],
            )
        )
        frontend.drain()
        assert "status" in index.dirty_columns()
        rebuilds_before = index.rebuilds
        frontend.offer(
            BitmapConjunctionRequest(
                index=index, predicates=(("status", (0, 1)), ("region", (0, 1)))
            )
        )
        frontend.drain()
        assert index.dirty_columns() == []
        assert index.rebuilds > rebuilds_before

    def test_append_and_delete_report_rows_affected(self):
        rng = np.random.default_rng(5)
        table, index = _table_index(rng)
        frontend = _frontend("eager")
        frontend.offer(
            AppendRequest(
                table=table, index=index,
                rows={name: [0, 1] for name in CARDINALITIES},
            )
        )
        frontend.offer(DeleteRequest(table=table, index=index, row_ids=[0, 4, 7]))
        frontend.drain()
        append_record, delete_record = [r for r in frontend.records if r.completed]
        assert append_record.value == 2
        assert delete_record.value == 3


class TestHotnessSurvivesTracing:
    """Attaching a tracer to a warm hybrid backend changes no decision."""

    @staticmethod
    def _warm_then_write(traced: bool):
        rng = np.random.default_rng(71)
        table, index = _table_index(rng)
        frontend = _frontend(MaintenancePolicy("hybrid", hot_threshold=3))
        policy = frontend.planner.maintenance
        outcomes = []
        lower_write = policy.lower_write
        policy.lower_write = lambda request, executor: (
            outcomes.append(lower_write(request, executor)) or outcomes[-1]
        )
        warm = PimSession(frontend)
        for _ in range(5):
            warm.submit(
                BitmapConjunctionRequest(index=index, predicates=(("region", (1, 2)),))
            )
        warm.drain()
        assert policy.reads_of("region") == 5.0  # hot, untraced
        session = PimSession(frontend, observe=traced)
        future = session.submit(
            UpdateRequest(
                table=table, index=index, column="region",
                row_ids=[0, 1, 2], values=[3, 4, 5],
            )
        )
        response = future.result()
        (outcome,) = outcomes
        fingerprint = (
            response.value,
            response.start_ns,
            response.finish_ns,
            response.latency_ns,
            response.energy_j,
        )
        return outcome.strategies, outcome.planes_charged, fingerprint, policy.reads_of("region")

    def test_traced_session_over_warm_hybrid_backend_writes_identically(self):
        plain = self._warm_then_write(traced=False)
        traced = self._warm_then_write(traced=True)
        assert plain[0] == {"region": "eager"}
        assert traced == plain


class TestWritePlanLint:
    def test_real_outcomes_certify(self):
        rng = np.random.default_rng(6)
        table, index = _table_index(rng)
        executor = BatchExecutor(engine=_engine())
        policy = MaintenancePolicy("eager")
        for request in (
            UpdateRequest(
                table=table, index=index, column="tier", row_ids=[2], values=[1]
            ),
            AppendRequest(
                table=table, index=index, rows={n: [0] for n in CARDINALITIES}
            ),
            DeleteRequest(table=table, index=index, row_ids=[1]),
        ):
            outcome = policy.lower_write(request, executor)
            lint_write_plan(outcome)  # must not raise
            assert outcome.invalidate_all == (request.kind in ("append", "delete"))

    def test_misdeclared_charge_is_caught(self):
        rng = np.random.default_rng(7)
        table, index = _table_index(rng)
        executor = BatchExecutor(engine=_engine())
        outcome = MaintenancePolicy("eager").lower_write(
            UpdateRequest(
                table=table, index=index, column="tier", row_ids=[0], values=[2]
            ),
            executor,
        )
        outcome.planes_charged += 1  # ledger no longer matches the primitives
        with pytest.raises(WritePlanError):
            lint_write_plan(outcome)
