"""Tests for the repetition-aware result cache (`repro.cache`).

The load-bearing acceptance property: a cache-on frontend is bit-exact
with a cache-off frontend on any mixed read/write stream — on the
single-device service tier and the sharded cluster tier, both under
``sanitize=True``.  Around it: the ResultCache unit surface (LRU
eviction, copy-out alias safety, column-level invalidation, write
epochs), the same-batch write hazard regressions (the optimizer's
batch-local CSE table and the epoch-guarded fills), end-to-end
accounting through ``Response.details`` and ``SessionReport``, and the
``cache.*`` observability counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api import PimSession
from repro.cache import ResultCache, resolve_cache
from repro.cluster import ClusterFrontend
from repro.database.bitmap_index import BitmapIndex
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.service import (
    BatchExecutor,
    BatchPolicy,
    BitmapConjunctionRequest,
    ServiceFrontend,
)
from repro.storage import AppendRequest, UpdateRequest, is_write_request
from repro.verify import CacheConsistencyError
from repro.verify.plan_lint import lint_cache_consistency

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


def _table_index(rng, rows: int = 200):
    table = ColumnTable("t", rows)
    for name, cardinality in CARDINALITIES.items():
        table.add_column(
            name, rng.integers(0, cardinality, size=rows), cardinality=cardinality
        )
    return table, BitmapIndex(table, list(CARDINALITIES))


def _frontend(cache, **kwargs) -> ServiceFrontend:
    kwargs.setdefault("policy", BatchPolicy(max_batch=4, window_ns=None))
    kwargs.setdefault("max_queue_depth", 256)
    kwargs.setdefault("maintenance", "eager")
    return ServiceFrontend(
        executor=BatchExecutor(engine=_engine(), sanitize=True),
        cache=cache,
        **kwargs,
    )


def _mixed_stream(rng, table, index, count: int = 24):
    """A repetition-heavy mixed stream against one table/index pair."""
    templates = []
    for _ in range(4):
        picked = rng.choice(len(CARDINALITIES), size=2, replace=False)
        predicates = []
        for c in picked:
            name = list(CARDINALITIES)[c]
            values = rng.choice(CARDINALITIES[name], size=2, replace=False)
            predicates.append((name, tuple(int(v) for v in values)))
        templates.append(tuple(predicates))
    requests = []
    for _ in range(count):
        if rng.random() < 0.25:
            row_ids = rng.choice(table.num_rows, size=6, replace=False)
            values = rng.integers(0, CARDINALITIES["status"], size=6)
            requests.append(
                UpdateRequest(
                    table=table, index=index, column="status",
                    row_ids=[int(r) for r in row_ids],
                    values=[int(v) for v in values],
                )
            )
        else:
            requests.append(
                BitmapConjunctionRequest(
                    index=index,
                    predicates=templates[int(rng.integers(0, len(templates)))],
                )
            )
    return requests


def _replay(rng_seed: int, build):
    """Serve the same seeded stream through ``build(table, index)``."""
    rng = np.random.default_rng(rng_seed)
    table, index = _table_index(rng)
    frontend = build(table, index)
    for request in _mixed_stream(rng, table, index):
        frontend.offer(request)
        if rng.random() < 0.5:
            frontend.drain()  # cross-batch boundaries exercise the cache
    frontend.drain()
    return frontend


class TestResultCacheUnit:
    def test_capacities_validate(self):
        with pytest.raises(ValueError):
            ResultCache(capacity_bytes=0)
        with pytest.raises(ValueError):
            ResultCache(capacity_entries=0)

    def test_resolve_normalizes(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert isinstance(resolve_cache(True), ResultCache)
        cache = ResultCache()
        assert resolve_cache(cache) is cache

    def test_hits_return_copies_never_the_stored_buffer(self):
        cache = ResultCache()
        index = object()
        cache.put(("k",), index, ("status",), np.arange(8, dtype=np.uint8), 64)
        first = cache.get(("k",), index, 64)
        first[:] = 0  # a consumer scribbling on its hit...
        second = cache.get(("k",), index, 64)
        assert np.array_equal(second, np.arange(8, dtype=np.uint8))  # ...harms nobody
        assert cache.hits == 2

    def test_lru_eviction_counts(self):
        cache = ResultCache(capacity_entries=2)
        index = object()
        for i in range(3):
            cache.put((i,), index, ("c",), np.zeros(4, dtype=np.uint8), 32)
        assert cache.live_entries == 2
        assert cache.evictions == 1
        assert cache.get((0,), index, 32) is None  # oldest went first

    def test_invalidation_drops_only_dependent_entries(self):
        cache = ResultCache()
        index = object()
        cache.put(("a",), index, ("status",), np.zeros(4, dtype=np.uint8), 32)
        cache.put(("b",), index, ("region",), np.zeros(4, dtype=np.uint8), 32)
        cache.put(("c",), index, ("region", "status"), np.zeros(4, dtype=np.uint8), 32)
        assert cache.invalidate_columns(index, ["status"]) == 2
        assert cache.entries_for(index) == [("b",)]
        assert cache.invalidations == 2

    def test_invalidate_index_drops_everything_for_that_index(self):
        cache = ResultCache()
        index, other = object(), object()
        cache.put(("a",), index, ("status",), np.zeros(4, dtype=np.uint8), 32)
        cache.put(("b",), other, ("status",), np.zeros(4, dtype=np.uint8), 32)
        assert cache.invalidate_index(index) == 1
        assert cache.entries_for(other) == [("b",)]

    def test_write_epochs_advance_on_invalidation(self):
        cache = ResultCache()
        index = object()
        before = cache.write_epoch(index, ["status"])
        cache.invalidate_columns(index, ["status"])
        assert cache.write_epoch(index, ["status"]) > before
        untouched = cache.write_epoch(index, ["region"])
        cache.invalidate_index(index)  # appends/deletes bump index-wide
        assert cache.write_epoch(index, ["region"]) > untouched

    def test_row_count_mismatch_is_dropped_defensively(self):
        cache = ResultCache()
        index = object()
        cache.put(("k",), index, ("c",), np.zeros(4, dtype=np.uint8), 32)
        assert cache.get(("k",), index, 40) is None
        assert cache.live_entries == 0


class TestBitExactness:
    """Cache on == cache off, under sanitize, on both tiers."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_service_tier(self, seed):
        on = _replay(seed, lambda t, i: _frontend(cache=True))
        off = _replay(seed, lambda t, i: _frontend(cache=None))
        on_records = [r for r in on.records if r.completed]
        off_records = [r for r in off.records if r.completed]
        assert len(on_records) == len(off_records)
        for ours, ref in zip(on_records, off_records):
            if is_write_request(ref.request):
                assert ours.value == ref.value
            else:
                assert np.array_equal(ours.value, ref.value)
        assert on.cache is not None and on.cache.hits > 0

    @pytest.mark.parametrize("seed", [3, 17])
    def test_cluster_tier(self, seed):
        def serve(cache):
            rng = np.random.default_rng(seed)
            table, index = _table_index(rng)
            cluster = ClusterFrontend(
                num_shards=2,
                engine_factory=lambda: _engine(),
                policy=BatchPolicy(max_batch=4, window_ns=None),
                sanitize=True,
                cache=cache,
                maintenance="eager",
            )
            session = PimSession(cluster)
            records = []
            for request in _mixed_stream(rng, table, index, count=16):
                records.append(session.submit(request).record)
                if rng.random() < 0.5:
                    session.drain()
            session.drain()
            return records, session

        on_records, on_session = serve(cache=True)
        off_records, _ = serve(cache=None)
        assert len(on_records) == len(off_records)
        for ours, ref in zip(on_records, off_records):
            if is_write_request(ref.request):
                assert ours.value == ref.value
            else:
                assert np.array_equal(ours.value, ref.value)
        metrics = on_session.report().details
        assert metrics.cache_hits > 0
        assert metrics.cache_invalidations > 0


class TestSameBatchWriteHazards:
    """Writes landing mid-batch must not leak pre-write state."""

    PREDICATES = (("status", (0, 1)), ("region", (0, 1, 2)))

    def _read(self, index):
        return BitmapConjunctionRequest(index=index, predicates=self.PREDICATES)

    def _update_out_of_result(self, rng, table, index):
        """Move matching rows to status=3, shrinking the read's result."""
        status = table.column("status")
        matching = np.flatnonzero((status == 0) | (status == 1))[:40]
        return UpdateRequest(
            table=table, index=index, column="status",
            row_ids=[int(r) for r in matching],
            values=[3] * len(matching),
        )

    def test_batch_local_cse_is_invalidated_by_writes(self):
        """Regression: read / write / read closing in ONE batch.  The
        second read must re-emit from the mutated planes instead of
        riding the first read's CSE'd sub-chain vector."""

        def serve(cache):
            rng = np.random.default_rng(23)
            table, index = _table_index(rng)
            frontend = _frontend(cache=cache, policy=BatchPolicy(max_batch=3, window_ns=None))
            first = frontend.offer(self._read(index))
            frontend.offer(self._update_out_of_result(rng, table, index))
            second = frontend.offer(self._read(index))
            frontend.drain()
            return first, second

        on_first, on_second = serve(cache=True)
        off_first, off_second = serve(cache=None)
        # The write really changed the answer mid-batch...
        assert not np.array_equal(off_first.value, off_second.value)
        # ...and the optimized path tracked it bit for bit.
        assert np.array_equal(on_first.value, off_first.value)
        assert np.array_equal(on_second.value, off_second.value)

    def test_stale_fills_are_bypassed_by_the_epoch_guard(self):
        """A fill planned before a same-batch write must not land."""
        rng = np.random.default_rng(29)
        table, index = _table_index(rng)
        frontend = _frontend(cache=True, policy=BatchPolicy(max_batch=2, window_ns=None))
        frontend.offer(self._read(index))
        frontend.offer(self._update_out_of_result(rng, table, index))
        frontend.drain()
        cache = frontend.cache
        assert cache.bypasses > 0
        lint_cache_consistency(cache, index)  # nothing stale survived

    def test_cache_consistency_lint_catches_planted_staleness(self):
        rng = np.random.default_rng(31)
        _table, index = _table_index(rng)
        cache = ResultCache()
        cache.put(("k",), index, ("status",), np.zeros((index.num_rows + 7) // 8, dtype=np.uint8), index.num_rows)
        lint_cache_consistency(cache, index)  # clean entry certifies
        index.mark_dirty(["status"])  # a write the cache never heard about
        with pytest.raises(CacheConsistencyError):
            lint_cache_consistency(cache, index)


class TestAccounting:
    def test_frontend_metrics_and_obs_counters(self):
        rng = np.random.default_rng(41)
        table, index = _table_index(rng)
        frontend = _frontend(cache=True, observe=True)
        session = PimSession(frontend)
        read = BitmapConjunctionRequest(
            index=index, predicates=(("status", (0, 1)), ("tier", (0, 1)))
        )
        session.submit(read)
        session.drain()
        session.submit(read)  # second batch: served from the cache
        session.drain()
        session.submit(
            AppendRequest(
                table=table, index=index,
                rows={name: [0] for name in CARDINALITIES},
            )
        )
        session.drain()
        metrics = session.report().details
        assert metrics.cache_hits > 0
        assert metrics.cache_misses > 0
        assert metrics.cache_invalidations > 0
        counters = frontend.obs.metrics.snapshot()["counters"]
        assert counters["cache.hit"] == metrics.cache_hits
        assert counters["cache.miss"] == metrics.cache_misses
        assert counters["cache.invalidations"] == metrics.cache_invalidations

    def test_session_responses_and_report_carry_cache_fields(self):
        rng = np.random.default_rng(43)
        table, index = _table_index(rng)
        session = PimSession(_frontend(cache=True), name="cached")
        predicates = [("status", (0, 1)), ("region", (0, 1))]
        session.conjunction(index, predicates)
        session.drain()
        repeat = session.conjunction(index, predicates)
        session.drain()
        write = session.update(index=index, table=table, column="status", row_ids=[0, 1], values=[2, 3])
        session.drain()
        assert repeat.response().details.cache_hits >= 1
        assert write.response().value == 2
        report = session.report()
        assert report.details.cache_hits >= 1
        assert report.details.cache_invalidations >= 1
