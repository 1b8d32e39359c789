"""Tests for the unified client API (`repro.api`).

The load-bearing acceptance property: one seeded mixed workload (scans +
conjunctions + range counts) submitted through :class:`PimSession`
returns bit-exact results and a consistent :class:`Response` shape
whether the backend is a single-device :class:`ServiceFrontend`, an
N-shard :class:`ClusterFrontend`, or the serial :class:`HostBackend`.
Around it: the ``Backend`` protocol surface, future semantics
(rejection, windowed sessions, lazy drain), the host-side gather merge
cost, and the behaviours of the retired ``QueryEngine`` query entry
points, pinned on the session that replaced them.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api import (
    Backend,
    ClusterDetails,
    HostBackend,
    HostDetails,
    PimSession,
    RequestRejected,
    ServiceDetails,
    lower_conjunction_steps,
)
from repro.cluster import ClusterFrontend, ShardRouter
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.queries import QueryEngine
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.service import (
    BackoffPolicy,
    BatchExecutor,
    BatchPolicy,
    BitmapConjunctionRequest,
    RetryClient,
    ScanRequest,
    ServiceFrontend,
    poisson_schedule,
)
from repro.storage import UpdateRequest


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


def _service_session(**kwargs) -> PimSession:
    return PimSession(
        ServiceFrontend(executor=BatchExecutor(engine=_engine()), **kwargs)
    )


def _cluster_session(num_shards: int, **kwargs) -> PimSession:
    kwargs.setdefault("engine_factory", lambda: _engine())
    kwargs.setdefault("policy", BatchPolicy(max_batch=3))
    return PimSession(ClusterFrontend(num_shards=num_shards, **kwargs))


def _random_column(rng, num_bits: int = 6, rows: int = 200) -> BitWeavingColumn:
    return BitWeavingColumn(rng.integers(0, 1 << num_bits, size=rows), num_bits)


def _bitmap_index(rng, rows: int = 400) -> BitmapIndex:
    table = ColumnTable("t", rows)
    table.add_column("region", rng.integers(0, 8, size=rows), cardinality=8)
    table.add_column("status", rng.integers(0, 4, size=rows), cardinality=4)
    table.add_column("tier", rng.integers(0, 3, size=rows), cardinality=3)
    return BitmapIndex(table, ["region", "status", "tier"])


def _mixed_workload(session: PimSession, columns, index, constants, num_bits):
    """Submit the canonical seeded mix: scans + range counts + conjunctions."""
    kinds = ["less_than", "less_equal", "equal"]
    futures = []
    for i, constant in enumerate(constants):
        constant %= 1 << num_bits
        column = columns[i % len(columns)]
        if i % 3 == 2:
            high = max(constant, (1 << num_bits) - 1 - constant)
            futures.append(session.range_count(column, min(constant, high), high))
        else:
            futures.append(session.scan(column, kinds[i % len(kinds)], constant))
    futures.append(
        session.conjunction(index, [("region", (1, 2, 3)), ("status", (0, 1)), ("tier", (0, 2))])
    )
    futures.append(session.conjunction(index, [("region", (0,)), ("tier", (1,))]))
    return futures


class TestBackendProtocol:
    def test_all_tiers_speak_the_protocol(self):
        assert isinstance(ServiceFrontend(executor=BatchExecutor(engine=_engine())), Backend)
        assert isinstance(
            ClusterFrontend(num_shards=2, engine_factory=lambda: _engine()), Backend
        )
        assert isinstance(HostBackend(), Backend)

    @settings(max_examples=10, deadline=None)
    @given(
        num_shards=st.sampled_from([1, 2, 4]),
        num_bits=st.integers(2, 6),
        rows=st.integers(20, 300),
        seed=st.integers(0, 2**16),
        constants=st.lists(st.integers(0, 63), min_size=1, max_size=5),
    )
    def test_service_and_cluster_sessions_bit_exact(
        self, num_shards, num_bits, rows, seed, constants
    ):
        """Acceptance: the same seeded mixed workload through PimSession
        over a ServiceFrontend and over an N-shard ClusterFrontend returns
        bit-exact values and consistent Response metadata."""
        rng = np.random.default_rng(seed)
        columns = [_random_column(rng, num_bits, rows) for _ in range(3)]
        index = _bitmap_index(rng, rows=rows)

        service = _service_session(policy=BatchPolicy(max_batch=3))
        cluster = _cluster_session(
            num_shards, router=ShardRouter(num_shards, replication_factor=1)
        )
        service_futures = _mixed_workload(service, columns, index, constants, num_bits)
        cluster_futures = _mixed_workload(cluster, columns, index, constants, num_bits)

        for sf, cf in zip(service_futures, cluster_futures):
            sr, cr = sf.result(), cf.result()
            assert sr.status == cr.status == "completed"
            assert sr.kind == cr.kind
            assert np.array_equal(sr.value, cr.value)
            assert sr.matching_rows == cr.matching_rows
            # The host epilogue prices identically on both tiers; the scan
            # side may differ only for scattered conjunctions (device ANDs
            # replaced by host merges).
            assert sr.breakdown["epilogue_ns"] == pytest.approx(cr.breakdown["epilogue_ns"])
            if sr.kind != "conjunction":
                assert sr.breakdown["scan_ns"] == pytest.approx(cr.breakdown["scan_ns"])
                assert sr.energy_j == pytest.approx(cr.energy_j)
            assert isinstance(sr.details, ServiceDetails)
            assert isinstance(cr.details, ClusterDetails)
            assert 1 <= cr.details.fanout <= num_shards

        service_report = service.report()
        cluster_report = cluster.report()
        assert service_report.tier == "service"
        assert cluster_report.tier == "cluster"
        assert service_report.completed == cluster_report.completed == len(service_futures)
        assert service_report.rejected == cluster_report.rejected == 0
        assert cluster_report.details.shards == num_shards

    def test_host_session_matches_service_values(self):
        rng = np.random.default_rng(3)
        columns = [_random_column(rng) for _ in range(3)]
        index = _bitmap_index(rng)
        host = PimSession.over_host()
        service = _service_session()
        for session in (host, service):
            _mixed_workload(session, columns, index, [5, 17, 40], 6)
        for hf, sf in zip(host.futures, service.futures):
            hr, sr = hf.response(), sf.response()
            assert np.array_equal(hr.value, sr.value)
            assert hr.matching_rows == sr.matching_rows
            assert isinstance(hr.details, HostDetails)
        assert host.report().tier == "host"
        assert host.report().completed == len(host.futures)


class TestFutureSemantics:
    def test_result_drains_lazily(self):
        rng = np.random.default_rng(4)
        session = _service_session(policy=BatchPolicy(max_batch=8))
        future = session.scan(_random_column(rng), "less_than", 9)
        assert not future.done()
        assert future.status == "queued"
        response = future.result()  # drains the backend
        assert future.done() and future.status == "completed"
        expected, _ = future.request.column.scan("less_than", 9)
        assert np.array_equal(response.value, expected)
        assert response.latency_ns == pytest.approx(
            response.breakdown["scan_ns"] + response.breakdown["epilogue_ns"]
        )
        assert response.sojourn_ns == pytest.approx(future.sojourn_ns)

    def test_rejected_future_raises(self):
        rng = np.random.default_rng(5)
        session = _service_session(max_queue_depth=1)
        kept = session.scan(_random_column(rng), "less_than", 3)
        refused = session.scan(_random_column(rng), "less_than", 3)
        assert refused.status == "rejected"
        with pytest.raises(RequestRejected) as excinfo:
            refused.result()
        assert excinfo.value.reason == "queue_full"
        assert refused.response().status == "rejected"
        assert kept.result().status == "completed"

    def test_windowed_reports_on_a_shared_backend(self):
        """Two sessions over one frontend report only their own traffic —
        counts AND time-based fields (makespan, busy, batches)."""
        rng = np.random.default_rng(6)
        frontend = ServiceFrontend(executor=BatchExecutor(engine=_engine()))
        first = PimSession(frontend, name="first")
        first.scan(_random_column(rng), "less_than", 7)
        first.drain()
        first_report = first.report()
        second = PimSession(frontend, name="second")
        for _ in range(4):
            second.scan(_random_column(rng), "equal", 7)
        second.drain()
        assert first_report.offered == 1
        assert second.report().offered == 4
        assert second.report().completed == 4
        assert sum(r.completed for r in frontend.records) == 5
        # Session B's traffic never leaks into A's time-based fields: a
        # report taken *after* B ran equals the one taken before.
        late_first_report = first.report()
        assert late_first_report.busy_ns == pytest.approx(first_report.busy_ns)
        assert late_first_report.makespan_ns == pytest.approx(first_report.makespan_ns)
        assert late_first_report.details.batches == first_report.details.batches == 1
        # And B's window starts at its own clock origin, excluding A.
        own_record = second.futures[0].record
        assert second.report().busy_ns == pytest.approx(
            sum(
                frontend.batches[i].metrics.latency_ns
                for i in {f.record.batch_index for f in second.futures}
            )
        )
        assert second.report().makespan_ns == pytest.approx(
            max(f.record.finish_ns for f in second.futures) - own_record.arrival_ns
        )

    def test_interleaved_sessions_apportion_shared_batches(self):
        """Two sessions whose requests land in ONE batch split its busy
        time instead of each counting the batch in full."""
        rng = np.random.default_rng(61)
        frontend = ServiceFrontend(
            executor=BatchExecutor(engine=_engine()), policy=BatchPolicy(max_batch=64)
        )
        first = PimSession(frontend, name="first")
        second = PimSession(frontend, name="second")
        for _ in range(2):
            first.scan(_random_column(rng), "less_than", 9)
            second.scan(_random_column(rng), "equal", 3)
        frontend.drain()  # one shared batch serves all four scans
        assert len(frontend.batches) == 1
        total = frontend.busy_ns
        split = first.report().busy_ns + second.report().busy_ns
        assert split == pytest.approx(total)
        assert 0.0 < first.report().busy_ns < total

    def test_windowed_reports_on_a_shared_cluster(self):
        """The cluster tier windows both report ends too: another
        session's traffic moves neither makespan nor busy time."""
        rng = np.random.default_rng(60)
        cluster = ClusterFrontend(
            num_shards=2, engine_factory=lambda: _engine(), policy=BatchPolicy(max_batch=2)
        )
        first = PimSession(cluster, name="first")
        first.scan(_random_column(rng), "less_than", 9)
        first.drain()
        first_report = first.report()
        second = PimSession(cluster, name="second")
        for _ in range(4):
            second.scan(_random_column(rng), "equal", 3)
        second.drain()
        late_first_report = first.report()
        assert late_first_report.offered == 1
        assert late_first_report.busy_ns == pytest.approx(first_report.busy_ns)
        assert late_first_report.makespan_ns == pytest.approx(first_report.makespan_ns)
        assert second.report().offered == 4
        assert second.report().makespan_ns < cluster.clock_ns

    def test_submit_stream_and_raw_requests(self):
        rng = np.random.default_rng(7)
        session = _service_session(policy=BatchPolicy(max_batch=2))
        requests = [
            ScanRequest(column=_random_column(rng), kind="less_than", constants=(c,))
            for c in (3, 9, 30)
        ]
        futures = session.submit_stream(poisson_schedule(requests, rate_per_s=1e6, seed=7))
        responses = session.responses()
        assert len(responses) == len(futures) == len(requests)
        for request, response in zip(requests, responses):
            expected, _ = request.column.scan(request.kind, *request.constants)
            assert np.array_equal(response.value, expected)
            assert response.kind == "scan"

    def test_retry_client_accepts_a_session(self):
        rng = np.random.default_rng(8)
        session = _service_session(
            max_queue_depth=2, policy=BatchPolicy(max_batch=2)
        )
        requests = [
            ScanRequest(column=_random_column(rng), kind="less_than", constants=(c,))
            for c in range(8)
        ]
        events = poisson_schedule(requests, rate_per_s=1e9, seed=8)
        outcome = RetryClient(session).run(events)
        assert outcome.delivered > 0
        assert outcome.result.completed == outcome.delivered


def _tier_session(tier: str) -> PimSession:
    if tier == "cluster":
        return _cluster_session(2, router=ShardRouter(2, replication_factor=2))
    return _service_session(policy=BatchPolicy(max_batch=2))


class TestInvalidInput:
    """Malformed offers fail alone, typed ``"invalid"``, moving no clock."""

    @staticmethod
    def _assert_invalid(future):
        assert future.status == "rejected"
        with pytest.raises(RequestRejected) as excinfo:
            future.result()
        assert excinfo.value.reason == "invalid"

    @staticmethod
    def _invalid_count(session) -> float:
        prefix = "cluster" if session.tier == "cluster" else "frontend"
        return session.backend.obs.metrics.count(f"{prefix}.rejected.invalid")

    @pytest.mark.parametrize("tier", ["service", "cluster"])
    def test_nan_arrival_is_rejected_and_percentiles_stay_finite(self, tier):
        rng = np.random.default_rng(81)
        session = _tier_session(tier)
        requests = [
            ScanRequest(column=_random_column(rng), kind="less_than", constants=(9,))
            for _ in range(6)
        ]
        events = list(poisson_schedule(requests, rate_per_s=1e6, seed=81))
        events[2] = dataclasses.replace(events[2], arrival_ns=math.nan)
        futures = session.submit_stream(events)
        session.drain()
        self._assert_invalid(futures[2])
        assert all(f.status == "completed" for i, f in enumerate(futures) if i != 2)
        report = session.report()
        assert report.details.rejected == 1
        assert math.isfinite(report.details.sojourn_p50_ns)
        assert math.isfinite(report.details.sojourn_p99_ns)
        assert self._invalid_count(session) == 1.0

    @pytest.mark.parametrize("tier", ["service", "cluster"])
    def test_inf_arrival_leaves_the_clock_finite(self, tier):
        rng = np.random.default_rng(82)
        session = _tier_session(tier)
        column = _random_column(rng)
        doomed = session.submit(
            ScanRequest(column=column, kind="less_than", constants=(9,)), at_ns=math.inf
        )
        self._assert_invalid(doomed)
        assert math.isfinite(session.clock_ns)
        later = session.submit(
            ScanRequest(column=column, kind="less_than", constants=(5,)), at_ns=100.0
        )
        assert later.result().status == "completed"
        assert math.isfinite(later.record.finish_ns)
        assert later.record.finish_ns >= 100.0
        # A non-finite deadline is refused the same way.
        self._assert_invalid(
            session.submit(
                ScanRequest(column=column, kind="less_than", constants=(5,)),
                deadline_ns=math.nan,
            )
        )

    @pytest.mark.parametrize("tier", ["service", "cluster"])
    def test_out_of_range_constant_fails_only_its_request(self, tier):
        rng = np.random.default_rng(83)
        session = _tier_session(tier)
        column = _random_column(rng, num_bits=8)
        requests = [
            ScanRequest(column=column, kind="less_than", constants=(c,))
            for c in (3, 999, 40)
        ]
        futures = session.submit_stream(poisson_schedule(requests, rate_per_s=1e6, seed=83))
        self._assert_invalid(futures[1])
        for future in (futures[0], futures[2]):
            expected, _ = column.scan("less_than", *future.request.constants)
            assert np.array_equal(future.result().value, expected)
        assert self._invalid_count(session) == 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            lambda column, index: BitmapConjunctionRequest(
                index=index, predicates=(("region", (1,)), ("nope", (0,)))
            ),
            lambda column, index: BitmapConjunctionRequest(
                index=index, predicates=(("region", (1, 99)),)
            ),
            lambda column, index: ScanRequest(column=column, kind="between", constants=(9, 3)),
            lambda column, index: object(),
        ],
        ids=[
            "unindexed_column",
            "value_outside_cardinality",
            "between_low_above_high",
            "unserved_type",
        ],
    )
    @pytest.mark.parametrize("tier", ["service", "cluster"])
    def test_malformed_request_fails_only_itself(self, tier, bad):
        """Good scan, bad request, good conjunction: the bad one fails
        alone as ``"invalid"`` and the good ones keep their exact values."""
        rng = np.random.default_rng(84)
        session = _tier_session(tier)
        column = _random_column(rng)
        index = _bitmap_index(rng)
        good_scan = ScanRequest(column=column, kind="less_than", constants=(9,))
        predicates = (("region", (1, 2)), ("status", (0,)))
        good_conjunction = BitmapConjunctionRequest(index=index, predicates=predicates)
        requests = [good_scan, bad(column, index), good_conjunction]
        futures = session.submit_stream(poisson_schedule(requests, rate_per_s=1e6, seed=84))
        session.drain()
        self._assert_invalid(futures[1])
        expected_scan, _ = column.scan("less_than", 9)
        assert np.array_equal(futures[0].result().value, expected_scan)
        expected_conjunction, _ = index.evaluate_conjunction(list(predicates))
        assert np.array_equal(futures[2].result().value, expected_conjunction)
        assert self._invalid_count(session) == 1.0

    @pytest.mark.parametrize("tier", ["service", "cluster"])
    def test_retry_client_does_not_retry_invalid_input(self, tier):
        rng = np.random.default_rng(85)
        session = _tier_session(tier)
        column = _random_column(rng, num_bits=8)
        requests = [
            ScanRequest(column=column, kind="less_than", constants=(c,))
            for c in (3, 999, 40, 7)
        ]
        events = list(poisson_schedule(requests, rate_per_s=1e6, seed=85))
        events[3] = dataclasses.replace(events[3], arrival_ns=math.nan)
        outcome = RetryClient(session, policy=BackoffPolicy(max_attempts=4)).run(events)
        assert outcome.total_attempts == 4
        assert outcome.delivered == 2
        assert self._invalid_count(session) == 2.0
        # First offers follow submit_stream's order: the NaN arrival last.
        offered = [future.record.arrival_ns for future in session.futures]
        assert offered[:-1] == sorted(offered[:-1])
        assert math.isnan(offered[-1])


class TestPlanIR:
    def test_specs_validate(self):
        rng = np.random.default_rng(9)
        column = _random_column(rng)
        index = _bitmap_index(rng)
        with pytest.raises(ValueError):
            ScanRequest(column=column, kind="nope", constants=(1,))
        with pytest.raises(ValueError):
            ScanRequest(column=column, kind="between", constants=(1,))
        with pytest.raises(ValueError):
            BitmapConjunctionRequest(index=index, predicates=())
        with pytest.raises(ValueError):
            UpdateRequest(
                table=index.table, index=index, column="status", row_ids=(0, 1), values=(2,)
            )
        with pytest.raises(ValueError):
            _service_session().scan(column, "nope", 1)

    @pytest.mark.parametrize("tier", ["service", "cluster", "host"])
    def test_scan_and_submit_of_the_same_request_respond_alike(self, tier):
        """The constructor and a raw submit of the request it builds give
        the same kind, count and epilogue: the session only adds timing."""
        codes = np.random.default_rng(14).integers(0, 64, size=200)
        column = BitWeavingColumn(codes, 6)

        def session():
            return PimSession.over_host() if tier == "host" else _tier_session(tier)

        built = session().scan(column, "less_equal", 21).result()
        raw = (
            session()
            .submit(ScanRequest(column=column, kind="less_equal", constants=(21,)))
            .result()
        )
        assert built.kind == raw.kind == "scan"
        assert built.matching_rows == raw.matching_rows
        assert built.matching_rows == int(np.count_nonzero(codes <= 21))
        assert built.breakdown["epilogue_ns"] == raw.breakdown["epilogue_ns"] > 0

    def test_shared_lowering_matches_evaluate_on_index_and_view(self):
        """One code path: the IR lowers a full index and a shard view
        identically, and the chain's final vector equals evaluate()."""
        rng = np.random.default_rng(11)
        index = _bitmap_index(rng)
        predicates = [("region", (1, 2)), ("status", (0, 1))]
        expected, plan = index.evaluate_conjunction(predicates)
        for source in (index, index.shard_view(["region", "status"])):
            steps, result, lowered_plan = lower_conjunction_steps(
                source, predicates, row_size_bytes=64
            )
            assert lowered_plan.total_operations == plan.total_operations
            for op, a, b, out in steps:
                np_op = np.bitwise_or if op == "or" else np.bitwise_and
                out.data[:] = np_op(a.data, b.data)
            packed = (index.num_rows + 7) // 8
            assert np.array_equal(result.data[:packed], expected)

    def test_view_lowering_stays_local(self):
        rng = np.random.default_rng(12)
        index = _bitmap_index(rng)
        view = index.shard_view(["region"])
        with pytest.raises(KeyError):
            lower_conjunction_steps(view, [("status", (0,))])


class TestGatherMergeCost:
    def test_scattered_conjunction_charges_host_merges(self):
        rng = np.random.default_rng(13)
        index = _bitmap_index(rng)
        # One indexed column per shard: the conjunction must scatter.
        cluster = ClusterFrontend(
            num_shards=3,
            router=ShardRouter(3, strategy="range"),
            engine_factory=lambda: _engine(),
        )
        cluster.router.register_names(index.indexed_columns())
        session = PimSession(cluster)
        future = session.conjunction(
            index, [("region", (1, 2)), ("status", (0, 1)), ("tier", (0,))]
        )
        response = future.result()
        details = response.details
        assert details.fanout == 3
        assert details.host_merge_ns == pytest.approx(2 * cluster.merge_ns_per_op)
        assert cluster.merge_ns_per_op > 0.0
        # The merge is charged into completion: the gathered finish is
        # strictly later than the last shard part's device finish.
        record = future.record
        last_part_finish = max(p.finish_ns for p in record.parts)
        assert record.finish_ns == pytest.approx(last_part_finish + details.host_merge_ns)
        report = session.report()
        assert report.details.merge_ops == 2
        assert report.details.host_merge_ns == pytest.approx(details.host_merge_ns)
        # The stream is not over until the host has merged: the makespan
        # covers the gathered finish, so sojourns never exceed it.
        assert report.makespan_ns >= record.finish_ns
        assert report.sojourn_p99_ns <= report.makespan_ns + 1e-9

    def test_merge_cost_knob_can_be_disabled(self):
        rng = np.random.default_rng(14)
        index = _bitmap_index(rng)
        cluster = ClusterFrontend(
            num_shards=3,
            router=ShardRouter(3, strategy="range"),
            engine_factory=lambda: _engine(),
            merge_ns_per_op=0.0,
        )
        cluster.router.register_names(index.indexed_columns())
        session = PimSession(cluster)
        future = session.conjunction(
            index, [("region", (1,)), ("status", (0,)), ("tier", (0,))]
        )
        future.result()
        record = future.record
        assert record.host_merge_ns == 0.0
        assert record.finish_ns == pytest.approx(max(p.finish_ns for p in record.parts))
        with pytest.raises(ValueError):
            ClusterFrontend(num_shards=2, engine_factory=lambda: _engine(), merge_ns_per_op=-1.0)


class TestDeprecationShims:
    """What the six retired QueryEngine entry points promised, on the
    session that replaced them."""

    @pytest.fixture
    def query_engine(self):
        return QueryEngine(ambit=_engine())

    @pytest.fixture
    def column(self):
        return _random_column(np.random.default_rng(15), 8, 400)

    @staticmethod
    def _service(query_engine, **kwargs):
        frontend = ServiceFrontend(executor=BatchExecutor(engine=query_engine.ambit), **kwargs)
        return PimSession(frontend, coster=query_engine)

    def test_range_count_query_warns_and_matches_session(self, query_engine, column):
        single = self._service(query_engine).range_count(column, 20, 180).result()
        session = PimSession(
            ServiceFrontend(executor=BatchExecutor(engine=_engine())), coster=query_engine
        )
        response = session.range_count(column, 20, 180).result()
        assert single.matching_rows == response.matching_rows
        assert single.latency_ns == pytest.approx(response.latency_ns)
        assert single.energy_j == pytest.approx(response.energy_j)

    def test_range_count_query_cpu_matches_plan_model(self, query_engine, column):
        host = PimSession.over_host(coster=query_engine)
        response = host.range_count(column, 20, 180).result()
        expected, plan = column.scan_range(20, 180)
        matching = BitmapIndex.count(expected, column.num_rows)
        scan = query_engine.cpu_scan_cost(plan)
        epilogue = query_engine.epilogue_cost(column.num_rows, matching)
        assert response.matching_rows == matching
        assert response.latency_ns == pytest.approx(scan.latency_ns + epilogue.latency_ns)
        assert response.energy_j == pytest.approx(scan.energy_j + epilogue.energy_j)

    def test_bitmap_conjunction_query_warns(self, query_engine):
        index = _bitmap_index(np.random.default_rng(16))
        predicates = [("region", [1, 2]), ("status", [0])]
        cpu = PimSession.over_host(coster=query_engine).conjunction(index, predicates).result()
        ambit = self._service(query_engine).conjunction(index, predicates).result()
        expected, _ = index.evaluate_conjunction(predicates)
        assert cpu.matching_rows == ambit.matching_rows == BitmapIndex.count(
            expected, index.num_rows
        )

    def test_scan_query_batch_warns_and_stays_bit_exact(self, query_engine):
        rng = np.random.default_rng(17)
        scans = [(_random_column(rng), "less_than", (c,)) for c in (5, 20, 40)]
        session = self._service(query_engine, policy=BatchPolicy(max_batch=len(scans)))
        futures = [session.scan(column, kind, *constants) for column, kind, constants in scans]
        session.drain()
        report = session.report()
        assert report.completed == len(scans)
        assert report.details.batches == 1
        assert report.serial_latency_ns >= report.busy_ns
        for (column, kind, constants), future in zip(scans, futures):
            result = future.result()
            expected, plan = column.scan(kind, *constants)
            assert result.matching_rows == BitmapIndex.count(expected, column.num_rows)
            sequential = query_engine.ambit_scan_cost(plan)
            assert result.breakdown["scan_ns"] == pytest.approx(sequential.latency_ns)

    def test_range_count_query_batch_warns(self, query_engine):
        rng = np.random.default_rng(18)
        ranges = [(_random_column(rng), 5, 40) for _ in range(3)]
        session = self._service(query_engine)
        for column, low, high in ranges:
            session.range_count(column, low, high)
        session.drain()
        assert session.report().completed == 3

    def test_scan_query_pipeline_warns(self, query_engine):
        rng = np.random.default_rng(19)
        requests = [
            ScanRequest(column=_random_column(rng), kind="equal", constants=(7,))
            for _ in range(3)
        ]
        session = self._service(query_engine)
        futures = session.submit_stream(poisson_schedule(requests, rate_per_s=1e6, seed=1))
        session.drain()
        assert session.report().completed == len(requests)
        assert [i for i, f in enumerate(futures) if f.done()] == list(range(len(requests)))

    def test_bitmap_conjunction_query_batch_warns(self, query_engine):
        index = _bitmap_index(np.random.default_rng(20))
        conjunctions = [[("region", [1, 2]), ("status", [0])], [("tier", [1])]]
        session = self._service(query_engine)
        futures = [session.conjunction(index, predicates) for predicates in conjunctions]
        for predicates, future in zip(conjunctions, futures):
            expected, _ = index.evaluate_conjunction(predicates)
            assert future.result().matching_rows == BitmapIndex.count(
                expected, index.num_rows
            )
