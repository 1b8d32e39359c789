"""Tests for fault injection, replica failover, and elastic control.

The load-bearing acceptance property: under any fault schedule with
replication factor >= 2 (and no more than rf-1 concurrently-dead
shards), the cluster's results are bit-exact with a healthy fixed-pool
run, and no request is lost or double-executed — every offered request
terminates exactly once, as completed or as a typed rejection.  Around
it: the FaultPlan schedule/trigger semantics, degraded-mode typed
outcomes (ShardUnavailable), drain/retire conservation, the obs-driven
ElasticController's three actuators, the deadline-aware retry budget,
the failover-reoffer lint, and the counter-vs-metrics audit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import PimSession, RequestFailed, RequestRejected, ShardUnavailable
from repro.cluster import (
    ClusterFrontend,
    ControllerPolicy,
    ElasticController,
    FaultEvent,
    FaultPlan,
    FaultTrigger,
    PlacementUnavailable,
    ShardRouter,
    kill_revive_schedule,
)
from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.obs import Span
from repro.service import (
    BatchPolicy,
    BitmapConjunctionRequest,
    ScanRequest,
    poisson_schedule,
    trace_schedule,
)
from repro.service.client import BackoffPolicy, RetryClient
from repro.service.frontend import ArrivalEvent
from repro.verify import FailoverError, check_failover_reoffer


def _device(banks: int = 4, rows_per_subarray: int = 32) -> DramDevice:
    geometry = DramGeometry(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=banks,
        subarrays_per_bank=2,
        rows_per_subarray=rows_per_subarray,
        row_size_bytes=64,
    )
    return DramDevice(
        geometry, DramTimingParameters.ddr3_1600(), DramEnergyParameters.ddr3_1600()
    )


def _engine_factory(banks: int = 4):
    return lambda: AmbitEngine(
        _device(banks), AmbitConfig(banks_parallel=banks, vectorized_functional=True)
    )


def _cluster(num_shards: int, **kwargs) -> ClusterFrontend:
    kwargs.setdefault("engine_factory", _engine_factory())
    kwargs.setdefault("policy", BatchPolicy(max_batch=3))
    return ClusterFrontend(num_shards=num_shards, **kwargs)


def _bitmap_index(rng, rows: int = 150) -> BitmapIndex:
    table = ColumnTable("t", rows)
    table.add_column("region", rng.integers(0, 8, size=rows), cardinality=8)
    table.add_column("status", rng.integers(0, 4, size=rows), cardinality=4)
    table.add_column("tier", rng.integers(0, 3, size=rows), cardinality=3)
    return BitmapIndex(table, ["region", "status", "tier"])


def _conjunctions(rng, index: BitmapIndex, count: int):
    """A burst of conjunction requests touching every indexed column."""
    requests = []
    for _ in range(count):
        predicates = []
        for column, cardinality in (("region", 8), ("status", 4), ("tier", 3)):
            values = tuple(
                sorted(set(int(v) for v in rng.integers(0, cardinality, size=2)))
            )
            predicates.append((column, values))
        requests.append(
            BitmapConjunctionRequest(index=index, predicates=tuple(predicates))
        )
    return requests


class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(at_ns=0.0, action="explode", shard_id=0)
        with pytest.raises(ValueError):
            FaultEvent(at_ns=-1.0, action="kill", shard_id=0)
        with pytest.raises(ValueError):
            FaultEvent(at_ns=0.0, action="kill")  # kill needs a victim
        FaultEvent(at_ns=0.0, action="join")  # join does not

    def test_trigger_validation_and_arming(self):
        with pytest.raises(ValueError):
            FaultTrigger(action="explode", predicate=lambda c, t: True, shard_id=0)
        trigger = FaultTrigger(action="kill", predicate=lambda c, t: True, shard_id=0)
        assert trigger.armed
        trigger.fired = 1
        assert not trigger.armed
        repeating = FaultTrigger(
            action="kill", predicate=lambda c, t: True, shard_id=0, once=False, fired=3
        )
        assert repeating.armed

    def test_schedule_orders_by_time_then_insertion(self):
        plan = FaultPlan(
            events=[
                FaultEvent(at_ns=500.0, action="revive", shard_id=1),
                FaultEvent(at_ns=100.0, action="kill", shard_id=1),
                FaultEvent(at_ns=500.0, action="kill", shard_id=0),
            ]
        )
        assert plan.next_fire_ns() == 100.0
        assert [(e.at_ns, e.action) for e in plan.pending] == [
            (100.0, "kill"),
            (500.0, "revive"),
            (500.0, "kill"),
        ]

    def test_kill_revive_schedule_helper(self):
        plan = kill_revive_schedule([(0, 100.0, 200.0), (1, 50.0, None)])
        assert [(e.at_ns, e.action, e.shard_id) for e in plan.pending] == [
            (50.0, "kill", 1),
            (100.0, "kill", 0),
            (200.0, "revive", 0),
        ]
        with pytest.raises(ValueError):
            kill_revive_schedule([(0, 200.0, 100.0)])

    def test_fire_due_applies_and_logs(self):
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=2))
        plan = kill_revive_schedule([(1, 100.0, 200.0)])
        cluster.faults = plan
        assert plan.fire_due(cluster, 50.0) == 0
        assert plan.fire_due(cluster, 100.0) == 1
        assert not cluster.router.is_alive(1)
        # Killing the dead shard again is a logged no-op.
        plan2 = FaultPlan(events=[FaultEvent(at_ns=150.0, action="kill", shard_id=1)])
        plan2.fire_due(cluster, 150.0)
        assert plan2.log[0].applied is False
        assert plan.fire_due(cluster, 250.0) == 1
        assert cluster.router.is_alive(1)
        assert [(e.action, e.applied, e.source) for e in plan.log] == [
            ("kill", True, "event"),
            ("revive", True, "event"),
        ]

    def test_trigger_fires_on_cluster_state(self):
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=2))
        plan = FaultPlan(
            triggers=[
                FaultTrigger(
                    action="kill",
                    predicate=lambda c, now: now >= 300.0,
                    shard_id=0,
                )
            ]
        )
        cluster.faults = plan
        assert plan.poll(cluster, 100.0) == 0
        assert plan.poll(cluster, 300.0) == 1
        assert not cluster.router.is_alive(0)
        assert plan.poll(cluster, 400.0) == 0  # once=True disarms
        assert plan.log[0].source == "trigger"


class TestFailoverBitExactness:
    @settings(max_examples=8, deadline=None)
    @given(
        num_shards=st.sampled_from([2, 3, 4]),
        pipeline=st.booleans(),
        kill_ns=st.sampled_from([300.0, 1500.0, 4000.0]),
        revive=st.booleans(),
        victim_offset=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_results_bit_exact_under_fault_schedule(
        self, serve, num_shards, pipeline, kill_ns, revive, victim_offset, seed
    ):
        """Acceptance: any kill/revive schedule with rf=2 and one dead
        shard at a time leaves every request completed, bit-exact with
        the healthy fixed-pool run — nothing lost, nothing doubled."""
        rng = np.random.default_rng(seed)
        index = _bitmap_index(rng)
        requests = _conjunctions(rng, index, count=12)
        events = poisson_schedule(requests, rate_per_s=2e6, seed=seed)

        healthy = _cluster(
            num_shards,
            router=ShardRouter(num_shards, replication_factor=2),
            pipeline=pipeline,
        )
        _, healthy_records = serve(
            healthy, poisson_schedule(requests, rate_per_s=2e6, seed=seed)
        )

        victim = victim_offset % num_shards
        plan = kill_revive_schedule(
            [(victim, kill_ns, kill_ns + 3000.0 if revive else None)]
        )
        faulted = _cluster(
            num_shards,
            router=ShardRouter(num_shards, replication_factor=2),
            pipeline=pipeline,
            faults=plan,
        )
        report, records = serve(faulted, events)
        metrics = report.details

        # Conservation: every request terminates exactly once.
        assert metrics.offered == len(requests)
        assert metrics.completed + metrics.rejected == len(requests)
        assert metrics.rejected == 0  # rf=2 covers one dead shard
        assert sorted(r.seq for r in records if r.completed) == list(range(len(requests)))
        # Failover re-offers are not rejections: each part counts on the
        # shard that finally held it.
        assert all(shard.rejected == 0 for shard in metrics.per_shard)

        # Bit-exactness vs the healthy run and vs direct evaluation.
        healthy_by_seq = {r.seq: r for r in healthy_records}
        for record in records:
            expected, _ = index.evaluate_conjunction(list(record.request.predicates))
            assert np.array_equal(record.value, expected)
            assert np.array_equal(record.value, healthy_by_seq[record.seq].value)

        # The schedule was actually exercised when it was due in-window.
        fired = [entry for entry in plan.log if entry.action == "kill"]
        if kill_ns <= metrics.makespan_ns:
            assert fired and fired[0].applied
            assert metrics.shard_failures == 1

    def test_mid_burst_kill_migrates_queued_parts(self, serve):
        """A kill landing mid-burst re-offers queued parts to surviving
        replicas: failovers are visible, nothing is lost."""
        rng = np.random.default_rng(42)
        index = _bitmap_index(rng)
        requests = _conjunctions(rng, index, count=24)
        plan = kill_revive_schedule([(1, 600.0, None)])
        cluster = _cluster(
            4,
            router=ShardRouter(4, replication_factor=2),
            faults=plan,
            sanitize=True,  # every re-offer certified by the failover lint
        )
        report, records = serve(cluster, poisson_schedule(requests, rate_per_s=8e6, seed=42))
        metrics = report.details
        assert metrics.shard_failures == 1
        assert metrics.completed == len(requests)
        assert metrics.rejected == 0
        assert metrics.failovers > 0
        assert metrics.failover_failures == 0
        # The migrated parts count on the surviving shards that served
        # them, not as rejections on the dead one.
        assert all(shard.rejected == 0 for shard in metrics.per_shard)
        for record in records:
            expected, _ = index.evaluate_conjunction(list(record.request.predicates))
            assert np.array_equal(record.value, expected)
        # No migrated part landed back on the dead shard.
        for record in records:
            if record.failovers:
                assert all(s != 1 for s in record.shard_ids)
                assert record.migrated_parts  # originals kept for audit

    def test_failover_rescatter_is_certified_by_the_coverage_check(
        self, serve, monkeypatch
    ):
        """Under sanitize=True a failover re-scatter runs through the same
        scatter path as a first offer, so the coverage check certifies it
        too: once per offered conjunction plus once per migrated part."""
        import repro.verify.plan_lint as plan_lint

        calls = []
        real_check = plan_lint.check_scatter_coverage

        def spy(predicates, parts):
            calls.append(tuple(predicates))
            return real_check(predicates, parts)

        monkeypatch.setattr(plan_lint, "check_scatter_coverage", spy)
        rng = np.random.default_rng(42)
        index = _bitmap_index(rng)
        requests = _conjunctions(rng, index, count=24)
        cluster = _cluster(
            4,
            router=ShardRouter(4, replication_factor=2),
            faults=kill_revive_schedule([(1, 600.0, None)]),
            sanitize=True,
        )
        report, records = serve(cluster, poisson_schedule(requests, rate_per_s=8e6, seed=42))
        migrated = [part for record in records for part in record.migrated_parts]
        assert migrated
        assert report.details.completed == len(requests)
        expected = [r.predicates for r in requests] + [p.request.predicates for p in migrated]
        assert sorted(calls) == sorted(expected)

    def test_revived_shard_serves_again(self):
        rng = np.random.default_rng(7)
        column = BitWeavingColumn(rng.integers(0, 64, size=200), 6)
        plan = kill_revive_schedule([(0, 100.0, 5000.0)])
        cluster = _cluster(
            2, router=ShardRouter(2, replication_factor=1), faults=plan
        )
        home = cluster.router.replicas(column)[0]
        # Round-robin object placement puts the first column on shard 0.
        assert home == 0
        cluster.advance_to(200.0)  # kill fires; shard 0 is down
        assert not cluster.router.is_alive(0)
        cluster.advance_to(6000.0)  # revival fires
        assert cluster.router.is_alive(0)
        record = cluster.offer(
            ScanRequest(column=column, kind="less_than", constants=(10,)),
            arrival_ns=6000.0,
        )
        cluster.drain()
        assert record.completed
        assert record.shard_ids[0] == home
        summary = cluster.elastic_summary()
        assert summary["shard_failures"] == 1
        assert summary["shard_revivals"] == 1


class TestDegradedMode:
    def test_unreplicated_key_on_dead_shard_rejects_typed(self):
        """rf=1 + a dead home shard = degraded mode: offers are refused
        with a failure-typed reason, never silently dropped."""
        rng = np.random.default_rng(11)
        column = BitWeavingColumn(rng.integers(0, 64, size=200), 6)
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=1))
        home = cluster.router.replicas(column)[0]
        assert cluster.fail_shard(home)
        session = PimSession(cluster)
        record = session.submit(
            ScanRequest(column=column, kind="less_than", constants=(10,))
        ).record
        assert not record.admitted
        assert record.rejected_reason == "shard_unavailable"
        session.drain()
        assert session.report().details.rejected == 1

    def test_stranded_queued_request_fails_typed(self):
        """Work already queued on the victim with no surviving replica
        fails its record (all-or-nothing) instead of vanishing."""
        rng = np.random.default_rng(12)
        column = BitWeavingColumn(rng.integers(0, 64, size=200), 6)
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=1))
        record = cluster.offer(
            ScanRequest(column=column, kind="less_than", constants=(10,))
        )
        assert record.admitted
        home = record.shard_ids[0]
        assert cluster.fail_shard(home)
        assert not record.admitted
        assert record.rejected_reason == "shard_unavailable"
        cluster.drain()
        summary = cluster.elastic_summary()
        assert summary["failover_failures"] == 1

    def test_session_raises_shard_unavailable(self):
        """The typed outcome surfaces through the unified client API and
        still satisfies legacy `except RequestRejected` handlers."""
        assert issubclass(ShardUnavailable, RequestFailed)
        assert issubclass(RequestFailed, RequestRejected)
        rng = np.random.default_rng(13)
        column = BitWeavingColumn(rng.integers(0, 64, size=200), 6)
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=1))
        session = PimSession(cluster, name="degraded")
        future = session.submit(
            ScanRequest(column=column, kind="less_than", constants=(10,))
        )
        cluster.fail_shard(future.record.shard_ids[0])
        with pytest.raises(ShardUnavailable) as excinfo:
            future.result()
        assert excinfo.value.reason == "shard_unavailable"
        # Admission refusals stay plain RequestRejected, not the subclass.
        response = future.response()
        assert response.status == "rejected"
        assert response.rejected_reason == "shard_unavailable"

    def test_scatter_skips_dead_holders_and_rejects_uncovered(self):
        """A scattered conjunction is all-or-nothing across health too:
        with a predicate column only on a dead shard, admission refuses
        the whole request up front."""
        rng = np.random.default_rng(14)
        index = _bitmap_index(rng)
        cluster = _cluster(
            3, router=ShardRouter(3, strategy="range", replication_factor=1)
        )
        cluster.router.register_names(index.indexed_columns())
        by_shard = cluster.router.partition(index.indexed_columns())
        victim = next(i for i, cols in enumerate(by_shard) if cols)
        cluster.fail_shard(victim)
        record = cluster.offer(
            BitmapConjunctionRequest(
                index=index,
                predicates=(("region", (1, 2)), ("status", (0, 1)), ("tier", (0, 1))),
            )
        )
        assert not record.admitted
        assert record.rejected_reason == "shard_unavailable"


class TestDrainRetireJoin:
    def test_drain_migrates_and_conserves(self, serve):
        rng = np.random.default_rng(21)
        index = _bitmap_index(rng)
        requests = _conjunctions(rng, index, count=16)
        plan = FaultPlan(events=[FaultEvent(at_ns=500.0, action="drain", shard_id=0)])
        cluster = _cluster(
            3, router=ShardRouter(3, replication_factor=2), faults=plan
        )
        report, records = serve(cluster, poisson_schedule(requests, rate_per_s=8e6, seed=21))
        assert report.completed == len(requests)
        assert report.rejected == 0
        assert cluster.router.is_alive(0)
        assert not cluster.router.is_routable(0)
        for record in records:
            expected, _ = index.evaluate_conjunction(list(record.request.predicates))
            assert np.array_equal(record.value, expected)

    def test_retire_moves_sole_replicas_and_charges_copies(self):
        rng = np.random.default_rng(22)
        index = _bitmap_index(rng)
        cluster = _cluster(3, router=ShardRouter(3, replication_factor=1))
        cluster.router.register_names(index.indexed_columns())
        # Materialize shard views so replica byte-counts see the planes.
        record = cluster.offer(
            BitmapConjunctionRequest(
                index=index,
                predicates=(("region", (1,)), ("status", (0,)), ("tier", (1,))),
            )
        )
        cluster.drain()
        assert record.completed
        victim = 2
        keys_before = cluster.router.placed_keys(victim)
        assert cluster.retire_shard(victim)
        assert cluster.router.is_retired(victim)
        assert cluster.router.placed_keys(victim) == []
        # Every key the victim solely held survives on a live shard.
        for key in keys_before:
            replicas = cluster.router.replicas(key)
            assert replicas and all(s != victim for s in replicas)
        summary = cluster.elastic_summary()
        assert summary["shards_retired"] == 1
        if keys_before:
            assert summary["replications"] >= len(keys_before)
            assert summary["copied_bytes"] > 0
        # Retired shards never come back, and offers keep completing.
        assert not cluster.revive_shard(victim)
        after = cluster.offer(
            BitmapConjunctionRequest(
                index=index, predicates=(("region", (2, 3)), ("tier", (0,)))
            )
        )
        cluster.drain()
        assert after.completed
        assert all(s != victim for s in after.shard_ids)

    def test_join_grows_pool_and_serves(self):
        rng = np.random.default_rng(23)
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=1))
        new_id = cluster.join_shard(at_ns=1000.0)
        assert new_id == 2
        assert cluster.num_shards == 3
        assert cluster.shards[new_id].clock_ns >= 1000.0
        assert cluster.router.is_routable(new_id)
        # A key first seen after the join can land on the new shard.
        columns = [BitWeavingColumn(rng.integers(0, 64, size=100), 6) for _ in range(6)]
        homes = {cluster.router.replicas(c)[0] for c in columns}
        assert new_id in homes
        records = [
            cluster.offer(
                ScanRequest(column=c, kind="less_than", constants=(9,)),
                arrival_ns=1000.0,
            )
            for c in columns
        ]
        cluster.drain()
        assert all(r.completed for r in records)
        assert cluster.elastic_summary()["shards_joined"] == 1


class TestElasticController:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ControllerPolicy(interval_ns=0.0)
        with pytest.raises(ValueError):
            ControllerPolicy(imbalance_threshold=0.5)
        with pytest.raises(ValueError):
            ControllerPolicy(min_shards=4, max_shards=2)
        with pytest.raises(ValueError):
            ControllerPolicy(max_replication=0)

    def test_replicates_hot_key_to_cold_shard(self, serve):
        """Sustained skew on one column re-replicates it to the idle
        shard, with the copy bytes charged there — and results stay
        bit-exact."""
        rng = np.random.default_rng(31)
        index = _bitmap_index(rng)
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=1))
        controller = ElasticController(
            cluster,
            ControllerPolicy(
                interval_ns=2_000.0,
                imbalance_threshold=1.2,
                overload_backlog_ns=1e12,  # isolate the replicate actuator
                replicate_per_tick=2,
            ),
        )
        assert cluster.controller is controller
        # Hammer one column so its home shard backlogs.
        requests = [
            BitmapConjunctionRequest(index=index, predicates=(("region", (1, 2)),))
            for _ in range(30)
        ]
        report, records = serve(cluster, poisson_schedule(requests, rate_per_s=20e6, seed=31))
        metrics = report.details
        assert metrics.completed == len(requests)
        replicate_events = [e for e in controller.events if e.action == "replicate"]
        assert replicate_events
        assert replicate_events[0].key == "region"
        assert len(cluster.router.replicas("region")) == 2
        assert metrics.replications >= 1
        assert metrics.copied_bytes > 0
        expected, _ = index.evaluate_conjunction([("region", (1, 2))])
        for record in records:
            assert np.array_equal(record.value, expected)

    def test_joins_under_sustained_overload(self, serve):
        rng = np.random.default_rng(32)
        columns = [BitWeavingColumn(rng.integers(0, 64, size=400), 6) for _ in range(4)]
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=1))
        ElasticController(
            cluster,
            ControllerPolicy(
                interval_ns=1_000.0,
                overload_backlog_ns=100.0,
                overload_windows=2,
                imbalance_threshold=1e9,  # isolate the join actuator
                max_shards=3,
            ),
        )
        requests = [
            ScanRequest(column=columns[i % 4], kind="less_than", constants=(9,))
            for i in range(40)
        ]
        metrics = serve(cluster, poisson_schedule(requests, rate_per_s=20e6, seed=32))[0].details
        assert cluster.num_shards == 3  # grew to max_shards, not past it
        assert metrics.shards_joined == 1
        assert metrics.completed == len(requests)

    def test_retires_when_idle(self):
        cluster = _cluster(3, router=ShardRouter(3, replication_factor=1))
        controller = ElasticController(
            cluster,
            ControllerPolicy(
                interval_ns=1_000.0,
                idle_windows=3,
                min_shards=2,
                imbalance_threshold=1e9,
            ),
        )
        cluster.advance_to(20_000.0)  # idle ticks accumulate
        retire_events = [e for e in controller.events if e.action == "retire"]
        assert retire_events
        assert retire_events[0].shard_id == 2  # youngest routable first
        assert len(cluster.router.routable_shards()) == 2  # floor respected
        assert cluster.elastic_summary()["shards_retired"] == 1

    def test_untraced_controller_allocates_no_spans_and_decides_identically(self):
        """The controller reads the always-on registry: attaching it to an
        untraced cluster turns no tracing on and changes no decision."""

        def run(observe):
            rng = np.random.default_rng(33)
            index = _bitmap_index(rng)
            columns = [BitWeavingColumn(rng.integers(0, 64, size=400), 6) for _ in range(2)]
            cluster = _cluster(
                2, router=ShardRouter(2, replication_factor=1), observe=observe
            )
            controller = ElasticController(
                cluster,
                ControllerPolicy(
                    interval_ns=1_000.0,
                    imbalance_threshold=1.2,
                    overload_backlog_ns=100.0,
                    overload_windows=2,
                    max_shards=3,
                ),
            )
            requests = [
                BitmapConjunctionRequest(index=index, predicates=(("region", (1, 2)),))
                if i % 2
                else ScanRequest(column=columns[i // 2 % 2], kind="less_than", constants=(9,))
                for i in range(40)
            ]
            before = Span.allocated
            session = PimSession(cluster)
            session.submit_stream(poisson_schedule(requests, rate_per_s=20e6, seed=33))
            session.drain()
            return controller.events, Span.allocated - before, cluster

        plain_events, plain_spans, plain_cluster = run(False)
        traced_events, traced_spans, _ = run(True)
        assert plain_spans == 0 and traced_spans > 0
        assert not plain_cluster.obs.enabled
        assert {e.action for e in plain_events} >= {"replicate", "join"}
        assert plain_events == traced_events

    def test_missed_ticks_collapse(self):
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=1))
        controller = ElasticController(
            cluster, ControllerPolicy(interval_ns=1_000.0, idle_windows=10**6)
        )
        controller.run_due(500.0)
        assert controller.ticks == 0
        controller.run_due(10_500.0)  # 10 periods due; one cumulative tick
        assert controller.ticks == 1
        assert controller.next_tick_ns() == 11_000.0


class TestRetryClientDeadlineBudget:
    def test_keyed_jitter_is_deterministic_and_order_independent(self):
        policy = BackoffPolicy(base_ns=1000.0, multiplier=2.0, jitter=0.5)
        first = policy.delay_ns(2, seed=7, key=3)
        assert policy.delay_ns(2, seed=7, key=3) == first
        assert policy.delay_ns(2, seed=7, key=4) != first
        assert policy.delay_ns(2, seed=8, key=3) != first
        base = 1000.0 * 2.0
        assert base * 0.5 <= first <= base * 1.5
        # The first retry's keyed draw stays within its own jitter bound.
        keyed = policy.delay_ns(1, seed=0, key=0)
        assert keyed == policy.delay_ns(1, seed=0, key=0)
        assert 500.0 <= keyed <= 1500.0

    def test_retry_budget_capped_by_remaining_slack(self):
        """A retry whose backoff lands past the deadline is not offered:
        the attempt budget is the remaining slack."""
        rng = np.random.default_rng(41)
        columns = [BitWeavingColumn(rng.integers(0, 64, size=200), 6) for _ in range(6)]
        make_events = lambda deadline: [
            ArrivalEvent(
                request=ScanRequest(column=c, kind="less_than", constants=(9,)),
                arrival_ns=0.0,
                deadline_ns=deadline,
            )
            for c in columns
        ]
        # Batch size 1 drains the queue between retry waves, so each wave
        # admits exactly one re-offer.
        make_session = lambda: PimSession(
            _cluster(
                1, router=ShardRouter(1), max_queue_depth=1, policy=BatchPolicy(max_batch=1)
            )
        )
        policy = BackoffPolicy(base_ns=50_000.0, multiplier=2.0, max_attempts=4)

        tight = RetryClient(make_session(), policy=policy, seed=1)
        tight_outcome = tight.run(make_events(deadline=10_000.0))
        assert tight.deadline_exhausted > 0
        # Doomed retries were cut: rejected requests stopped at one attempt.
        assert all(
            len(r.attempts) == 1 for r in tight_outcome.records if r.gave_up
        )

        slack = RetryClient(make_session(), policy=policy, seed=1)
        slack_outcome = slack.run(make_events(deadline=1e9))
        assert slack.deadline_exhausted == 0
        assert slack_outcome.delivered_after_retry > 0


class TestFailoverLintAndAudit:
    def test_check_failover_reoffer_rejects_bad_targets(self):
        router = ShardRouter(3, replication_factor=2)
        router.mark_down(1)
        check_failover_reoffer(router, failed_shard=1, target_shards=[0, 2])
        with pytest.raises(FailoverError):
            check_failover_reoffer(router, failed_shard=1, target_shards=[1])
        router.mark_down(2)
        with pytest.raises(FailoverError):
            check_failover_reoffer(router, failed_shard=1, target_shards=[2])

    def test_placement_unavailable_carries_key(self):
        router = ShardRouter(2, replication_factor=1)
        router.mark_down(0)
        router.mark_down(1)
        with pytest.raises(PlacementUnavailable) as excinfo:
            router.route("orphan", lambda shard: 0.0)
        assert excinfo.value.key == "orphan"

    @pytest.mark.parametrize("observe", [False, True])
    def test_counters_match_cluster_metrics(self, serve, observe):
        """The cluster.failover.* / cluster.scale.* counter taxonomy and
        the ClusterMetrics roll-up tell one story, traced or not."""
        rng = np.random.default_rng(51)
        index = _bitmap_index(rng)
        requests = _conjunctions(rng, index, count=20)
        plan = kill_revive_schedule([(0, 400.0, 6000.0)])
        cluster = _cluster(
            3,
            router=ShardRouter(3, replication_factor=2),
            faults=plan,
            observe=observe,
        )
        metrics = serve(cluster, poisson_schedule(requests, rate_per_s=8e6, seed=51))[0].details
        counters = cluster.obs.snapshot()["counters"]
        assert counters.get("cluster.failover.kills", 0.0) == metrics.shard_failures
        assert counters.get("cluster.failover.revives", 0.0) == metrics.shard_revivals
        assert (
            counters.get("cluster.failover.migrated_parts", 0.0) == metrics.failovers
        )
        assert (
            counters.get("cluster.failover.records_failed", 0.0)
            == metrics.failover_failures
        )
        assert counters.get("cluster.scale.joins", 0.0) == metrics.shards_joined
        assert counters.get("cluster.scale.retires", 0.0) == metrics.shards_retired
        assert counters.get("cluster.scale.replications", 0.0) == metrics.replications
        assert counters.get("cluster.scale.copied_bytes", 0.0) == metrics.copied_bytes
        assert metrics.shard_failures == 1
        assert metrics.completed == len(requests)

    def test_gauges_published_for_controller(self):
        cluster = _cluster(
            2, router=ShardRouter(2, replication_factor=1), observe=True
        )
        rng = np.random.default_rng(52)
        column = BitWeavingColumn(rng.integers(0, 64, size=200), 6)
        cluster.offer(ScanRequest(column=column, kind="less_than", constants=(9,)))
        cluster.publish_gauges()
        gauges = cluster.obs.snapshot()["gauges"]
        assert gauges["cluster.shards_alive"] == 2.0
        assert gauges["cluster.shards_routable"] == 2.0
        assert gauges["cluster.imbalance"] >= 1.0
        assert "cluster.backlog_ns.shard0" in gauges
        assert "cluster.queue_depth.shard1" in gauges
        assert 0.0 <= gauges["cluster.rejection_rate"] <= 1.0
