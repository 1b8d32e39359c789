"""Tests for the observability plane (``repro.obs``).

The load-bearing acceptance properties:

* **bit-exactness** — a service or cluster run with ``observe=True`` is
  identical to the same run with ``observe=False``: same per-request
  timestamps, same values, same ``QueueMetrics`` / ``ClusterMetrics``
  accounting (spans are stamped post-hoc from timestamps the scheduler
  already computed, so this holds by construction — and is pinned here);
* **zero-overhead default** — ``observe=False`` allocates no span
  objects on the hot path (asserted by counting allocations, not
  wall-clock);
* **faithful export** — the Perfetto trace validates against the schema
  in ``tools/validate_bench.py``, carries one track per bank lane plus
  the host lane, and replaying its exec-span intervals reproduces
  ``LaneSchedule.busy_union_ns`` exactly.

Around them: streaming-histogram accuracy, the metrics snapshot schema,
the trace accessors on ``Future``/``Response``/``SessionReport``, the
``obs-wall-clock`` lint rule, the ``percentile_or`` fix, and the text
renderers.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api import PimSession
from repro.analysis import render_lane_timeline, render_span_tree
from repro.analysis.metrics import QueueMetrics, percentile, percentile_or
from repro.cluster import ClusterFrontend
from repro.database.bitweaving import BitWeavingColumn
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    Observer,
    Span,
    StreamingHistogram,
    Tracer,
    build_trace,
    resolve_observe,
    write_trace,
)
from repro.service import (
    BatchExecutor,
    BatchPolicy,
    ScanRequest,
    ServiceFrontend,
    poisson_schedule,
)
from repro.service.lanes import LaneSchedule

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name: str):
    """Import a script from ``tools/`` (not a package) as a module."""
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve types via sys.modules
    spec.loader.exec_module(module)
    return module


def _device(banks: int = 2) -> DramDevice:
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


def _engine(banks: int = 2) -> AmbitEngine:
    return AmbitEngine(
        _device(banks), AmbitConfig(banks_parallel=banks, vectorized_functional=True)
    )


def _scan_requests(rng, count: int = 24, banks: int = 2):
    columns = [
        BitWeavingColumn(rng.integers(0, 64, size=300), 6) for _ in range(banks * 2)
    ]
    return [
        ScanRequest(
            column=columns[i % len(columns)],
            kind="between" if i % 5 == 0 else "less_than",
            constants=(5, 50) if i % 5 == 0 else (int(rng.integers(1, 64)),),
        )
        for i in range(count)
    ]


def _service_frontend(observe, *, banks: int = 2, max_queue_depth: int = 8):
    return ServiceFrontend(
        executor=BatchExecutor(engine=_engine(banks)),
        policy=BatchPolicy(max_batch=4, window_ns=None),
        max_queue_depth=max_queue_depth,
        observe=observe,
    )


def _run_service(observe, seed: int = 3, count: int = 24, max_queue_depth: int = 8):
    rng = np.random.default_rng(seed)
    frontend = _service_frontend(observe, max_queue_depth=max_queue_depth)
    events = poisson_schedule(
        _scan_requests(rng, count=count), rate_per_s=5e6, seed=seed
    )
    return (frontend, *_serve(frontend, events, name="obs_test"))


def _serve(backend, events, name):
    """Serve ``events`` through a session: (metrics, records in event order)."""
    session = PimSession(backend, name=name)
    futures = session.submit_stream(events)
    session.drain()
    return session.report().details, [future.record for future in futures]


# ---------------------------------------------------------------------
# Streaming metrics
# ---------------------------------------------------------------------
class TestStreamingHistogram:
    def test_quantiles_track_numpy_within_bucket_resolution(self):
        rng = np.random.default_rng(11)
        samples = rng.lognormal(mean=8.0, sigma=1.5, size=4000)
        hist = StreamingHistogram("lat")
        for value in samples:
            hist.observe(float(value))
        # Log buckets at 8/octave resolve ~9% per bucket; 12% relative
        # error covers boundary effects without retaining any sample.
        for q in (50.0, 90.0, 99.0):
            exact = float(np.percentile(samples, q))
            assert hist.quantile(q) == pytest.approx(exact, rel=0.12)
        assert hist.count == 4000
        assert hist.total == pytest.approx(float(samples.sum()))
        assert hist.min_value == pytest.approx(float(samples.min()))
        assert hist.max_value == pytest.approx(float(samples.max()))

    def test_zero_and_empty_handling(self):
        empty = StreamingHistogram("empty")
        assert empty.quantile(50.0) == 0.0
        assert empty.snapshot()["count"] == 0

        hist = StreamingHistogram("zeros")
        for value in (0.0, 0.0, 8.0):
            hist.observe(value)
        assert hist.quantile(50.0) == 0.0      # rank 2 of 3 lands in zeros
        assert hist.quantile(99.0) == pytest.approx(8.0)  # clamped to max

    def test_registry_snapshot_matches_schema(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("requests").inc()
        registry.counter("requests").inc(2.0)
        registry.gauge("depth").set(7.0)
        for value in (10.0, 20.0, 30.0):
            registry.histogram("wait_ns").observe(value)

        snapshot = registry.snapshot()
        assert snapshot["counters"]["requests"] == 3.0
        assert snapshot["gauges"]["depth"] == 7.0
        assert snapshot["histograms"]["wait_ns"]["count"] == 3
        # get-or-create returns the same instrument
        assert registry.counter("requests") is registry.counter("requests")

        path = tmp_path / "METRICS_test.json"
        path.write_text(json.dumps(snapshot))
        validate_bench = _load_tool("validate_bench")
        assert validate_bench.validate_file(path) == []


class TestPercentileOr:
    def test_percentile_returns_none_on_empty(self):
        assert percentile([], 50.0) is None
        assert percentile([4.0], 50.0) == 4.0

    def test_percentile_or_defaults_explicitly(self):
        assert percentile_or([], 50.0) == 0.0
        assert percentile_or([], 50.0, default=-1.0) == -1.0
        # The trap the helper exists for: a legitimate 0.0 percentile must
        # survive (``percentile(...) or default`` would replace it).
        assert percentile_or([0.0, 0.0], 99.0, default=-1.0) == 0.0

    def test_queue_metrics_from_no_samples(self):
        metrics = QueueMetrics.from_samples("idle", [], [])
        assert metrics.wait_p50_ns == 0.0
        assert metrics.wait_p99_ns == 0.0
        assert metrics.sojourn_p50_ns == 0.0
        assert metrics.sojourn_p99_ns == 0.0


# ---------------------------------------------------------------------
# The disabled path
# ---------------------------------------------------------------------
class TestDisabledPath:
    def test_observe_false_allocates_no_spans(self):
        before = Span.allocated
        frontend, metrics, _ = _run_service(observe=False)
        assert Span.allocated - before == 0
        assert frontend.obs.tracer is NULL_TRACER
        assert not frontend.obs.enabled
        assert metrics.completed > 0  # the run itself was real

    def test_null_tracer_hands_out_the_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", start_ns=1.0)
        assert span is NULL_SPAN
        assert span.child("nested") is NULL_SPAN
        assert span.set(key="value") is span  # chainable no-ops
        assert tracer.roots == []

    def test_resolve_observe(self):
        untraced = resolve_observe(False)
        assert untraced.tracer is NULL_TRACER and not untraced.enabled
        fresh = resolve_observe(True)
        assert fresh.enabled and fresh.tracer is not NULL_TRACER
        shared = Observer()
        assert resolve_observe(shared) is shared


# ---------------------------------------------------------------------
# Bit-exactness: observe=True changes nothing
# ---------------------------------------------------------------------
class TestBitExactness:
    @staticmethod
    def _same_ns(a, b):
        # Rejected records carry NaN timestamps; NaN == NaN is False.
        return a == b or (math.isnan(a) and math.isnan(b))

    @staticmethod
    def _same_ledger(plain_backend, traced_backend):
        """Counters and gauges are written with tracing off, too."""
        plain = plain_backend.obs.snapshot()
        traced = traced_backend.obs.snapshot()
        assert plain["counters"] and plain["gauges"]
        assert plain["counters"] == traced["counters"]
        assert plain["gauges"] == traced["gauges"]

    def _assert_runs_identical(self, plain, traced):
        """``plain``/``traced`` are (frontend, metrics, records) runs."""
        plain_frontend, plain_metrics, plain_records = plain
        traced_frontend, traced_metrics, traced_records = traced
        assert plain_metrics == traced_metrics
        self._same_ledger(plain_frontend, traced_frontend)
        assert len(plain_records) == len(traced_records)
        for a, b in zip(plain_records, traced_records):
            assert a.arrival_ns == b.arrival_ns
            assert self._same_ns(a.start_ns, b.start_ns)
            assert self._same_ns(a.finish_ns, b.finish_ns)
            assert a.admitted == b.admitted
            if a.value is None or b.value is None:
                assert a.value is None and b.value is None
            else:
                assert np.array_equal(a.value, b.value)

    def test_service_run_is_bit_exact_with_tracing_on(self):
        plain = _run_service(observe=False)
        traced = _run_service(observe=True)
        self._assert_runs_identical(plain, traced)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        depth=st.integers(min_value=2, max_value=12),
    )
    def test_service_bit_exactness_property(self, seed, depth):
        """Across seeds and shed pressure: tracing never perturbs the run."""
        plain = _run_service(observe=False, seed=seed, count=12, max_queue_depth=depth)
        traced = _run_service(observe=True, seed=seed, count=12, max_queue_depth=depth)
        self._assert_runs_identical(plain, traced)

    def test_cluster_run_is_bit_exact_with_tracing_on(self):
        def run(observe):
            rng = np.random.default_rng(6)
            cluster = ClusterFrontend(
                num_shards=2,
                engine_factory=_engine,
                policy=BatchPolicy(max_batch=3),
                observe=observe,
            )
            events = poisson_schedule(
                _scan_requests(rng, count=16), rate_per_s=4e6, seed=6
            )
            return (cluster, *_serve(cluster, events, name="cluster"))

        plain_cluster, plain_metrics, plain_records = run(False)
        traced_cluster, traced_metrics, traced_records = run(True)
        assert plain_metrics == traced_metrics
        self._same_ledger(plain_cluster, traced_cluster)
        for a, b in zip(plain_records, traced_records):
            assert a.arrival_ns == b.arrival_ns
            assert self._same_ns(a.finish_ns, b.finish_ns)
            assert np.array_equal(a.value, b.value)
        # Part spans were re-parented under each cluster root: no stray
        # shard-level "request" roots remain at the top level (batch and
        # plan spans legitimately stay as track-assigned roots).
        roots = traced_cluster.obs.tracer.roots
        assert any(r.name == "cluster_request" for r in roots)
        assert not any(r.name == "request" for r in roots)
        parts = [
            s
            for r in roots
            if r.name == "cluster_request"
            for s in r.walk()
            if s.name == "request"
        ]
        assert parts and all(p.attrs.get("shard") is not None for p in parts)


# ---------------------------------------------------------------------
# The recorded span trees and metrics
# ---------------------------------------------------------------------
class TestRecordedSpans:
    def test_completed_request_tree_shape(self):
        _, _, records = _run_service(observe=True)
        completed = [r for r in records if r.completed]
        assert completed
        record = completed[0]
        assert record.trace is not None
        names = [span.name for span in record.trace.walk()]
        assert names == ["request", "admission", "queue", "service"]
        assert record.trace.end_ns == record.finish_ns
        assert record.trace.attrs["status"] == "completed"
        service = record.trace.find("service")
        assert service.start_ns == record.start_ns
        assert service.end_ns == record.finish_ns

    def test_rejected_request_tree_and_counters(self):
        frontend, metrics, records = _run_service(observe=True, max_queue_depth=2)
        assert metrics.rejected > 0
        counters = frontend.obs.snapshot()["counters"]
        assert counters["frontend.offered"] == metrics.offered
        assert counters["frontend.completed"] == metrics.completed
        assert counters["frontend.rejected"] == metrics.rejected
        rejected = [r for r in records if not r.admitted]
        span = rejected[0].trace
        assert span.attrs["status"] == "rejected"
        assert span.attrs["reason"]
        admission = span.find("admission")
        assert admission.attrs["admitted"] is False

    def test_executor_lanes_become_tracks(self):
        frontend, _, _ = _run_service(observe=True)
        executor = frontend.executor
        expected = {str(key) for key in executor.active_bank_keys()}
        assert set(frontend.obs.tracer.tracks) == expected | {"host", "batches"}

    def test_session_exposes_trace_and_obs_snapshot(self):
        rng = np.random.default_rng(2)
        session = PimSession.over_service(engine=_engine(), observe=True)
        columns = [BitWeavingColumn(rng.integers(0, 64, size=300), 6) for _ in range(3)]
        futures = [session.scan(c, "less_than", 20) for c in columns]
        session.drain()
        for future in futures:
            assert future.trace is not None
            assert future.trace.name == "request"
            assert future.trace.attrs["session"] == session.name
            assert future.response().trace is future.trace
        report = session.report()
        assert report.obs is not None
        assert report.obs["counters"]["frontend.completed"] >= len(futures)

    def test_session_report_accounting_identical_on_and_off(self):
        import dataclasses

        def run(observe):
            rng = np.random.default_rng(5)
            session = PimSession.over_service(engine=_engine(), observe=observe)
            columns = [
                BitWeavingColumn(rng.integers(0, 64, size=300), 6) for _ in range(4)
            ]
            for column in columns:
                session.scan(column, "less_than", 30)
                session.scan(column, "between", 5, 50)
            session.drain()
            return session.report()

        plain = run(False)
        traced = run(True)
        assert plain.obs is None and traced.obs is not None
        # Everything but the snapshot itself is identical accounting.
        assert dataclasses.replace(traced, obs=None) == plain

    def test_untraced_session_reports_no_obs(self):
        session = PimSession.over_service(engine=_engine())
        rng = np.random.default_rng(2)
        column = BitWeavingColumn(rng.integers(0, 64, size=300), 6)
        future = session.scan(column, "less_than", 20)
        session.drain()
        assert future.trace is None
        assert session.report().obs is None


# ---------------------------------------------------------------------
# Perfetto export
# ---------------------------------------------------------------------
class TestPerfettoExport:
    def test_trace_validates_and_replays_busy_union(self, tmp_path):
        frontend, _, _ = _run_service(observe=True)
        path = write_trace(
            tmp_path / "TRACE_obs.json",
            frontend.obs.tracer,
            metrics=frontend.obs.metrics,
        )

        validate_bench = _load_tool("validate_bench")
        assert validate_bench.validate_file(path) == []

        payload = json.loads(path.read_text())
        events = payload["traceEvents"]

        # One track per bank lane, plus the host lane and the batch track.
        lane_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 0
        }
        expected = {str(k) for k in frontend.executor.active_bank_keys()}
        assert lane_names == expected | {"host", "batches"}

        # Replaying the exported exec intervals through a fresh busy-union
        # accumulator reproduces the scheduler's own accounting exactly:
        # place() added each placement's interval once, and re-covered
        # intervals contribute exactly 0.0.
        replay = LaneSchedule()
        for event in events:
            if event["ph"] == "X" and event["pid"] == 0 and event.get("cat") == "exec":
                replay._add_interval(
                    event["args"]["start_ns"], event["args"]["finish_ns"]
                )
        assert replay.busy_union_ns == frontend.executor.lanes.busy_union_ns

    def test_trace_event_envelope(self):
        frontend, _, _ = _run_service(observe=True)
        payload = build_trace(frontend.obs.tracer, metrics=frontend.obs.metrics)
        assert payload["displayTimeUnit"] == "ns"
        assert "metrics" in payload
        for event in payload["traceEvents"]:
            if event["ph"] != "X":
                continue
            # ts/dur are Perfetto microseconds of the exact ns in args.
            assert event["ts"] == pytest.approx(event["args"]["start_ns"] / 1e3)
            total = event["args"]["finish_ns"] - event["args"]["start_ns"]
            assert event["dur"] == pytest.approx(total / 1e3)

    def test_open_spans_are_skipped(self):
        tracer = Tracer()
        tracer.span("closed", start_ns=0.0, end_ns=10.0)
        tracer.span("open", start_ns=5.0)  # never ended
        names = [e["name"] for e in build_trace(tracer)["traceEvents"] if e["ph"] == "X"]
        assert names == ["closed #0"] or "closed" in " ".join(names)


# ---------------------------------------------------------------------
# The obs-wall-clock lint rule
# ---------------------------------------------------------------------
class TestObsWallClockLint:
    def test_clock_imports_flagged_inside_obs(self):
        lint = _load_tool("lint_invariants")
        findings = lint.lint_source(
            "import time\nimport datetime\n", "src/repro/obs/trace.py"
        )
        assert [f.rule for f in findings] == ["obs-wall-clock", "obs-wall-clock"]

    def test_datetime_allowed_outside_obs(self):
        lint = _load_tool("lint_invariants")
        findings = lint.lint_source(
            "import datetime\nimport time\n", "src/repro/service/executor.py"
        )
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_waiver_suppresses(self):
        lint = _load_tool("lint_invariants")
        source = "import time  # lint: allow[obs-wall-clock]\n"
        assert lint.lint_source(source, "src/repro/obs/export.py") == []

    def test_obs_package_is_clean(self):
        lint = _load_tool("lint_invariants")
        package = Path(__file__).resolve().parent.parent / "src" / "repro" / "obs"
        assert lint.collect_findings([package]) == []


# ---------------------------------------------------------------------
# Text renderers
# ---------------------------------------------------------------------
class TestRenderers:
    def test_lane_timeline_renders_tracks(self):
        frontend, _, _ = _run_service(observe=True)
        text = render_lane_timeline(frontend.obs.tracer)
        assert text.startswith("lane timeline:")
        for label in frontend.obs.tracer.tracks:
            assert label in text
        assert "█" in text and "%" in text

    def test_lane_timeline_empty(self):
        assert "no closed spans" in render_lane_timeline(Tracer())

    def test_span_tree_renders_depth_and_attrs(self):
        _, _, records = _run_service(observe=True)
        text = render_span_tree(next(r for r in records if r.completed).trace)
        lines = text.splitlines()
        assert lines[0].startswith("request")
        assert any(line.startswith("  ") for line in lines)  # indented children
        assert "status=completed" in text
