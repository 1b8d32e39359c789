"""Tests for the static verification layer (``repro.verify`` + tools).

Three checkers, each tested from both sides:

* **Plan linter** — real lowered conjunction chains pass; hand-built
  known-bad chains (cycle, double-produce, width mismatch, stale cost
  model, dropped predicate, broken scatter) are each rejected with their
  typed :class:`~repro.verify.errors.PlanVerifyError` subclass.
* **Schedule race detector** — honest lane schedules pass (pipelined and
  barrier, service and cluster, with ``sanitize=True`` live on every
  dispatch); tampered interval logs and accounting are each rejected
  with their typed :class:`~repro.verify.errors.ScheduleVerifyError`
  subclass, and the non-raising audit collects every finding.
* **Repo invariant lint / bench schema** — the committed tree is clean,
  a deliberately introduced mutable-default regression fails the lint
  (exit code 1, the CI gate), waivers suppress, and malformed
  ``BENCH_*.json`` payloads are rejected by the schema validator.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.ambit.bitvector import BulkBitVector
from repro.analysis import audit_cluster, audit_executor, render_audit
from repro.api.plans import lower_conjunction_steps
from repro.cluster import ClusterFrontend, ShardRouter
from repro.database.bitmap_index import BitmapIndex, BitmapPlan
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import ColumnTable
from repro.service import (
    ArrivalEvent,
    BatchExecutor,
    BitmapConjunctionRequest,
    LaneSchedule,
    ScanRequest,
    ServiceFrontend,
)
from repro.service.lanes import LanePlacement
from repro.verify import (
    AccountingError,
    CausalityError,
    ChainCycleError,
    CostModelMismatchError,
    DanglingOperandError,
    LaneHazardError,
    ScatterCoverageError,
    VerifyError,
    WidthMismatchError,
    check_scatter_coverage,
    check_schedule,
    lint_chain,
    lint_lowered_conjunction,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT_PATH = REPO_ROOT / "tools" / "lint_invariants.py"
VALIDATE_PATH = REPO_ROOT / "tools" / "validate_bench.py"


def _load_tool(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    # Registered before exec: dataclass processing resolves the module's
    # (PEP 563) annotations through sys.modules.
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    return module


lint_invariants = _load_tool(LINT_PATH)
validate_bench = _load_tool(VALIDATE_PATH)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def table() -> ColumnTable:
    rng = np.random.default_rng(7)
    table = ColumnTable("t", 300)
    table.add_column("region", rng.integers(0, 5, size=300))
    table.add_column("status", rng.integers(0, 3, size=300))
    table.add_column("tier", rng.integers(0, 6, size=300))
    return table


@pytest.fixture
def index(table: ColumnTable) -> BitmapIndex:
    return BitmapIndex(table, ["region", "status", "tier"])


PREDICATES = (("region", (1, 2)), ("status", (0, 1)), ("tier", (3,)))


def _lowered(index: BitmapIndex, predicates=PREDICATES, row_size_bytes: int = 8192):
    return lower_conjunction_steps(index, predicates, row_size_bytes=row_size_bytes)


# ----------------------------------------------------------------------
# Plan linter: clean chains pass
# ----------------------------------------------------------------------
class TestPlanLintClean:
    def test_real_lowered_chain_passes(self, index):
        steps, result, plan = _lowered(index)
        report = lint_lowered_conjunction(
            PREDICATES, steps, result, plan, num_rows=index.num_rows
        )
        assert report.steps == len(steps) == plan.total_operations
        assert report.op_counts == {"or": 2, "and": 2}
        # Sources: one bitmap plane per predicate value.
        assert report.sources == sum(len(values) for _c, values in PREDICATES)

    def test_zero_step_identity_chain_passes(self, index):
        predicates = (("tier", (3,)),)
        steps, result, plan = _lowered(index, predicates)
        assert steps == []
        report = lint_lowered_conjunction(
            predicates, steps, result, plan, num_rows=index.num_rows
        )
        assert report.steps == 0

    def test_row_size_pinning(self, index):
        steps, result, plan = _lowered(index, row_size_bytes=64)
        lint_chain(steps, result, plan, num_rows=index.num_rows, row_size_bytes=64)
        with pytest.raises(WidthMismatchError):
            lint_chain(steps, result, plan, num_rows=index.num_rows, row_size_bytes=8192)


# ----------------------------------------------------------------------
# Plan linter: known-bad chains are rejected with typed errors
# ----------------------------------------------------------------------
class TestPlanLintKnownBad:
    def test_cyclic_chain_rejected(self, index):
        steps, result, plan = _lowered(index)
        # Forward reference: first step consumes the last step's output.
        op, _a, b, out = steps[0]
        steps = [(op, steps[-1][3], b, out)] + steps[1:]
        with pytest.raises(ChainCycleError) as excinfo:
            lint_chain(steps, result, plan, num_rows=index.num_rows)
        assert excinfo.value.rule == "chain-cycle"
        assert excinfo.value.details["step"] == 0

    def test_self_consuming_step_rejected(self, index):
        steps, result, plan = _lowered(index)
        op, a, _b, out = steps[1]
        steps = steps[:1] + [(op, a, out, out)] + steps[2:]
        with pytest.raises(ChainCycleError):
            lint_chain(steps, result, plan, num_rows=index.num_rows)

    def test_double_produced_output_rejected(self, index):
        steps, result, plan = _lowered(index)
        op, a, b, _out = steps[1]
        steps = steps[:1] + [(op, a, b, steps[0][3])] + steps[2:]
        with pytest.raises(DanglingOperandError):
            lint_chain(steps, result, plan, num_rows=index.num_rows)

    def test_width_mismatch_rejected(self, index):
        steps, result, plan = _lowered(index)
        op, a, _b, out = steps[0]
        steps = [(op, a, BulkBitVector(index.num_rows + 64), out)] + steps[1:]
        with pytest.raises(WidthMismatchError) as excinfo:
            lint_chain(steps, result, plan, num_rows=index.num_rows)
        assert excinfo.value.rule == "width-mismatch"

    def test_stale_cost_model_rejected(self, index):
        steps, result, plan = _lowered(index)
        stale = BitmapPlan(
            operations=plan.operations + [("or", 1)], result_bits=plan.result_bits
        )
        with pytest.raises(CostModelMismatchError):
            lint_chain(steps, result, stale, num_rows=index.num_rows)

    def test_op_breakdown_mismatch_rejected(self, index):
        steps, result, plan = _lowered(index)
        # Same step count, different breakdown: one OR relabeled as AND.
        swapped = BitmapPlan(operations=[("or", 1), ("and", 3)], result_bits=plan.result_bits)
        assert swapped.total_operations == plan.total_operations
        with pytest.raises(CostModelMismatchError):
            lint_chain(steps, result, swapped, num_rows=index.num_rows)

    def test_dropped_predicate_rejected(self, index):
        # A lowering that silently dropped a predicate, paired with the
        # matching stale plan, passes lint_chain — the conjunction-level
        # check against the *predicate set* is what catches it.
        short = PREDICATES[:2]
        steps, result, plan = _lowered(index, short)
        with pytest.raises(CostModelMismatchError):
            lint_lowered_conjunction(PREDICATES, steps, result, plan, num_rows=index.num_rows)

    def test_wrong_result_vector_rejected(self, index):
        steps, _result, plan = _lowered(index)
        with pytest.raises(DanglingOperandError):
            lint_chain(steps, steps[0][3], plan, num_rows=index.num_rows)

    def test_errors_are_typed_verify_errors(self, index):
        steps, result, plan = _lowered(index)
        stale = BitmapPlan(operations=[], result_bits=plan.result_bits)
        with pytest.raises(VerifyError):
            lint_chain(steps, result, stale, num_rows=index.num_rows)


# ----------------------------------------------------------------------
# Scatter coverage
# ----------------------------------------------------------------------
class TestScatterCoverage:
    def test_exact_cover_passes(self):
        check_scatter_coverage(
            PREDICATES, [(0, PREDICATES[:1]), (1, PREDICATES[1:])]
        )

    def test_dropped_predicate_rejected(self):
        with pytest.raises(ScatterCoverageError) as excinfo:
            check_scatter_coverage(PREDICATES, [(0, PREDICATES[:2])])
        assert excinfo.value.details["missing"]

    def test_duplicated_predicate_rejected(self):
        with pytest.raises(ScatterCoverageError) as excinfo:
            check_scatter_coverage(
                PREDICATES, [(0, PREDICATES), (1, PREDICATES[:1])]
            )
        assert excinfo.value.details["duplicated"]

    def test_empty_part_rejected(self):
        with pytest.raises(ScatterCoverageError):
            check_scatter_coverage(PREDICATES, [(0, PREDICATES), (1, ())])


# ----------------------------------------------------------------------
# Schedule race detector: honest schedules pass
# ----------------------------------------------------------------------
def _honest_schedule() -> LaneSchedule:
    lanes = LaneSchedule(["a", "b"])
    lanes.open_batch()
    lanes.place(["a"], 100.0, release_ns=0.0)
    lanes.place(["b"], 60.0, release_ns=0.0)
    lanes.place(["a", "b"], 40.0, release_ns=0.0)
    lanes.open_batch()
    lanes.place(["b"], 30.0, release_ns=50.0)
    return lanes


class TestScheduleCheckClean:
    def test_honest_schedule_passes(self):
        report = check_schedule(_honest_schedule())
        assert report.ok
        assert report.placements == 4
        assert report.batches == 2
        assert report.lanes == 2

    def test_empty_schedule_passes(self):
        assert check_schedule(LaneSchedule(["a"])).ok

    def test_host_lane_and_multi_lane_requests_pass(self):
        lanes = LaneSchedule(["a", "b", "c"])
        lanes.open_batch()
        lanes.place(["host"], 10.0)
        lanes.place(["a", "b", "c"], 25.0)
        lanes.place(["host"], 5.0)
        assert check_schedule(lanes).ok


# ----------------------------------------------------------------------
# Schedule race detector: tampered logs/accounting are rejected
# ----------------------------------------------------------------------
def _tamper(lanes: LaneSchedule, position: int, **changes) -> LaneSchedule:
    lanes.log[position] = replace(lanes.log[position], **changes)
    return lanes


class TestScheduleCheckKnownBad:
    def test_overlapping_lane_intervals_rejected(self):
        lanes = _honest_schedule()
        # Pull the second lane-a placement into the first one's interval.
        _tamper(lanes, 2, start_ns=50.0, finish_ns=90.0)
        with pytest.raises(LaneHazardError) as excinfo:
            check_schedule(lanes)
        assert excinfo.value.rule == "lane-hazard"

    def test_start_before_release_rejected(self):
        lanes = LaneSchedule(["a"])
        lanes.open_batch()
        lanes.place(["a"], 10.0, release_ns=100.0)
        _tamper(lanes, 0, release_ns=200.0)
        with pytest.raises(CausalityError):
            check_schedule(lanes)

    def test_finish_latency_disagreement_rejected(self):
        lanes = LaneSchedule(["a"])
        lanes.open_batch()
        lanes.place(["a"], 10.0)
        _tamper(lanes, 0, finish_ns=25.0)
        with pytest.raises(CausalityError):
            check_schedule(lanes)

    def test_negative_latency_rejected(self):
        lanes = LaneSchedule(["a"])
        lanes.open_batch()
        lanes.place(["a"], 10.0)
        _tamper(lanes, 0, latency_ns=-10.0)
        with pytest.raises(CausalityError):
            check_schedule(lanes)

    def test_schedule_drift_rejected(self):
        lanes = _honest_schedule()
        # Unforced idle: the log claims a later start than the replay.
        last = lanes.log[-1]
        _tamper(lanes, 3, start_ns=last.start_ns + 500.0, finish_ns=last.finish_ns + 500.0)
        with pytest.raises(CausalityError) as excinfo:
            check_schedule(lanes)
        assert "drift" in str(excinfo.value)

    def test_busy_union_tamper_rejected(self):
        lanes = _honest_schedule()
        lanes.busy_union_ns += 7.0
        with pytest.raises(AccountingError):
            check_schedule(lanes)

    def test_per_lane_busy_tamper_rejected(self):
        lanes = _honest_schedule()
        lanes.busy["a"] += 3.0
        with pytest.raises(AccountingError) as excinfo:
            check_schedule(lanes)
        assert excinfo.value.details["lane"] == "a"

    def test_request_count_tamper_rejected(self):
        lanes = _honest_schedule()
        lanes.requests += 1
        with pytest.raises(AccountingError):
            check_schedule(lanes)

    def test_overlap_tamper_rejected_on_pipelined_schedule(self):
        lanes = _honest_schedule()
        lanes.batches = 2  # marks the schedule as persistent/pipelined
        lanes.cross_batch_overlap_ns = 123.0
        with pytest.raises(AccountingError):
            check_schedule(lanes)

    def test_collect_mode_gathers_all_findings(self):
        lanes = _honest_schedule()
        last = lanes.log[-1]
        _tamper(lanes, 3, start_ns=last.start_ns + 500.0, finish_ns=last.finish_ns + 500.0)
        report = check_schedule(lanes, raise_on_error=False)
        assert not report.ok
        rules = {v.rule for v in report.violations}
        # Drift, the barrier completion bound, and the horizon accounting
        # all disagree with the tampered entry.
        assert "causality" in rules and "accounting" in rules
        assert any("barrier bound" in str(v) for v in report.violations)

    def test_incremental_checker_flags_only_new_batches(self):
        from repro.verify import ScheduleSanitizer

        lanes = LaneSchedule(["a"])
        sanitizer = ScheduleSanitizer()
        lanes.open_batch()
        lanes.place(["a"], 10.0)
        assert sanitizer.check(lanes).ok
        lanes.open_batch()
        lanes.place(["a"], 10.0)
        lanes.log.append(
            LanePlacement(
                lanes=("a",), latency_ns=5.0, release_ns=0.0,
                start_ns=2.0, finish_ns=7.0, batch_index=2,
            )
        )
        with pytest.raises(LaneHazardError):
            sanitizer.check(lanes)


# ----------------------------------------------------------------------
# sanitize=True live on real workloads (service + cluster, both modes)
# ----------------------------------------------------------------------
def _workload(table: ColumnTable, index: BitmapIndex):
    column = BitWeavingColumn.from_table(table, "tier")
    events = []
    t = 0.0
    for i in range(10):
        events.append(
            ArrivalEvent(
                arrival_ns=t,
                request=ScanRequest(column=column, kind="less_equal", constants=(3,)),
            )
        )
        events.append(
            ArrivalEvent(
                arrival_ns=t,
                request=BitmapConjunctionRequest(index=index, predicates=PREDICATES),
            )
        )
        t += 400.0
    return events


class TestSanitizeKnob:
    @pytest.mark.parametrize("pipeline", [True, False])
    def test_service_tier_clean_under_sanitize(self, serve, table, index, pipeline):
        executor = BatchExecutor(pipeline=pipeline, sanitize=True)
        frontend = ServiceFrontend(executor=executor)
        report, records = serve(frontend, _workload(table, index))
        assert report.completed == 20
        # Same workload without the sanitizer: identical results (the
        # checker is read-only).
        baseline = ServiceFrontend(executor=BatchExecutor(pipeline=pipeline))
        _, expected = serve(baseline, _workload(table, index))
        for got, want in zip(records, expected):
            assert got.completed and want.completed
            assert np.array_equal(got.value, want.value)

    @pytest.mark.parametrize("pipeline", [True, False])
    def test_cluster_tier_clean_under_sanitize(self, serve, table, index, pipeline):
        cluster = ClusterFrontend(
            num_shards=3, router=ShardRouter(3), pipeline=pipeline, sanitize=True
        )
        report, records = serve(cluster, _workload(table, index))
        assert report.completed == 20
        for record in records:
            if isinstance(record.request, BitmapConjunctionRequest):
                expected, _ = index.evaluate_conjunction(list(record.request.predicates))
                assert np.array_equal(record.value, expected)

    def test_audit_report_over_sanitized_run(self, serve, table, index):
        executor = BatchExecutor(pipeline=True, sanitize=True)
        frontend = ServiceFrontend(executor=executor)
        serve(frontend, _workload(table, index))
        audit = audit_executor(executor)
        assert audit.ok and audit.report.placements == executor.lanes.requests
        rendered = render_audit([audit])
        assert "ok" in rendered and "executor" in rendered

    def test_audit_report_over_cluster(self, serve, table, index):
        cluster = ClusterFrontend(num_shards=2, sanitize=True)
        serve(cluster, _workload(table, index))
        audits = audit_cluster(cluster)
        assert len(audits) == 2 and all(a.ok for a in audits)

    def test_audit_collects_violations_without_raising(self):
        lanes = _honest_schedule()
        lanes.busy_union_ns += 11.0
        from repro.analysis import audit_schedule

        audit = audit_schedule(lanes, name="tampered")
        assert not audit.ok
        assert "violation" in render_audit([audit])


# ----------------------------------------------------------------------
# Repo invariant lint (tools/lint_invariants.py)
# ----------------------------------------------------------------------
class TestInvariantLint:
    def test_committed_tree_is_clean(self):
        findings = lint_invariants.collect_findings([REPO_ROOT / "src" / "repro"])
        assert findings == []

    def test_mutable_default_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Config:\n"
            "    items: list = []\n"
        )
        findings = lint_invariants.lint_source(source, "bad.py")
        assert [f.rule for f in findings] == ["mutable-default"]

    def test_shared_call_default_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Config:\n"
            "    stats: dict = dict()\n"
        )
        assert [f.rule for f in lint_invariants.lint_source(source, "bad.py")] == [
            "mutable-default"
        ]

    def test_field_default_factory_not_flagged(self):
        source = (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Config:\n"
            "    items: list = field(default_factory=list)\n"
            "    count: int = 0\n"
        )
        assert lint_invariants.lint_source(source, "good.py") == []

    def test_field_mutable_default_flagged(self):
        source = (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Config:\n"
            "    items: list = field(default=[])\n"
        )
        assert [f.rule for f in lint_invariants.lint_source(source, "bad.py")] == [
            "mutable-default"
        ]

    def test_wall_clock_imports_flagged(self):
        source = "import time\nfrom random import random\n"
        rules = [f.rule for f in lint_invariants.lint_source(source, "bad.py")]
        assert rules == ["wall-clock", "wall-clock"]

    def test_numpy_random_not_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert lint_invariants.lint_source(source, "good.py") == []

    def test_frozen_mutation_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Point:\n"
            "    x: int = 0\n"
            "    def move(self) -> None:\n"
            "        self.x = 1\n"
        )
        assert [f.rule for f in lint_invariants.lint_source(source, "bad.py")] == [
            "frozen-mutation"
        ]

    def test_object_setattr_idiom_not_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Point:\n"
            "    x: int = 0\n"
            "    def __post_init__(self) -> None:\n"
            "        object.__setattr__(self, 'x', 1)\n"
        )
        assert lint_invariants.lint_source(source, "good.py") == []

    def test_export_drift_flagged(self):
        source = "__all__ = ['missing', 'present', 'present']\npresent = 1\n"
        rules = sorted(f.rule for f in lint_invariants.lint_source(source, "bad.py"))
        assert rules == ["export-drift", "export-drift"]

    def test_waiver_suppresses(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Config:\n"
            "    items: list = []  # lint: allow[mutable-default]\n"
        )
        assert lint_invariants.lint_source(source, "waived.py") == []

    def test_cli_gate_fails_on_mutable_default_regression(self, tmp_path):
        # The acceptance criterion: a deliberately introduced
        # mutable-default regression fails the CI lint gate (exit 1) —
        # demonstrated here against a temp file, never committed.
        bad = tmp_path / "regression.py"
        bad.write_text(
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Runtime:\n"
            "    queues: dict = {}\n"
        )
        proc = subprocess.run(
            [sys.executable, str(LINT_PATH), str(bad)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "mutable-default" in proc.stdout

    def test_cli_clean_tree_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, str(LINT_PATH), str(REPO_ROOT / "src" / "repro")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


# ----------------------------------------------------------------------
# BENCH_*.json schema validation (tools/validate_bench.py)
# ----------------------------------------------------------------------
def _pipeline_payload() -> dict:
    mode = {
        "completed": 10, "rejected": 0, "batches": 2, "throughput_gb_s": 1.5,
        "sojourn_p50_us": 3.0, "sojourn_p99_us": 9.0, "makespan_ms": 0.5,
        "busy_ms": 0.4, "bank_idle_fraction": 0.2, "cross_batch_overlap_ms": 0.1,
    }
    return {
        "barrier": dict(mode),
        "pipelined": dict(mode),
        "pipelined_vs_barrier_throughput": 1.4,
    }


class TestBenchValidation:
    def test_valid_pipeline_payload_passes(self, tmp_path):
        path = tmp_path / "BENCH_pipeline.json"
        path.write_text(json.dumps(_pipeline_payload()))
        assert validate_bench.validate_file(path) == []

    def test_missing_field_rejected(self, tmp_path):
        payload = _pipeline_payload()
        del payload["pipelined"]["throughput_gb_s"]
        path = tmp_path / "BENCH_pipeline.json"
        path.write_text(json.dumps(payload))
        errors = validate_bench.validate_file(path)
        assert any("throughput_gb_s" in e for e in errors)

    def test_nan_rejected(self, tmp_path):
        payload = _pipeline_payload()
        payload["pipelined"]["busy_ms"] = float("nan")
        path = tmp_path / "BENCH_pipeline.json"
        path.write_text(json.dumps(payload))  # serializes as bare NaN
        errors = validate_bench.validate_file(path)
        assert errors and "non-finite" in errors[0]

    def test_wrong_type_rejected(self, tmp_path):
        payload = _pipeline_payload()
        payload["barrier"]["completed"] = "10"
        path = tmp_path / "BENCH_pipeline.json"
        path.write_text(json.dumps(payload))
        errors = validate_bench.validate_file(path)
        assert any("expected integer" in e for e in errors)

    def test_unknown_benchmark_gets_generic_sweep(self, tmp_path):
        path = tmp_path / "BENCH_novel.json"
        path.write_text('{"metric": 1.0}')
        assert validate_bench.validate_file(path) == []
        path.write_text('{"metric": Infinity}')
        assert validate_bench.validate_file(path)

    def test_emitted_benchmark_files_validate(self):
        # The repo-root BENCH files written by actual benchmark runs (when
        # present) must satisfy their schemas.
        emitted = sorted(REPO_ROOT.glob("BENCH_*.json"))
        for path in emitted:
            assert validate_bench.validate_file(path) == [], path
