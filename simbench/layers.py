"""The traced run: per-layer host time, call counts and modeled layer stats.

The program is not edited.  Instead, for the traced round only, the
benchmark replaces each layer's public entry points -- at the name callers
look them up by -- with a wrapper that records one span per call: boundary,
start, end, parent span and the request being submitted.  Functions that
callers import by name (the ``repro.verify`` lints) are replaced in every
``repro`` module holding them.  100k-call leaves such as
``lane_horizon_ns`` are deliberately not wrapped: their cost lands in the
caller's self time.  A boundary that no longer exists is skipped and
reported, so a change may delete a wrapped method.

A layer's self time is its spans' duration minus the time their child
spans cover.  Spans stay in memory and are written out, gzip-compressed,
when the round ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: (layer, module, class or None for module functions, entry points).
BOUNDARIES: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("api", "repro.api.session", "PimSession", ("submit", "drain", "report")),
    ("cluster", "repro.cluster.frontend", "ClusterFrontend", ("offer", "advance_to", "drain", "gather")),
    ("cluster", "repro.cluster.router", "ShardRouter", ("route", "route_any", "assign_scatter")),
    ("cluster", "repro.cluster.controller", "ElasticController", ("run_due",)),
    ("frontend", "repro.service.frontend", "ServiceFrontend", ("offer", "advance_to", "drain", "serve_batch")),
    (
        "planner",
        "repro.service.planner",
        "BatchPlanner",
        ("should_close", "next_close_ns", "urgent_close", "lower_batch", "modeled_latency_ns"),
    ),
    ("optimizer", "repro.optimizer.passes", "BatchOptimizer", ("lower_conjunction", "commit_fills", "invalidate_writes")),
    ("cache", "repro.cache.result_cache", "ResultCache", ("get", "put", "invalidate_columns")),
    ("storage", "repro.storage.maintenance", "MaintenancePolicy", ("lower_write",)),
    ("executor", "repro.service.executor", "BatchExecutor", ("run",)),
    ("lanes", "repro.service.lanes", "LaneSchedule", ("place",)),
    ("ambit", "repro.ambit.engine", "AmbitEngine", ("op_cost",)),
    ("verify", "repro.verify.schedule_check", "ScheduleSanitizer", ("check",)),
    ("verify", "repro.verify.schedule_check", None, ("check_schedule",)),
    (
        "verify",
        "repro.verify.plan_lint",
        None,
        (
            "lint_chain",
            "lint_lowered_conjunction",
            "lint_optimized_batch",
            "check_scatter_coverage",
            "check_write_scatter",
            "check_failover_reoffer",
            "lint_write_plan",
            "lint_cache_consistency",
        ),
    ),
    ("obs", "repro.obs.trace", "Tracer", ("span", "adopt")),
    ("obs", "repro.obs.metrics", "MetricsRegistry", ("counter", "gauge", "histogram")),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _, _ in BOUNDARIES))


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    """A wrapped call's argument, passed by position or by keyword."""
    return args[position] if len(args) > position else kwargs[name]


class SpanRecorder:
    """Wraps the boundaries and keeps one span per call in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        #: (boundary id, start ns, end ns, parent span index, request).
        self.spans: List[Optional[Tuple[int, int, int, int, int]]] = []
        #: Event position being submitted (-1 outside the submit loop).
        self.request = -1
        self.skipped: List[str] = []
        self.op_cost_args: set = set()
        self.lowered_ops = 0
        self.write_outcomes: List[Any] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.wall_ns = 0
        self._installed_at = 0

    # -- wrapping ---------------------------------------------------------
    def _wrap(
        self,
        boundary: int,
        fn: Callable,
        when: Optional[Callable[[tuple], bool]] = None,
        note: Optional[Callable[[tuple, dict, Any], None]] = None,
    ) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (boundary, start, end, parent, self.request)
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def _hooks(self, name: str) -> Dict[str, Callable]:
        """Per-boundary extras: argument statistics and enablement."""
        if name == "Tracer.span" or name == "Tracer.adopt":
            # A disabled tracer does no obs work; only recording planes count.
            return {"when": lambda args: args[0].enabled}
        if name == "AmbitEngine.op_cost":
            return {
                "note": lambda args, kwargs, result: self.op_cost_args.add(
                    (_arg(args, kwargs, 1, "op"), _arg(args, kwargs, 2, "num_rows"))
                )
            }
        if name == "BatchOptimizer.lower_conjunction":
            return {
                "note": lambda args, kwargs, result: self._note_lowered(
                    _arg(args, kwargs, 1, "queued").request
                )
            }
        if name == "MaintenancePolicy.lower_write":
            return {"note": lambda args, kwargs, result: self.write_outcomes.append(result)}
        return {}

    def _note_lowered(self, request: Any) -> None:
        predicates = request.predicates
        self.lowered_ops += sum(len(values) - 1 for _, values in predicates) + len(predicates) - 1

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    def install(self) -> None:
        for layer, module_name, class_name, entries in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.skipped.extend(f"{module_name}.{entry}" for entry in entries)
                continue
            owner = getattr(module, class_name, None) if class_name else module
            for entry in entries:
                name = f"{class_name}.{entry}" if class_name else entry
                original = getattr(owner, entry, None) if owner is not None else None
                if original is None:
                    self.skipped.append(f"{module_name}.{name}")
                    continue
                boundary = len(self.names)
                self.names.append(name)
                self.layer_of.append(layer)
                wrapper = self._wrap(boundary, original, **self._hooks(name))
                if class_name:
                    targets = [owner]
                else:
                    # Callers that imported the function by name hold their
                    # own reference: replace it wherever it is bound.
                    targets = [
                        m
                        for key, m in list(sys.modules.items())
                        if key.startswith("repro") and getattr(m, entry, None) is original
                    ]
                for target in targets:
                    self._patches.append((target, entry, original))
                    setattr(target, entry, wrapper)
        self._installed_at = time.perf_counter_ns()

    def uninstall(self) -> None:
        self.wall_ns = time.perf_counter_ns() - self._installed_at
        for target, entry, original in reversed(self._patches):
            setattr(target, entry, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------
    def self_times(self) -> Tuple[np.ndarray, np.ndarray]:
        """(self ns, calls) per boundary id."""
        count = len(self.names)
        if not self.spans:
            return np.zeros(count), np.zeros(count, dtype=np.int64)
        table = np.array(self.spans, dtype=np.int64)
        boundary, start, end, parent = table[:, 0], table[:, 1], table[:, 2], table[:, 3]
        duration = end - start
        covered = np.zeros(len(table), dtype=np.int64)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        self_ns = np.bincount(boundary, weights=duration - covered, minlength=count)
        calls = np.bincount(boundary, minlength=count)
        return self_ns, calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "boundaries": [f"{layer}:{name}" for layer, name in zip(self.layer_of, self.names)],
            "columns": ["boundary", "start_ns", "end_ns", "parent", "request"],
            "spans": self.spans,
            "skipped": self.skipped,
        }
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _executors(backend: Any) -> List[Any]:
    if hasattr(backend, "shards"):
        return [shard.executor for shard in backend.shards]
    return [backend.executor]


def _frontends(backend: Any) -> List[Any]:
    return list(backend.shards) if hasattr(backend, "shards") else [backend]


def layer_metrics(recorder: SpanRecorder, served: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of a traced round."""
    self_ns, calls = recorder.self_times()
    by_name = {name: i for i, name in enumerate(recorder.names)}

    def self_us(*names: str) -> float:
        return sum(self_ns[by_name[n]] for n in names if n in by_name) / 1e3

    def count(*names: str) -> int:
        return int(sum(calls[by_name[n]] for n in names if n in by_name))

    def per(value: float, base: float) -> float:
        return value / base if base else 0.0

    session = served["round"].session
    backend = session.backend
    report = served["report"]
    offered = len(served["futures"])
    frontends = _frontends(backend)
    batches = sum(len(f.batches) for f in frontends)
    writes = count("MaintenancePolicy.lower_write")
    outcomes = recorder.write_outcomes
    cluster = getattr(backend, "elastic_summary", None)
    elastic = cluster() if cluster is not None else {}
    lanes = [e.lane_metrics() for e in _executors(backend)]
    caches = [f.cache for f in frontends if f.cache is not None]
    hits, misses = report.cache_hits, report.cache_misses
    details = report.details
    op_calls = count("AmbitEngine.op_cost")
    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_calls = {layer: 0 for layer in LAYERS}
    for i, layer in enumerate(recorder.layer_of):
        layer_self[layer] += self_ns[i]
        layer_calls[layer] += int(calls[i])
    verify = [n for n, layer in zip(recorder.names, recorder.layer_of) if layer == "verify"]
    obs = [n for n, layer in zip(recorder.names, recorder.layer_of) if layer == "obs"]

    metrics = {
        "api.submit.self_us_per_req": per(self_us("PimSession.submit"), offered),
        "api.report.self_ms": self_us("PimSession.report") / 1e3,
        "cluster.offer.self_us_per_req": per(self_us("ClusterFrontend.offer"), offered),
        "cluster.advance.self_us_per_req": per(
            self_us("ClusterFrontend.advance_to", "ClusterFrontend.drain"), offered
        ),
        "cluster.gather.self_us_per_req": per(self_us("ClusterFrontend.gather"), offered),
        "cluster.router.calls_per_req": per(
            count("ShardRouter.route", "ShardRouter.route_any", "ShardRouter.assign_scatter"), offered
        ),
        "cluster.controller.self_ms": self_us("ElasticController.run_due") / 1e3,
        "cluster.fanout_mean": getattr(details, "cross_shard_fanout", 0.0),
        "cluster.imbalance": getattr(details, "imbalance", 0.0),
        "cluster.host_merge_us": report.host_merge_ns / 1e3 if session.tier == "cluster" else 0.0,
        "cluster.failovers": elastic.get("failovers", 0),
        "cluster.shards_joined": elastic.get("shards_joined", 0),
        "frontend.offer.self_us_per_req": per(self_us("ServiceFrontend.offer"), offered),
        "frontend.advance.self_us_per_req": per(
            self_us("ServiceFrontend.advance_to", "ServiceFrontend.drain"), offered
        ),
        "frontend.serve_batch.self_us_per_batch": per(self_us("ServiceFrontend.serve_batch"), batches),
        "frontend.batches": batches,
        "frontend.wait_p99_us": report.wait_p99_ns / 1e3,
        "frontend.deadline_misses": report.deadline_misses,
        "planner.close.self_us_per_req": per(
            self_us("BatchPlanner.should_close", "BatchPlanner.next_close_ns"), offered
        ),
        "planner.urgent_close.self_us_per_req": per(self_us("BatchPlanner.urgent_close"), offered),
        "planner.urgent_close.calls": count("BatchPlanner.urgent_close"),
        "planner.lower_batch.self_us_per_batch": per(self_us("BatchPlanner.lower_batch"), batches),
        "planner.modeled_latency.self_us_per_req": per(
            self_us("BatchPlanner.modeled_latency_ns"), offered
        ),
        "optimizer.lower.self_us_per_req": per(
            self_us(
                "BatchOptimizer.lower_conjunction",
                "BatchOptimizer.commit_fills",
                "BatchOptimizer.invalidate_writes",
            ),
            offered,
        ),
        "optimizer.ops_eliminated": report.ops_eliminated,
        "optimizer.ops_eliminated_ratio": per(report.ops_eliminated, recorder.lowered_ops),
        "optimizer.shared_subchains": report.shared_subchains,
        "cache.self_us_per_req": per(
            self_us("ResultCache.get", "ResultCache.put", "ResultCache.invalidate_columns"), offered
        ),
        "cache.hit_ratio": per(hits, hits + misses),
        "cache.invalidations": report.cache_invalidations,
        "cache.live_bytes_end": sum(c.live_bytes for c in {id(c): c for c in caches}.values()),
        "storage.lower_write.self_us_per_write": per(self_us("MaintenancePolicy.lower_write"), writes),
        "storage.planes_charged_per_write": per(sum(o.planes_charged for o in outcomes), len(outcomes)),
        "storage.bytes_moved_per_write": per(sum(o.bytes_moved for o in outcomes), len(outcomes)),
        "executor.run.self_us_per_batch": per(self_us("BatchExecutor.run"), batches),
        "executor.utilization": (
            details.mean_utilization
            if hasattr(details, "mean_utilization")
            else per(report.busy_ns, report.makespan_ns)
        ),
        "lanes.place.calls": count("LaneSchedule.place"),
        "lanes.bank_idle_fraction": sum(l.bank_idle_fraction for l in lanes) / len(lanes),
        "lanes.cross_batch_overlap_us": sum(l.cross_batch_overlap_ns for l in lanes) / 1e3,
        "ambit.op_cost.calls_per_req": per(op_calls, offered),
        "ambit.op_cost.self_us_per_req": per(self_us("AmbitEngine.op_cost"), offered),
        "ambit.op_cost.distinct_ratio": per(len(recorder.op_cost_args), op_calls),
        "verify.self_us_per_req": per(self_us(*verify), offered),
        "verify.calls": count(*verify),
        "obs.self_us_per_req": per(self_us(*obs), offered),
        "obs.adopt.self_us_per_call": per(self_us("Tracer.adopt"), count("Tracer.adopt")),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = per(layer_self[layer], recorder.wall_ns)
        if layer not in ("verify", "lanes"):
            metrics[f"{layer}.calls"] = layer_calls[layer]
    return {name: float(value) for name, value in metrics.items()}
