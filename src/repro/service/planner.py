"""The batch planner: shapes batches and lowers high-level work.

:class:`BatchPlanner` is the second stage of the service pipeline
(frontend → planner → executor).  It owns two decisions:

* **When a batch closes.**  :meth:`BatchPlanner.should_close` applies the
  :class:`BatchPolicy`: close when enough requests are queued (size), when
  the oldest admitted request has waited long enough (time window), or
  when a queued deadline would be missed unless service starts now
  (deadline urgency).
* **What the executor sees.**  :meth:`BatchPlanner.lower_batch` turns the
  queued envelopes into primitive requests the executor understands.
  Primitives pass through unchanged; high-level requests are *lowered* —
  a :class:`~repro.service.requests.BitmapConjunctionRequest` becomes the
  OR/AND chain of :class:`~repro.service.requests.BulkOpRequest` steps
  produced by :func:`~repro.api.plans.lower_conjunction_steps`, pinned to
  one bank offset so the data-dependent chain serializes on its banks.

The executor orders the lowered batch longest-first (LPT) before bank
assignment; the planner deliberately leaves intra-batch ordering to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple, Union

from repro.analysis.metrics import OperationMetrics, combine_serial
from repro.service.executor import BatchExecutor
from repro.service.requests import (
    BitmapConjunctionRequest,
    BulkOpRequest,
    CopyRequest,
    FrontendRequest,
    QueuedRequest,
    RequestResult,
    ScanRequest,
    ServiceRequest,
)
from repro.storage.maintenance import MaintenancePolicy, WriteOutcome, resolve_maintenance
from repro.storage.requests import is_write_request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.result_cache import ResultCache
    from repro.optimizer.passes import BatchOptimizer, OptimizerConfig


@dataclass
class BatchPolicy:
    """When the planner closes the next batch.

    Attributes:
        max_batch: Close as soon as this many requests are queued (also the
            hard cap on batch size).
        window_ns: Close when the oldest queued request has waited this
            long, even if the batch is not full.  None disables the window
            (the frontend still closes on stream end).
        urgency_slack_ns: Close when a queued request's deadline minus its
            modeled service latency is within this slack of the current
            time — the last moment service can start without missing it.
            None disables urgency-driven closing.
        horizon_urgency: Price urgency from the *lanes' busy horizons*
            rather than from "now": under deep pipelining a request's
            service cannot start before its modeled banks drain, so a
            deadline that looks comfortable from the current clock may
            already be at risk.  Fires only inside the savable window —
            when the banks' horizon lands within ``urgency_slack_ns``
            below the latest viable start — so it never degenerates into
            closing every batch early under overload.
    """

    max_batch: int = 32
    window_ns: Optional[float] = None
    urgency_slack_ns: Optional[float] = 0.0
    horizon_urgency: bool = True

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")


@dataclass
class LoweredGroup:
    """Bookkeeping of one queued request lowered into primitive steps.

    Attributes:
        queued: The envelope the group came from.
        indices: Positions of the group's primitives in the lowered batch
            (empty for a zero-operation request, e.g. a single-bitmap
            conjunction).
        finalize: Maps the group's :class:`RequestResult` list to the
            envelope's result value.
        zero_cost_metrics: Metrics to attribute when ``indices`` is empty.
        dep_indices: Positions of *other* requests' primitives this group
            consumes (CSE'd sub-chains); they bound the group's finish
            time but are never charged to it.
        host_merge_ns: Host-side merge-tree cost added to the group's
            finish time (split-mode cross-predicate join).
        host_join_ops: Host AND ops the split-mode join performs.
        ops_eliminated: Device ops the optimizer removed from this
            request's unoptimized plan total.
        shared_subchains: Sub-chains this request consumed from (or
            shared with) another request of the batch.
        cache_hits: Sub-chains (or whole conjunctions) served from the
            cross-batch result cache.
        cache_misses: Result-cache lookups that missed.
        cache_invalidations: Cached bitmaps this (write) request dropped.
        write_outcome: The maintenance outcome of a lowered write request
            (strategy attribution, charged planes; None for reads).
        rebuild_columns: Lazily-maintained columns this read repaired
            (their rebuild charge rides in ``indices``).
    """

    queued: QueuedRequest
    indices: List[int]
    finalize: Callable[[List[RequestResult]], Any]
    zero_cost_metrics: Optional[OperationMetrics] = None
    dep_indices: List[int] = field(default_factory=list)
    host_merge_ns: float = 0.0
    host_join_ops: int = 0
    ops_eliminated: int = 0
    shared_subchains: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    write_outcome: Optional[WriteOutcome] = None
    rebuild_columns: Tuple[str, ...] = ()


class BatchPlanner:
    """Shapes batches by policy and lowers high-level requests.

    Args:
        executor: The executor the plans target (its latency model drives
            LPT ordering, deadline urgency, and admission backlog).
        policy: Batch-closing policy (defaults to size-32, urgency on).
        optimize: Enable the batch plan optimizer: ``True`` for the
            default :class:`~repro.optimizer.OptimizerConfig` (CSE and
            sub-chain splitting on), or an explicit config.  ``False``
            (the default) lowers every conjunction in isolation, exactly
            as before the optimizer existed.
        maintenance: :class:`~repro.storage.MaintenancePolicy` (or a
            strategy name) governing how writes keep the bitmap planes
            consistent.  Defaults to eager — always-consistent planes.
        result_cache: Cross-batch :class:`~repro.cache.ResultCache` the
            optimizer consults and fills, and writes invalidate through
            this planner.  Requires the optimizer (the consult pass
            lives there); the frontend turns it on when a cache is set.
    """

    def __init__(
        self,
        executor: BatchExecutor,
        policy: Optional[BatchPolicy] = None,
        optimize: Union[bool, "OptimizerConfig"] = False,
        maintenance: Union[None, str, MaintenancePolicy] = None,
        result_cache: Optional["ResultCache"] = None,
    ) -> None:
        self.executor = executor
        self.policy = policy or BatchPolicy()
        self.maintenance = resolve_maintenance(maintenance)
        self.result_cache = result_cache
        self.optimizer: Optional["BatchOptimizer"] = None
        if optimize or result_cache is not None:
            from repro.optimizer.passes import (  # local: avoid cycle
                BatchOptimizer,
                OptimizerConfig,
            )

            if isinstance(optimize, OptimizerConfig):
                config = optimize
            elif result_cache is not None and not optimize:
                # Cache-driven auto-enable: unsplit lowering, so whole
                # conjunctions are cacheable under one canonical key.
                config = OptimizerConfig(split_subchains=False)
            else:
                config = None
            self.optimizer = BatchOptimizer(config, result_cache=result_cache)
        #: High-level requests lowered across the planner's lifetime.
        self.lowered_requests = 0

    # ------------------------------------------------------------------
    # Latency model (includes high-level requests)
    # ------------------------------------------------------------------
    def modeled_latency_ns(self, request: FrontendRequest) -> float:
        """Sequential-execution latency of any frontend request."""
        if isinstance(request, BitmapConjunctionRequest):
            return self._conjunction_latency_ns(request)
        if is_write_request(request):
            return self.maintenance.modeled_write_ns(request, self.executor)
        return self.executor.modeled_latency_ns(request)

    def _conjunction_latency_ns(self, request: BitmapConjunctionRequest) -> float:
        engine = self.executor.engine
        ops = sum(len(values) - 1 for _, values in request.predicates)
        ands = len(request.predicates) - 1
        rows = self._conjunction_rows(request)
        return (
            ops * engine.op_cost("or", rows).latency_ns
            + ands * engine.op_cost("and", rows).latency_ns
        )

    def _conjunction_rows(self, request: BitmapConjunctionRequest) -> int:
        vector_bytes = (request.index.num_rows + 7) // 8
        row_size = self.executor.engine.device.geometry.row_size_bytes
        return max(1, -(-vector_bytes // row_size))

    def modeled_banks(self, request: FrontendRequest) -> List:
        """Bank keys any frontend request is modeled to occupy.

        A lowered conjunction's whole chain is pinned to its index's stable
        offset, so the chain charges the same banks it will serialize on.
        Under the optimizer's sub-chain splitting the chain fans out over
        offsets chosen at lowering time, so conjunctions are unpinned
        (empty list) — the frontend falls back to global backlog.
        """
        if isinstance(request, BitmapConjunctionRequest):
            if self.optimizer is not None and self.optimizer.config.split_subchains:
                return []
            return self.executor.span_banks(
                self._conjunction_rows(request), self.executor.stable_offset(request.index)
            )
        if is_write_request(request):
            return self.maintenance.modeled_write_banks(request, self.executor)
        return self.executor.modeled_banks(request)

    # ------------------------------------------------------------------
    # Batch closing
    # ------------------------------------------------------------------
    def should_close(self, queued: List[QueuedRequest], now_ns: float) -> bool:
        """Does the policy call for closing a batch right now?"""
        if not queued:
            return False
        if len(queued) >= self.policy.max_batch:
            return True
        if self.policy.window_ns is not None:
            oldest = min(q.arrival_ns for q in queued)
            if now_ns - oldest >= self.policy.window_ns:
                return True
        if self.policy.urgency_slack_ns is not None:
            for q in queued:
                if q.deadline_ns is None:
                    continue
                latest_start = q.deadline_ns - q.modeled_ns
                if latest_start <= now_ns + self.policy.urgency_slack_ns:
                    return True
        if self.urgent_close(queued, now_ns):
            return True
        return False

    def _lane_pressure_ns(self, q: QueuedRequest, now_ns: float) -> float:
        """Earliest instant the lanes could start serving ``q``.

        The latest busy horizon over the request's modeled banks (its
        service cannot start before its pinned banks drain), or the
        executor's global ready instant when the request is unpinned.
        Never before "now"; always "now" for a barrier executor, whose
        lanes carry no state across batches.
        """
        banks = q.modeled_banks
        if banks:
            pressure = max(self.executor.lane_horizon_ns(key) for key in banks)
        else:
            pressure = self.executor.ready_ns()
        return max(now_ns, pressure)

    def urgent_close(self, queued: List[QueuedRequest], now_ns: float) -> bool:
        """Is some queued deadline at risk *given the lanes' horizons*?

        Prices the latest viable service start against where the
        request's banks are actually busy until, not against "now": true
        exactly when a deadline is still savable but will be missed
        unless the batch closes and dispatches immediately (the banks'
        pressure has entered the ``urgency_slack_ns`` window below the
        latest viable start).  The frontend treats such a close as
        *urgent* — it bypasses the pipelined dispatch gate so the
        endangered request reaches its lane without queueing behind a
        whole extra batch.
        """
        if not self.policy.horizon_urgency or self.policy.urgency_slack_ns is None:
            return False
        slack = self.policy.urgency_slack_ns
        for q in queued:
            if q.deadline_ns is None:
                continue
            latest_start = q.deadline_ns - q.modeled_ns
            pressure = self._lane_pressure_ns(q, now_ns)
            if latest_start - slack <= pressure <= latest_start:
                return True
        return False

    def next_close_ns(self, queued: List[QueuedRequest], now_ns: float) -> float:
        """Earliest future instant the policy will close a batch (inf if
        only size or stream end can close it).  The frontend's virtual
        clock wakes here when no arrival comes sooner."""
        next_close = math.inf
        if not queued:
            return next_close
        if self.policy.window_ns is not None:
            oldest = min(q.arrival_ns for q in queued)
            next_close = min(next_close, oldest + self.policy.window_ns)
        if self.policy.urgency_slack_ns is not None:
            for q in queued:
                if q.deadline_ns is None:
                    continue
                next_close = min(
                    next_close,
                    q.deadline_ns - q.modeled_ns - self.policy.urgency_slack_ns,
                )
        return next_close

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def lower_batch(
        self, batch: List[QueuedRequest]
    ) -> Tuple[List[ServiceRequest], List[LoweredGroup]]:
        """Lower a closed batch into primitives plus result bookkeeping.

        With the optimizer enabled, every conjunction of the batch lowers
        into one shared step DAG (cross-request CSE, sub-chain
        splitting); under ``sanitize=True`` the DAG is certified by
        :func:`repro.verify.plan_lint.lint_optimized_batch` before the
        executor sees a single step.
        """
        primitives: List[ServiceRequest] = []
        groups: List[LoweredGroup] = []
        if self.optimizer is not None:
            self.optimizer.open_batch(self.executor)
        for queued in batch:
            request = queued.request
            if isinstance(request, BitmapConjunctionRequest):
                # Hotness + lazy-repair bookkeeping must precede the
                # lowering: pulling the bitmaps cleans dirty columns as a
                # side effect, so the rebuild charge is decided first.
                columns = [column for column, _values in request.predicates]
                self.maintenance.note_read(columns)
                pending = self.maintenance.pending_rebuilds(request.index, columns)
                if self.optimizer is not None:
                    self.lowered_requests += 1
                    group = self.optimizer.lower_conjunction(queued, primitives)
                else:
                    group = self._lower_conjunction(queued, primitives)
                if pending:
                    self._charge_rebuilds(group, pending, primitives)
                groups.append(group)
            elif is_write_request(request):
                self.lowered_requests += 1
                groups.append(self._lower_write(queued, primitives))
            elif isinstance(request, (BulkOpRequest, ScanRequest, CopyRequest)):
                primitives.append(request)
                groups.append(
                    LoweredGroup(
                        queued=queued,
                        indices=[len(primitives) - 1],
                        finalize=lambda results: results[0].value,
                    )
                )
            else:
                raise TypeError(f"unknown request type {type(request).__name__}")
        if self.optimizer is not None and getattr(self.executor, "sanitize", False):
            self.optimizer.lint_batch(
                row_size_bytes=self.executor.engine.device.geometry.row_size_bytes
            )
        return primitives, groups

    def commit_cache_fills(self) -> int:
        """Park the executed batch's finished bitmaps in the result cache
        (no-op without one).  The frontend calls this *after* the
        executor ran the batch — the step vectors hold result data only
        post-execution."""
        if self.optimizer is None:
            return 0
        return self.optimizer.commit_fills()

    def _charge_rebuilds(
        self, group: LoweredGroup, columns: List[str], primitives: List[ServiceRequest]
    ) -> None:
        """Charge lazily-deferred column rebuilds into the reading group.

        The read that repaired a dirty column pays for the repair: one
        bulk op per rebuilt plane plus the column-scan traffic, appended
        to the group's own primitives (they execute on the index's lanes
        and extend the group's finish time).  The optimizer's batch lint
        never sees these — they are charge accounting, not DAG steps.
        """
        for column in columns:
            for primitive in self.maintenance.rebuild_charge(
                group.queued.request.index, column, self.executor
            ):
                primitives.append(primitive)
                group.indices.append(len(primitives) - 1)
        group.rebuild_columns = tuple(columns)

    def _lower_write(
        self, queued: QueuedRequest, primitives: List[ServiceRequest]
    ) -> LoweredGroup:
        """Lower one write: apply the mutation *now* (lowering runs in
        queue order, so reads lowered later in the batch see the post-
        write planes — sequential consistency within a batch), invalidate
        the result cache, and emit the maintenance charge."""
        request = queued.request
        outcome = self.maintenance.lower_write(request, self.executor)
        invalidated = 0
        if self.result_cache is not None:
            if outcome.invalidate_all:
                invalidated = self.result_cache.invalidate_index(request.index)
            else:
                invalidated = self.result_cache.invalidate_columns(
                    request.index, outcome.invalidate_columns
                )
        if self.optimizer is not None:
            # The batch-local CSE table shares result vectors too: drop
            # the entries this write's footprint covers so reads lowered
            # later in the batch re-emit from the mutated planes.
            self.optimizer.invalidate_writes(
                request.index,
                columns=outcome.invalidate_columns,
                invalidate_all=outcome.invalidate_all,
            )
        if getattr(self.executor, "sanitize", False):
            from repro.verify.plan_lint import (  # local: avoid cycle
                lint_cache_consistency,
                lint_write_plan,
            )

            # Certify the maintenance charge against the declared outcome,
            # then (cache on) that no stale entry survived the invalidation.
            lint_write_plan(outcome)
            if self.result_cache is not None:
                lint_cache_consistency(self.result_cache, request.index)
        indices: List[int] = []
        for primitive in outcome.primitives:
            primitives.append(primitive)
            indices.append(len(primitives) - 1)
        rows_affected = outcome.rows_affected

        def finalize(results: List[RequestResult]) -> Any:
            return rows_affected

        zero_cost = None
        if not indices:
            # Pure-lazy write of zero rows (or all maintenance deferred
            # and no traffic): nothing runs now, nothing is charged now.
            zero_cost = OperationMetrics(
                name=f"storage_{request.kind}",
                latency_ns=0.0,
                energy_j=0.0,
                bytes_produced=0,
                notes="deferred maintenance",
            )
        return LoweredGroup(
            queued=queued,
            indices=indices,
            finalize=finalize,
            zero_cost_metrics=zero_cost,
            cache_invalidations=invalidated,
            write_outcome=outcome,
        )

    def _lower_conjunction(
        self, queued: QueuedRequest, primitives: List[ServiceRequest]
    ) -> LoweredGroup:
        from repro.api.plans import lower_conjunction_steps  # local: avoid cycle

        request = queued.request
        index = request.index
        # One lowering path for every tier: the shared plan IR expands the
        # chain identically whether `index` is a full BitmapIndex (service
        # tier) or a shard view (each cluster shard).
        steps, result_vector, plan = lower_conjunction_steps(
            index,
            request.predicates,
            # The executor charges each step from the vectors' row-chunk
            # count: lower at the device's row size or the analytical cost
            # diverges from the plan-level model (and the functional path).
            row_size_bytes=self.executor.engine.device.geometry.row_size_bytes,
        )
        if getattr(self.executor, "sanitize", False):
            from repro.verify.plan_lint import lint_lowered_conjunction  # local: avoid cycle

            # Certify the lowered chain statically before any step
            # executes: topology, widths, and cost-model agreement.
            lint_lowered_conjunction(
                request.predicates,
                steps,
                result_vector,
                plan,
                num_rows=index.num_rows,
                row_size_bytes=self.executor.engine.device.geometry.row_size_bytes,
            )
        self.lowered_requests += 1
        offset = self.executor.stable_offset(index)
        indices: List[int] = []
        for op, a, b, out in steps:
            primitives.append(BulkOpRequest(op=op, a=a, b=b, out=out, bank_offset=offset))
            indices.append(len(primitives) - 1)
        packed_bytes = (index.num_rows + 7) // 8

        def finalize(results: List[RequestResult]) -> Any:
            return result_vector.data[:packed_bytes].copy()

        zero_cost = None
        if not indices:
            # Single-value single-predicate conjunction: the answer is the
            # bitmap itself; no bulk operations run and none are charged,
            # exactly as the plan-level cost model prices it.
            zero_cost = OperationMetrics(
                name="bitmap_conjunction",
                latency_ns=0.0,
                energy_j=0.0,
                bytes_produced=packed_bytes,
                notes=f"{plan.total_operations} bulk ops (identity)",
            )
        return LoweredGroup(
            queued=queued, indices=indices, finalize=finalize, zero_cost_metrics=zero_cost
        )

    @staticmethod
    def group_metrics(group: LoweredGroup, results: List[RequestResult]) -> OperationMetrics:
        """Sequential-execution cost attributed to one lowered group."""
        if not group.indices:
            return group.zero_cost_metrics
        if len(results) == 1:
            return results[0].metrics
        if group.write_outcome is not None:
            name = f"storage_{group.write_outcome.request.kind}"
        else:
            name = "bitmap_conjunction"
        combined = combine_serial(name, (r.metrics for r in results))
        combined.notes = f"{len(results)} lowered bulk ops"
        return combined
