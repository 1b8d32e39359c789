"""The scatter-gather cluster frontend over N shard executors.

:class:`ClusterFrontend` turns the single-device service pipeline
(frontend → planner → executor) into a multi-shard cluster: one
:class:`~repro.service.frontend.ServiceFrontend` — with its own
:class:`~repro.service.executor.BatchExecutor` over its own
:class:`~repro.ambit.engine.AmbitEngine`-backed device — per shard, an
admission story inherited wholesale from the per-shard frontends, and a
router (:class:`~repro.cluster.router.ShardRouter`) deciding where data
lives.

**Routing.**  A predicate scan has column affinity: it goes to the shard
holding its column's planes — or, for a replicated hot column, to the
*least-loaded* replica, measured by the per-shard backlog vector
(:meth:`shard_load`: remaining in-service time plus the shard's queued
hottest-bank backlog).  Work with no affinity (bulk ops over host
vectors, copies) goes wherever the backlog is smallest, which is what
rebalances the cluster under skew.

**Scatter-gather.**  A :class:`~repro.service.requests
.BitmapConjunctionRequest` whose predicate columns live on different
shards is *scattered*: each shard gets a sub-conjunction over its own
:class:`~repro.database.sharding.BitmapIndexShardView` (lowered and
executed entirely shard-locally), and the gather path merges the partial
bitmaps host-side with bitwise ANDs — bit-exact with single-device
evaluation, because every predicate is applied exactly once.  Scatter
admission is all-or-nothing: if any shard refuses its part, the siblings
are withdrawn (:meth:`ServiceFrontend.cancel`) and the cluster record is
rejected.

**Virtual time.**  Every shard runs its own virtual clock; the cluster
drives them together: arrivals are processed in global order, each shard
serves whatever batches its policy closes before the next arrival, and
routing decisions read the shard loads *at the arrival instant*.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis.metrics import OperationMetrics, combine_serial
from repro.cache.result_cache import ResultCache
from repro.cluster.faults import FaultPlan
from repro.cluster.router import PlacementUnavailable, ShardRouter
from repro.database.bitmap_index import BitmapIndex
from repro.database.sharding import BitmapIndexShardView
from repro.obs import Observer, resolve_observe
from repro.service.executor import BatchExecutor
from repro.service.frontend import ServiceFrontend
from repro.service.planner import BatchPolicy
from repro.service.requests import (
    BitmapConjunctionRequest,
    CopyRequest,
    FrontendRequest,
    QueuedRequest,
    ScanRequest,
    invalid_input,
)
from repro.storage.maintenance import MaintenancePolicy, resolve_maintenance
from repro.storage.requests import WriteRequest, charged_columns, is_write_request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.controller import ElasticController
    from repro.optimizer.passes import OptimizerConfig

#: ``rejected_reason`` values that mean infrastructure failure (a shard
#: died or no replica holds the data), not admission-control refusal.
#: :meth:`repro.api.session.Future.result` maps these to the typed
#: :class:`~repro.api.session.ShardUnavailable` outcome.
FAILURE_REASONS = frozenset({"shard_failed", "shard_unavailable", "shard_retired"})


@dataclass
class ClusterRecord:
    """Envelope of one cluster-level request across its shard parts.

    A request that scatters over G shards has G ``parts`` (one per-shard
    :class:`~repro.service.requests.QueuedRequest`); a routed scan has
    one.  Times are absolute nanoseconds on the cluster's virtual clock.

    Attributes:
        request: The cluster-level request as the client offered it.
        arrival_ns: When the request reached the cluster frontend.
        priority: Larger values are served first (propagated to parts).
        deadline_ns: Absolute completion deadline, or None.
        seq: Cluster admission sequence number.
        shard_ids: Shards the request was routed/scattered to.
        parts: Per-shard sub-request envelopes, aligned with shard_ids.
        admitted: False when any shard refused its part.
        rejected_reason: Why admission refused it ("" if admitted).
        value: Gathered result (merged partial bitmaps for a scattered
            conjunction; the part's own value otherwise).
        metrics: Serial device cost across the parts (host-side merge ANDs
            are *not* device work and are tallied in
            :attr:`ClusterMetrics.merge_ops` /
            :attr:`ClusterMetrics.host_merge_ns` instead).
        host_merge_ns: Host time charged for this record's gather-side
            AND-merges (``merge_ns_per_op`` per merge; 0 for a single
            part).  Included in ``finish_ns`` and therefore the sojourn.
            Shard-local host merges (the plan optimizer's split-mode
            joins) are already inside each part's finish and roll up in
            the per-shard :class:`~repro.analysis.metrics.QueueMetrics`.
        start_ns / finish_ns: First part's service start / last part's
            finish plus the host merge time (NaN before service).
    """

    request: FrontendRequest
    arrival_ns: float = 0.0
    priority: int = 0
    deadline_ns: Optional[float] = None
    seq: int = 0
    shard_ids: List[int] = field(default_factory=list)
    parts: List[QueuedRequest] = field(default_factory=list)
    admitted: bool = True
    rejected_reason: str = ""
    value: Any = None
    metrics: Optional[OperationMetrics] = None
    host_merge_ns: float = 0.0
    start_ns: float = math.nan
    finish_ns: float = math.nan
    #: Cached bitmaps this write dropped across the shard-local caches
    #: (set by the coordinator's invalidation step; 0 for reads).
    cache_invalidations: int = 0
    #: Rows the coordinator's functional mutation touched (write requests
    #: only; the authoritative gather value — charge-only scatter parts
    #: report pre-deduplication estimates).
    rows_affected: Optional[int] = None
    #: Root :class:`repro.obs.Span` of the record's lifecycle (set only
    #: when the cluster's observability plane is recording); the shard
    #: parts' spans are adopted as its children at scatter time.
    trace: Any = field(default=None, repr=False, compare=False)
    #: Times any part of this record was re-offered off a failed or
    #: draining shard (0 for requests untouched by faults).
    failovers: int = 0
    #: The cancelled originals of re-offered parts, in migration order
    #: (the live replacements sit in :attr:`parts`); audit trail for the
    #: conservation property — nothing is dropped, only re-homed.
    migrated_parts: List[QueuedRequest] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """True once every part has been served (and none was shed)."""
        return self.admitted and bool(self.parts) and all(p.completed for p in self.parts)

    @property
    def fanout(self) -> int:
        """Shards this request touched."""
        return len(self.shard_ids)

    @property
    def ops_eliminated(self) -> int:
        """Device ops shard-local plan optimizers removed across the parts."""
        return sum(p.ops_eliminated for p in self.parts)

    @property
    def shared_subchains(self) -> int:
        """Sub-chains the parts served from another request's lowering."""
        return sum(p.shared_subchains for p in self.parts)

    @property
    def cache_hits(self) -> int:
        """Sub-chains served from the shard-local result caches."""
        return sum(p.cache_hits for p in self.parts)

    @property
    def cache_misses(self) -> int:
        """Shard-local result-cache lookups that missed."""
        return sum(p.cache_misses for p in self.parts)

    @property
    def wait_ns(self) -> float:
        """Arrival to first part's service start (NaN before service)."""
        return self.start_ns - self.arrival_ns

    @property
    def sojourn_ns(self) -> float:
        """Arrival to last part's finish (NaN before service)."""
        return self.finish_ns - self.arrival_ns

    @property
    def deadline_missed(self) -> bool:
        """True when the gathered result completed after the deadline."""
        return (
            self.deadline_ns is not None
            and self.completed
            and self.finish_ns > self.deadline_ns + 1e-9
        )


def _default_engine_factory() -> AmbitEngine:
    return AmbitEngine(config=AmbitConfig(vectorized_functional=True))


class ClusterFrontend:
    """Routes, scatters, and gathers requests over N shard executors.

    Args:
        num_shards: Shard executors to build (ignored when ``shards`` is
            given).
        router: Placement/routing policy (defaults to a hash router with
            no replication over ``num_shards`` shards).
        engine_factory: Builds one engine **per shard** — each shard is
            its own device; sharing an engine would share banks and void
            the scaling story.
        policy: Batch-closing policy applied to every shard's planner.
        max_queue_depth / max_backlog_ns / shed_low_priority: Per-shard
            admission knobs (see :class:`ServiceFrontend`).
        functional: Execute shard batches on the simulated banks.
        pipeline: Per-shard lane pipelining (the default; see
            :class:`~repro.service.executor.BatchExecutor`).  Each shard
            advances its own bank lanes independently, so a hot shard
            dispatches its next batch the moment one of its banks drains
            instead of stalling behind its own prior batch's makespan.
            ``False`` restores batch-synchronous shards for A/B runs.
        sanitize: Run the static verification layer cluster-wide: every
            shard executor is built with ``sanitize=True`` (schedule race
            detector on each dispatch, plan lint on each lowered chain)
            and every scattered conjunction's shard parts are certified
            to cover the full predicate set exactly once before being
            offered.  Ignored for pre-built ``shards``, which keep their
            own executors' setting.
        shards: Pre-built shard frontends (overrides the factory path).
        merge_ns_per_op: Host time charged per *level* of the gather-side
            AND-merge tree of shard partials.  The merge runs on the
            host, not on a device: partials are merged pairwise in
            parallel — ``ceil(log2(fanout))`` tree levels, not a serial
            per-op chain — and the total is charged to the record's
            completion time (and rolled up in
            :attr:`ClusterMetrics.host_merge_ns`) rather than to device
            metrics.  The default prices one AND over an 8 KiB row-sized
            bitmap through host memory (read two operands, write one
            result at tens of GB/s); 0 restores the pre-costing
            behaviour.
        optimize: Enable the batch plan optimizer on every shard's
            planner: ``True`` for the default
            :class:`~repro.optimizer.OptimizerConfig`, or an explicit
            config.  Each shard's batches CSE and split shard-locally
            (over its own shard views and bank lanes); the gather path is
            untouched.  Ignored for pre-built ``shards``.
        cache: Shard-local result caching: ``True`` gives every shard
            frontend its *own* :class:`~repro.cache.ResultCache` (entries
            are keyed by the shard's index views, so caches never share
            bitmaps across shards); an instance is shared verbatim (the
            view-scoped keys keep shard entries disjoint even then).
            Writes invalidate the affected entries on every shard at the
            coordinator (see :meth:`offer`).  Ignored for pre-built
            ``shards`` — their planners' caches win.
        maintenance: Index-maintenance policy for cluster writes: a
            strategy name or one :class:`~repro.storage
            .MaintenancePolicy` shared by the coordinator and every shard
            planner (so hybrid hotness aggregates reads cluster-wide).
            For pre-built ``shards`` the policy still drives the
            coordinator's functional write step, but each shard keeps
            its planner's own policy for charging.
        observe: Tracing (``repro.obs``): ``True`` records one span
            tree per cluster request (scatter → per-shard parts →
            gather-merge) with every shard's frontend and executor
            sharing the tracer (shard-prefixed lane tracks).  The
            cluster owns one metrics registry either way, shared into
            every shard (pre-built and joined ones too) and the
            maintenance policy; its counters, gauges and histograms —
            failover and scale counts included — are always written.
            Tracing never changes routing, admission, schedules, or
            results.
    """

    #: Default host cost of AND-merging two 8 KiB partial bitmaps.
    DEFAULT_MERGE_NS_PER_OP = 250.0

    def __init__(
        self,
        num_shards: int = 2,
        router: Optional[ShardRouter] = None,
        engine_factory: Optional[Callable[[], AmbitEngine]] = None,
        policy: Optional[BatchPolicy] = None,
        max_queue_depth: int = 64,
        max_backlog_ns: Optional[float] = None,
        functional: bool = False,
        pipeline: bool = True,
        shed_low_priority: bool = False,
        sanitize: bool = False,
        shards: Optional[List[ServiceFrontend]] = None,
        merge_ns_per_op: float = DEFAULT_MERGE_NS_PER_OP,
        optimize: Union[bool, "OptimizerConfig"] = False,
        cache: Union[None, bool, ResultCache] = None,
        maintenance: Union[None, str, MaintenancePolicy] = None,
        observe: Union[bool, Observer] = False,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if merge_ns_per_op < 0.0:
            raise ValueError("merge_ns_per_op must be non-negative")
        self.merge_ns_per_op = float(merge_ns_per_op)
        self.sanitize = sanitize
        self.maintenance = resolve_maintenance(maintenance)
        # Shard-construction knobs are kept so :meth:`join_shard` can mint
        # new shards identical to the originals (pre-built ``shards`` get
        # joins built from the same knobs the defaults would use).
        self._engine_factory = engine_factory or _default_engine_factory
        self._pipeline = pipeline
        self._shard_kwargs: Dict[str, Any] = dict(
            policy=policy,
            max_queue_depth=max_queue_depth,
            max_backlog_ns=max_backlog_ns,
            functional=functional,
            shed_low_priority=shed_low_priority,
            optimize=optimize,
            cache=cache,
            maintenance=self.maintenance,
        )
        if shards is not None:
            if not shards:
                raise ValueError("shards must not be empty")
            self.shards = list(shards)
        else:
            if num_shards < 1:
                raise ValueError("num_shards must be at least 1")
            self.shards = [self._build_shard() for _ in range(num_shards)]
        self.router = router or ShardRouter(len(self.shards))
        if self.router.num_shards != len(self.shards):
            raise ValueError("router shard count must match the cluster's")
        self.records: List[ClusterRecord] = []
        self.clock_ns = 0.0
        self._seq = 0
        self._share_plane(resolve_observe(observe))
        # Shard views per index, pinned by the index object itself (id()
        # reuse must not hand one index's placement to another) and by
        # the router's placement epoch (live re-placement, joins, and
        # retires must re-partition the shard views).
        self._index_views: Dict[int, Tuple[BitmapIndex, int, Dict[int, BitmapIndexShardView]]] = {}
        #: The fault schedule driven by :meth:`advance_to`/:meth:`drain`
        #: (None runs the healthy fixed-pool behaviour untouched).
        self.faults = faults
        #: The elastic controller, when one is attached
        #: (:class:`~repro.cluster.controller.ElasticController` registers
        #: itself here).
        self.controller: Optional["ElasticController"] = None

    def _build_shard(self) -> ServiceFrontend:
        return ServiceFrontend(
            executor=BatchExecutor(
                engine=self._engine_factory(),
                pipeline=self._pipeline,
                sanitize=self.sanitize,
            ),
            **self._shard_kwargs,
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def bind_observer(self, obs: Observer) -> None:
        """Trace the whole cluster into ``obs``'s tracer; the cluster's
        registry stays, so attaching a tracer never resets its counts."""
        self._share_plane(Observer(tracer=obs.tracer, metrics=self.obs.metrics))

    def _share_plane(self, obs: Observer) -> None:
        """Record the whole cluster into one plane: every shard frontend
        and executor, and the maintenance policy, share its tracer and
        registry; each shard's executor gets a ``shard<i>/`` track prefix
        so identical bank keys on different shard devices stay distinct
        Perfetto tracks."""
        self.obs = obs
        self.maintenance.metrics = obs.metrics
        for shard_id, shard in enumerate(self.shards):
            shard.executor.obs_prefix = f"shard{shard_id}/"
            shard.share_plane(obs)

    def _obs_scattered(self, record: ClusterRecord) -> None:
        """Count the scatter outcome; when tracing, adopt the part spans."""
        registry = self.obs.metrics
        registry.counter("cluster.fanout").inc(float(record.fanout))
        registry.counter("cluster.admitted" if record.admitted else "cluster.rejected").inc()
        span = record.trace
        if span is None:
            return
        span.child(
            "scatter",
            category="cluster",
            start_ns=record.arrival_ns,
            end_ns=record.arrival_ns,
        ).set(
            fanout=record.fanout,
            shard_ids=",".join(str(s) for s in record.shard_ids),
            admitted=record.admitted,
        )
        for shard_id, part in zip(record.shard_ids, record.parts):
            if part.trace is not None:
                part.trace.set(shard=shard_id)
                self.obs.tracer.adopt(part.trace, span)
        if not record.admitted:
            span.end(record.arrival_ns).set(
                status="rejected", reason=record.rejected_reason
            )

    def _obs_key_reads(self, request: FrontendRequest) -> None:
        """Count per-key read touches (the controller's hotness signal)."""
        registry = self.obs.metrics
        if isinstance(request, ScanRequest):
            label = self.router.key_label(request.column)
            registry.counter(f"cluster.key_reads.{label}").inc()
        elif isinstance(request, BitmapConjunctionRequest):
            for column, _ in request.predicates:
                label = self.router.key_label(column)
                registry.counter(f"cluster.key_reads.{label}").inc()

    def _obs_gathered(self, record: ClusterRecord, tree_depth: int) -> None:
        """Count the completion; when tracing, attach the gather-merge
        child and close the record's root."""
        registry = self.obs.metrics
        registry.counter("cluster.completed").inc()
        registry.counter("cluster.merge_ops").inc(float(max(0, len(record.parts) - 1)))
        registry.histogram("cluster.sojourn_ns").observe(record.sojourn_ns)
        if record.host_merge_ns > 0.0:
            registry.histogram("cluster.host_merge_ns").observe(record.host_merge_ns)
        span = record.trace
        if span is None:
            return
        if record.host_merge_ns > 0.0:
            span.child(
                "gather_merge",
                category="cluster",
                start_ns=record.finish_ns - record.host_merge_ns,
                end_ns=record.finish_ns,
            ).set(parts=len(record.parts), tree_levels=tree_depth)
        span.end(record.finish_ns).set(
            status="completed", deadline_missed=record.deadline_missed
        )

    # ------------------------------------------------------------------
    # Load and placement
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_load(self, shard_id: int, at_ns: Optional[float] = None) -> float:
        """Backlog of one shard at an instant: remaining in-service time
        (how far the shard's completion horizon — its clock, or with
        pipelining the busiest lane's in-flight horizon — sits past
        ``at_ns``) plus its queued hottest-bank backlog."""
        at = self.clock_ns if at_ns is None else at_ns
        shard = self.shards[shard_id]
        return max(0.0, shard.completion_ns - at) + shard.backlog_ns

    def backlog_vector(self, at_ns: Optional[float] = None) -> List[float]:
        """Per-shard backlog (the routing signal), shard order."""
        return [self.shard_load(i, at_ns) for i in range(self.num_shards)]

    def _views_for(self, index: BitmapIndex) -> Dict[int, BitmapIndexShardView]:
        entry = self._index_views.get(id(index))
        if entry is not None and entry[0] is index and entry[1] == self.router.epoch:
            return entry[2]
        placed = self.router.partition(index.indexed_columns())
        views = {
            shard: index.shard_view(columns)
            for shard, columns in enumerate(placed)
            if columns
        }
        self._index_views[id(index)] = (index, self.router.epoch, views)
        return views

    # ------------------------------------------------------------------
    # Admission (routing + scatter)
    # ------------------------------------------------------------------
    def offer(
        self,
        request: FrontendRequest,
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        arrival_ns: Optional[float] = None,
    ) -> ClusterRecord:
        """Route one request to its shard(s); returns the cluster envelope.

        Scans go to the least-loaded replica of their column's shard set;
        conjunctions scatter into shard-local sub-conjunctions; everything
        else goes to the least-loaded shard.  Scatter admission is
        all-or-nothing: one refused part withdraws the rest.  Malformed
        input (see :func:`~repro.service.requests.invalid_input`) is
        rejected as ``"invalid"`` before any clock moves.
        """
        arrival = self.clock_ns if arrival_ns is None else float(arrival_ns)
        record = ClusterRecord(
            request=request,
            arrival_ns=arrival,
            priority=priority,
            deadline_ns=deadline_ns,
            seq=self._seq,
        )
        self._seq += 1
        self.records.append(record)
        registry = self.obs.metrics
        registry.counter("cluster.offered").inc()
        if invalid_input(request, arrival, deadline_ns):
            record.admitted = False
            record.rejected_reason = "invalid"
            registry.counter("cluster.rejected.invalid").inc()
            self._obs_scattered(record)
            return record
        self.clock_ns = max(self.clock_ns, arrival)
        if self.obs.enabled:
            record.trace = self.obs.tracer.span(
                "cluster_request", category="cluster", start_ns=arrival
            ).set(kind=type(request).__name__, seq=record.seq, priority=priority)

        load = lambda shard: self.shard_load(shard, arrival)  # noqa: E731
        try:
            if isinstance(request, BitmapConjunctionRequest):
                plan = self._scatter_conjunction(request, load)
            elif is_write_request(request):
                plan = self._scatter_write(request, load)
            elif isinstance(request, ScanRequest):
                plan = [(self.router.route(request.column, load), request)]
            else:
                plan = [(self.router.route_any(load), request)]
        except PlacementUnavailable:
            # Degraded mode: no routable replica holds the data.  Reject
            # with a failure-typed reason (mapped to ShardUnavailable by
            # the session layer) instead of serving a wrong answer.
            record.admitted = False
            record.rejected_reason = "shard_unavailable"
            registry.counter("cluster.failover.unavailable").inc()
            self._obs_scattered(record)
            return record
        self._obs_key_reads(request)

        for shard_id, sub_request in plan:
            part = self.shards[shard_id].offer(
                sub_request,
                priority=priority,
                deadline_ns=deadline_ns,
                arrival_ns=arrival,
            )
            record.shard_ids.append(shard_id)
            record.parts.append(part)
            if not part.admitted:
                record.admitted = False
                record.rejected_reason = part.rejected_reason
                for shard, sibling in zip(record.shard_ids[:-1], record.parts[:-1]):
                    self.shards[shard].cancel(sibling)
                break
        if record.admitted and is_write_request(request):
            # The scatter parts are charge-only; the functional mutation
            # and the shard-cache invalidations commit exactly once, at
            # the coordinator, only after the all-or-nothing admission
            # held (a rejected write must not mutate the table).
            self._commit_write(request, record)
        self._obs_scattered(record)
        return record

    def _scatter_write(
        self, request: WriteRequest, load
    ) -> List[Tuple[int, WriteRequest]]:
        """Split a write into charge-only shard parts by column placement.

        Every shard holding an affected column gets a part restricted to
        its locally-placed columns (``apply=False`` — the coordinator's
        :meth:`_commit_write` performs the mutation and the parent-index
        maintenance once).  A replicated column appears in every
        replica's part: each replica's device pays to maintain its copy.
        A write touching no placed column (e.g. an update of an
        unindexed column) still charges its row traffic on the
        least-loaded shard.
        """
        views = self._views_for(request.index)
        charged = charged_columns(request)
        parts: List[Tuple[int, WriteRequest]] = []
        covered: set = set()
        placed_anywhere: set = set()
        for shard_id, view in sorted(views.items()):
            local = tuple(c for c in charged if c in view.columns)
            placed_anywhere.update(local)
            if not self.router.is_routable(shard_id):
                # A down/draining replica skips its maintenance charge —
                # the surviving replicas still cover the column (checked
                # below); the copy is rebuilt by re-replication, not here.
                continue
            if local:
                covered.update(local)
                parts.append(
                    (shard_id, dataclasses.replace(request, columns=local, apply=False))
                )
        missing = placed_anywhere - covered
        if missing:
            column = sorted(missing)[0]
            raise PlacementUnavailable(
                f"no routable replica holds written column {column!r}", key=column
            )
        if not parts:
            parts = [
                (
                    self.router.route_any(load),
                    dataclasses.replace(request, columns=(), apply=False),
                )
            ]
        if self.sanitize:
            from repro.verify.plan_lint import check_write_scatter  # local: avoid cycle

            # Certify the scatter before any shard sees its part: the
            # charged columns must all land on some replica, and no part
            # may charge a column the write does not affect.
            check_write_scatter(charged, [(s, p.columns or ()) for s, p in parts])
        return parts

    def _commit_write(self, request: WriteRequest, record: ClusterRecord) -> None:
        """Apply the mutation + parent maintenance; invalidate shard caches.

        Runs at the write's arrival instant, so every read lowered after
        it computes from (and caches) post-write planes, while fills
        planned from pre-write planes are killed by the caches' epoch
        guards — the coordinator bumps the epochs here.  The returned
        primitives are discarded: maintenance *cost* is charged by the
        shard parts, on the devices that hold the columns.
        """
        coordinator = dataclasses.replace(request, columns=None, apply=True)
        outcome = self.maintenance.lower_write(
            coordinator, self.shards[record.shard_ids[0]].executor
        )
        record.rows_affected = outcome.rows_affected
        views = self._views_for(request.index)
        dropped = 0
        for shard_id, shard in enumerate(self.shards):
            cache = shard.cache
            view = views.get(shard_id)
            if cache is None or view is None:
                continue
            if outcome.invalidate_all:
                dropped += cache.invalidate_index(view)
            else:
                local = [c for c in outcome.invalidate_columns if c in view.columns]
                if local:
                    dropped += cache.invalidate_columns(view, local)
        record.cache_invalidations = dropped

    def _scatter_conjunction(
        self, request: BitmapConjunctionRequest, load
    ) -> List[Tuple[int, BitmapConjunctionRequest]]:
        """Split a conjunction into shard-local sub-conjunctions."""
        index = request.index
        views = self._views_for(index)
        assignment = self.router.assign_scatter(
            [column for column, _ in request.predicates], load
        )
        by_shard: Dict[int, List[Tuple[str, Tuple[int, ...]]]] = {}
        for (column, values), (_, shard) in zip(request.predicates, assignment):
            by_shard.setdefault(shard, []).append((column, values))
        parts = [
            (
                shard,
                BitmapConjunctionRequest(
                    index=views[shard], predicates=tuple(predicates)
                ),
            )
            for shard, predicates in sorted(by_shard.items())
        ]
        if self.sanitize:
            from repro.verify.plan_lint import check_scatter_coverage  # local: avoid cycle

            # Certify the scatter before any shard sees its part: the
            # shard-local sub-conjunctions must cover the predicate set
            # exactly once, else the gather AND silently corrupts.
            check_scatter_coverage(
                request.predicates,
                [(shard, sub.predicates) for shard, sub in parts],
            )
        return parts

    # ------------------------------------------------------------------
    # Service
    # ------------------------------------------------------------------
    def _next_event_ns(self, include_controller: bool = True) -> Optional[float]:
        """Next fault event or controller tick due, or None."""
        candidates: List[float] = []
        if self.faults is not None:
            due = self.faults.next_fire_ns()
            if due is not None:
                candidates.append(due)
        if include_controller and self.controller is not None:
            candidates.append(self.controller.next_tick_ns())
        return min(candidates) if candidates else None

    def _fire_events(self, at_ns: float) -> None:
        """Apply every fault event and controller tick due at ``at_ns``.

        The caller must have advanced all shards to ``at_ns`` first, so
        a kill lands exactly at its scheduled instant: dispatched batches
        have completed (fail-stop at the dispatch boundary) and the
        victim's still-queued work migrates from the current state.
        """
        if self.faults is not None:
            self.faults.fire_due(self, at_ns)
        if self.controller is not None:
            self.controller.run_due(at_ns)

    def advance_to(self, until_ns: float) -> None:
        """Advance every shard's virtual clock towards ``until_ns``,
        firing fault events and controller ticks at their due instants."""
        until = float(until_ns)
        while True:
            due = self._next_event_ns()
            if due is None or due > until:
                break
            fire_at = max(due, self.clock_ns)
            for shard in self.shards:
                shard.advance_to(fire_at)
            self.clock_ns = max(self.clock_ns, fire_at)
            self._fire_events(fire_at)
        for shard in self.shards:
            shard.advance_to(until)
        self.clock_ns = max(self.clock_ns, until)
        if self.faults is not None:
            self.faults.poll(self, self.clock_ns)

    def drain(self) -> None:
        """Serve every shard until all queues are empty, then gather.

        Fault events and controller ticks due before the work horizon
        still fire in order; events scheduled past the horizon stay
        pending (an empty cluster does not spin its clock forward to
        meet a far-future kill).
        """
        while True:
            busy = any(shard.queue_depth > 0 for shard in self.shards)
            due = self._next_event_ns(include_controller=busy)
            if due is None:
                break
            horizon = max(
                [self.clock_ns] + [shard.completion_ns for shard in self.shards]
            )
            if due > horizon:
                if not busy:
                    break
                # Serve the queued work up to the event instant, then
                # re-evaluate: if the queues empty before ``due`` the
                # event lies beyond this stream and stays pending.
                progressed = False
                for shard in self.shards:
                    before = (shard.clock_ns, shard.queue_depth)
                    shard.advance_to(due)
                    if (shard.clock_ns, shard.queue_depth) != before:
                        progressed = True
                if not progressed:
                    # Batch policies sleeping for arrivals that never
                    # come are forced batch-by-batch, exactly as an
                    # eventless drain would close them (their dispatch
                    # instants precede the event: horizon < due).
                    for shard in self.shards:
                        if shard.queue_depth > 0:
                            shard.serve_batch()
                continue
            fire_at = max(due, self.clock_ns)
            for shard in self.shards:
                shard.advance_to(fire_at)
            self.clock_ns = max(self.clock_ns, fire_at)
            self._fire_events(fire_at)
        for shard in self.shards:
            shard.drain()
        self.clock_ns = max(
            [self.clock_ns] + [s.clock_ns for s in self.shards]
        )
        if self.faults is not None:
            self.faults.poll(self, self.clock_ns)
        self._finalize_records()

    # ------------------------------------------------------------------
    # Faults and failover
    # ------------------------------------------------------------------
    def fail_shard(self, shard_id: int, at_ns: Optional[float] = None) -> bool:
        """Kill one shard at an instant (fail-stop at the dispatch
        boundary): work already dispatched to its lanes completes, work
        still queued on it is cancelled and re-offered to surviving
        replicas.  Returns False when the shard was already down/retired.
        """
        now = self.clock_ns if at_ns is None else float(at_ns)
        if not self.router.mark_down(shard_id):
            return False
        self.obs.metrics.counter("cluster.failover.kills").inc()
        self._migrate_queued(shard_id, now, reason="shard_failed")
        return True

    def revive_shard(self, shard_id: int, at_ns: Optional[float] = None) -> bool:
        """Bring a failed shard back into the routable pool.  Its replicas
        were never unplaced (placement is orthogonal to health), so reads
        route to it again immediately.  False when it was not down."""
        del at_ns  # revival is a pure health flip; nothing to reschedule
        if not self.router.mark_up(shard_id):
            return False
        self.obs.metrics.counter("cluster.failover.revives").inc()
        return True

    def drain_shard(self, shard_id: int, at_ns: Optional[float] = None) -> bool:
        """Stop routing new work to a shard and migrate its queue off
        (the retirement prelude).  In-flight batches complete in place."""
        now = self.clock_ns if at_ns is None else float(at_ns)
        if not self.router.is_routable(shard_id):
            return False
        self.router.mark_draining(shard_id)
        self.obs.metrics.counter("cluster.scale.drains").inc()
        self._migrate_queued(shard_id, now, reason="shard_draining")
        return True

    def retire_shard(self, shard_id: int, at_ns: Optional[float] = None) -> bool:
        """Permanently remove a shard: drain its queue, move the last
        copy of every key it solely holds onto a surviving shard (the
        copy bytes are charged to the destination's lanes), then retire
        it in the router.  Returns False when the pool cannot absorb the
        shard's data (the retire is then abandoned, shard left draining).
        """
        now = self.clock_ns if at_ns is None else float(at_ns)
        if self.router.is_retired(shard_id):
            return False
        if self.router.is_routable(shard_id):
            self.router.mark_draining(shard_id)
            self._migrate_queued(shard_id, now, reason="shard_retired")
        load = lambda shard: self.shard_load(shard, now)  # noqa: E731
        for key in self.router.placed_keys(shard_id):
            survivors = [
                s
                for s in self.router.replicas(key)
                if s != shard_id and not self.router.is_retired(s)
            ]
            if not survivors:
                try:
                    target = self.router.route_any(load)
                except PlacementUnavailable:
                    return False  # nowhere to move the last copy
                self.add_replica(key, target, at_ns=now, force=True)
            self.router.drop_replica(key, shard_id)
        self.router.retire(shard_id)
        self.obs.metrics.counter("cluster.scale.retires").inc()
        return True

    def join_shard(self, at_ns: Optional[float] = None) -> int:
        """Grow the pool by one shard (built from the cluster's own
        construction knobs) starting life at ``at_ns``; returns its id.
        Existing placements are sticky — the new shard takes load via
        affinity-free routing, controller re-replication, and keys first
        seen after the join."""
        now = self.clock_ns if at_ns is None else float(at_ns)
        shard = self._build_shard()
        shard.clock_ns = max(shard.clock_ns, now)
        self.shards.append(shard)
        new_id = self.router.add_shard()
        if new_id != len(self.shards) - 1:
            raise RuntimeError(
                "router and cluster shard counts diverged on join "
                f"(router says {new_id}, cluster has {len(self.shards)} shards)"
            )
        # Re-share so the joined shard records into the cluster's plane
        # with its own shard-prefixed lane tracks.
        self._share_plane(self.obs)
        self.obs.metrics.counter("cluster.scale.joins").inc()
        return new_id

    def _migrate_queued(self, shard_id: int, now: float, reason: str) -> int:
        """Cancel every still-queued part on ``shard_id`` and re-offer it
        to surviving shards; returns how many parts migrated.  Parts
        already dispatched complete in place (fail-stop boundary); a part
        with no surviving placement fails its whole record (typed
        degraded-mode outcome, never a silent drop)."""
        migrated = 0
        for record in self.records:
            if not record.admitted or record.completed:
                continue
            k = 0
            while k < len(record.parts):
                part = record.parts[k]
                if (
                    record.shard_ids[k] == shard_id
                    and part.admitted
                    and not part.completed
                    and self.shards[shard_id].cancel(part, reason=reason)
                ):
                    replaced = self._reoffer_part(record, k, shard_id, part, now)
                    if replaced is None:
                        break  # record failed; siblings already withdrawn
                    migrated += 1
                    k += replaced
                else:
                    k += 1
        return migrated

    def _reoffer_part(
        self,
        record: ClusterRecord,
        k: int,
        old_shard: int,
        part: QueuedRequest,
        now: float,
    ) -> Optional[int]:
        """Re-offer one cancelled part of ``record`` onto surviving
        shards at ``now``; returns how many replacement parts took its
        place in :attr:`ClusterRecord.parts`, or None when no surviving
        placement exists (the record is failed, siblings withdrawn)."""
        load = lambda shard: self.shard_load(shard, now)  # noqa: E731
        request = part.request
        plan: List[Tuple[int, FrontendRequest]]
        try:
            if isinstance(request, BitmapConjunctionRequest) and isinstance(
                request.index, BitmapIndexShardView
            ):
                # Re-scatter the sub-conjunction's predicates over the
                # surviving replicas of the parent index.
                parent = BitmapConjunctionRequest(
                    index=request.index.index, predicates=request.predicates
                )
                plan = self._scatter_conjunction(parent, load)
            elif isinstance(request, ScanRequest):
                plan = [(self.router.route(request.column, load), request)]
            elif is_write_request(request):
                # Charge-only maintenance part: prefer a surviving replica
                # of one of its columns, else charge the least-loaded shard.
                target: Optional[int] = None
                for column in request.columns or ():
                    try:
                        target = self.router.route(column, load)
                        break
                    except PlacementUnavailable:
                        continue
                if target is None:
                    target = self.router.route_any(load)
                plan = [(target, request)]
            else:
                plan = [(self.router.route_any(load), request)]
        except PlacementUnavailable:
            self._fail_record(record, "shard_unavailable", now)
            return None
        if self.sanitize:
            from repro.verify.plan_lint import check_failover_reoffer  # local: avoid cycle

            check_failover_reoffer(self.router, old_shard, [s for s, _ in plan])
        new_ids: List[int] = []
        new_parts: List[QueuedRequest] = []
        for shard_id, sub_request in plan:
            new_part = self.shards[shard_id].offer(
                sub_request,
                priority=record.priority,
                deadline_ns=record.deadline_ns,
                arrival_ns=now,
            )
            new_ids.append(shard_id)
            new_parts.append(new_part)
            if record.trace is not None and new_part.trace is not None:
                new_part.trace.set(shard=shard_id, failover=True)
                self.obs.tracer.adopt(new_part.trace, record.trace)
        record.shard_ids[k : k + 1] = new_ids
        record.parts[k : k + 1] = new_parts
        record.migrated_parts.append(part)
        record.failovers += 1
        self.obs.metrics.counter("cluster.failover.migrated_parts").inc()
        self.obs.metrics.counter("cluster.failover.reoffers").inc(float(len(plan)))
        # A replacement refused by target admission flows through the
        # existing all-or-nothing rejection in _finalize_records.
        return len(new_parts)

    def _fail_record(self, record: ClusterRecord, reason: str, now: float) -> None:
        """Terminal degraded-mode failure: mark the record rejected with a
        failure-typed reason and withdraw its still-queued siblings."""
        record.admitted = False
        record.rejected_reason = reason
        for shard, sibling in zip(record.shard_ids, record.parts):
            if sibling.admitted and not sibling.completed:
                self.shards[shard].cancel(sibling, reason=reason)
        registry = self.obs.metrics
        registry.counter("cluster.failover.records_failed").inc()
        registry.counter("cluster.rejected").inc()
        if record.trace is not None:
            record.trace.end(now).set(status="failed", reason=reason)

    # ------------------------------------------------------------------
    # Elasticity (controller surface)
    # ------------------------------------------------------------------
    def add_replica(
        self,
        key,
        shard_id: int,
        at_ns: Optional[float] = None,
        priority: int = 0,
        force: bool = False,
    ) -> bool:
        """Replicate ``key`` onto ``shard_id``, charging the copy bytes
        to the destination shard's lanes as a
        :class:`~repro.service.requests.CopyRequest` through its own
        admission path.  Returns False when the shard already holds the
        key, is unroutable, or refuses the copy (``force=True`` places
        anyway — the retire path must not strand data)."""
        now = self.clock_ns if at_ns is None else float(at_ns)
        if shard_id in self.router.replicas(key):
            return False
        if not force and not self.router.is_routable(shard_id):
            return False
        num_bytes = self._replica_bytes(key)
        copy = self.shards[shard_id].offer(
            CopyRequest(num_bytes=num_bytes), priority=priority, arrival_ns=now
        )
        if not copy.admitted and not force:
            return False
        self.router.add_replica(key, shard_id)
        registry = self.obs.metrics
        registry.counter("cluster.scale.replications").inc()
        registry.counter("cluster.scale.copied_bytes").inc(float(num_bytes))
        registry.counter("cluster.scale.copy_ns").inc(copy.modeled_ns if copy.admitted else 0.0)
        return True

    def _replica_bytes(self, key) -> int:
        """Bytes a new replica of ``key`` must copy onto its shard."""
        if isinstance(key, str):
            total = 0
            for index, _, _ in self._index_views.values():
                planes = index.bitmaps.get(key)
                if planes:
                    total += sum(int(plane.size) for plane in planes.values())
            if total:
                return total
        else:
            size = getattr(key, "storage_bytes", None)
            if callable(size):
                return int(size())
        return 8192  # one DRAM row: conservative floor for unknown keys

    def publish_gauges(self, at_ns: Optional[float] = None) -> None:
        """Publish the cluster health gauges the controller reads:
        per-shard backlog, imbalance factor, pool size, rejection rate."""
        now = self.clock_ns if at_ns is None else float(at_ns)
        registry = self.obs.metrics
        routable = self.router.routable_shards()
        backlogs = []
        for shard_id in range(self.num_shards):
            backlog = self.shard_load(shard_id, now)
            registry.gauge(f"cluster.backlog_ns.shard{shard_id}").set(backlog)
            registry.gauge(f"cluster.queue_depth.shard{shard_id}").set(
                float(self.shards[shard_id].queue_depth)
            )
            if shard_id in routable:
                backlogs.append(backlog)
        registry.gauge("cluster.shards_alive").set(float(len(self.router.alive_shards())))
        registry.gauge("cluster.shards_routable").set(float(len(routable)))
        mean = sum(backlogs) / len(backlogs) if backlogs else 0.0
        imbalance = (max(backlogs) / mean) if mean > 0.0 else 1.0
        registry.gauge("cluster.imbalance").set(imbalance)
        offered = registry.counter("cluster.offered").value
        rejected = registry.counter("cluster.rejected").value
        registry.gauge("cluster.rejection_rate").set(
            rejected / offered if offered > 0.0 else 0.0
        )

    def elastic_summary(self) -> Dict[str, Any]:
        """Failover/scale accounting for :class:`ClusterMetrics`: the
        cluster-lifetime ``cluster.failover.*``/``cluster.scale.*``
        counts, read from the always-on registry."""
        count = self.obs.metrics.count
        return {
            "shard_failures": int(count("cluster.failover.kills")),
            "shard_revivals": int(count("cluster.failover.revives")),
            "shards_joined": int(count("cluster.scale.joins")),
            "shards_retired": int(count("cluster.scale.retires")),
            "failovers": int(count("cluster.failover.migrated_parts")),
            "failover_failures": int(count("cluster.failover.records_failed")),
            "replications": int(count("cluster.scale.replications")),
            "copied_bytes": int(count("cluster.scale.copied_bytes")),
            "copy_ns": count("cluster.scale.copy_ns"),
        }

    # ------------------------------------------------------------------
    # Gather
    # ------------------------------------------------------------------
    def _gather(self, record: ClusterRecord) -> None:
        """Merge a completed record's shard parts into its final value."""
        parts = record.parts
        record.start_ns = min(p.start_ns for p in parts)
        record.finish_ns = max(p.finish_ns for p in parts)
        if is_write_request(record.request):
            # A write's parts carry charge-only estimates; the gather
            # value is the coordinator's authoritative rows-affected
            # count, and there is no bitmap merge to price.
            record.value = (
                record.rows_affected
                if record.rows_affected is not None
                else parts[0].value
            )
            record.metrics = (
                parts[0].metrics
                if len(parts) == 1
                else combine_serial("cluster_write", (p.metrics for p in parts))
            )
            self._obs_gathered(record, tree_depth=0)
            return
        if len(parts) == 1:
            record.value = parts[0].value
            record.metrics = parts[0].metrics
            self._obs_gathered(record, tree_depth=0)
            return
        # Scattered conjunction: AND the per-shard partial bitmaps.  The
        # merge runs host-side (it is NOT charged as device work); device
        # cost is the serial combination of the shard chains.  The host
        # cost model charges the *merge tree*: partials merge pairwise in
        # parallel, so a G-way gather costs ceil(log2(G)) levels of
        # `merge_ns_per_op` on the record's completion time — a gathered
        # result is not ready until the host has actually merged it, but
        # independent pairs never serialize behind each other.
        record.value = np.bitwise_and.reduce([p.value for p in parts])
        tree_depth = (len(parts) - 1).bit_length()
        record.host_merge_ns = tree_depth * self.merge_ns_per_op
        record.finish_ns += record.host_merge_ns
        merged = combine_serial("cluster_gather", (p.metrics for p in parts))
        merged.notes = (
            f"{len(parts)} shard partials, host-side AND merge tree "
            f"({tree_depth} levels)"
        )
        record.metrics = merged
        self._obs_gathered(record, tree_depth=tree_depth)

    def gather(self) -> None:
        """Gather every finished record (public hook for sessions/futures)."""
        self._finalize_records()

    def _finalize_records(self) -> None:
        """Sync scatter failures and gather finished records."""
        for record in self.records:
            # A part shed after admission sinks the whole scatter: mark the
            # record rejected and withdraw siblings still queued (siblings
            # already served are wasted work, as in a real scatter).
            if record.admitted and any(not p.admitted for p in record.parts):
                failed = next(p for p in record.parts if not p.admitted)
                record.admitted = False
                record.rejected_reason = failed.rejected_reason
                for shard, sibling in zip(record.shard_ids, record.parts):
                    if sibling.admitted and not sibling.completed:
                        self.shards[shard].cancel(sibling)
                self.obs.metrics.counter("cluster.rejected").inc()
                if record.trace is not None:
                    record.trace.end(self.clock_ns).set(
                        status="rejected", reason=record.rejected_reason
                    )
            if record.completed and math.isnan(record.finish_ns):
                self._gather(record)
