"""The service frontend: arrivals, admission control, and the request queue.

:class:`ServiceFrontend` is the first stage of the service pipeline
(frontend → planner → executor).  It accepts a *stream* of requests — from
a Poisson arrival process, a recorded trace, or direct :meth:`offer` calls
— into a bounded priority queue, applies admission control, and drives the
:class:`~repro.service.planner.BatchPlanner` /
:class:`~repro.service.executor.BatchExecutor` pair on a virtual clock.

**Admission control.**  A request is rejected (never queued, never served)
when the queue is at ``max_queue_depth``, or when the modeled bank
occupancy already exceeds ``max_backlog_ns``.  Occupancy is tracked as a
**per-bank backlog vector**: each queued request charges its sequential
latency to the banks it is modeled to occupy (its column's banks, its
placement, its bank-offset hint), and requests with no affinity spread
evenly.  The admission bound applies to the *hottest* bank the candidate
would touch, so under bank skew the frontend rejects work piling onto a
hot bank while still admitting work bound for idle banks — with balanced
traffic the behaviour matches the older scalar model (queued serial
latency / banks) and ``max_backlog_ns`` keeps its meaning.  Rejected
requests are counted and returned to the caller with a reason; a real
deployment would translate this into backpressure (see
:class:`~repro.service.client.RetryClient` for a retrying client model).

**Load shedding.**  With ``shed_low_priority`` enabled, a request that
would be refused makes room by evicting queued work of *strictly lower*
priority (youngest of the lowest class first) — but only when shedding
actually lets the candidate fit.  Shed requests are marked
``rejected_reason="shed"`` and counted in
:attr:`~repro.analysis.metrics.QueueMetrics.shed`.

**Queue order.**  Higher ``priority`` first, then earliest deadline, then
FIFO — so latency-critical classes overtake bulk work without starving it
(the batch window bounds the wait of everything admitted).

**Virtual time.**  The frontend simulates in nanoseconds, consistent with
the rest of the stack: arrivals happen at their timestamps, and requests
arriving during service are admitted (against the live queue) before the
next batch closes.  Per-request wait and sojourn times, deadline misses,
and rejections are summarized in
:class:`~repro.analysis.metrics.QueueMetrics` by
:meth:`repro.api.session.PimSession.report`, the one stream surface:
a session submits arrivals in time order, advancing the frontend to each
arrival before offering it.

**Lane pipelining.**  With a pipelined executor (the default), serving a
batch does *not* occupy the clock for the batch's makespan: the batch is
dispatched onto the executor's persistent per-bank lane timelines
(:class:`~repro.service.lanes.LaneSchedule`), and the next batch may be
dispatched as soon as *some* bank lane has drained
(:meth:`BatchExecutor.ready_ns`) — so a straggler on one bank no longer
holds every other bank idle.  Completion accounting then reads lane
horizons instead of batch makespans: request finish times come from the
lane schedule, :attr:`completion_ns` extends the clock by the in-flight
horizon, admission occupancy counts each bank's in-flight remainder on
top of its queued backlog, and :attr:`busy_ns` accumulates the
overlap-aware device-busy union rather than a sum of makespans.  With
``BatchExecutor(pipeline=False)`` every one of these reduces to the
batch-synchronous behaviour: the clock rides through each makespan and
in-flight remainders are zero.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.metrics import LaneMetrics
from repro.cache.result_cache import ResultCache, resolve_cache
from repro.obs import Observer
from repro.service.executor import BatchExecutor
from repro.service.lanes import HOST_LANE
from repro.service.planner import BatchPlanner, BatchPolicy, LoweredGroup
from repro.service.requests import BatchResult, FrontendRequest, QueuedRequest, invalid_input

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.passes import OptimizerConfig
    from repro.storage.maintenance import MaintenancePolicy


@dataclass
class ArrivalEvent:
    """One request arriving at a point of virtual time.

    Attributes:
        request: The request (primitive or high-level).
        arrival_ns: Arrival timestamp on the frontend's clock.
        priority: Larger values are served first.
        deadline_ns: Absolute completion deadline, or None.
    """

    request: FrontendRequest
    arrival_ns: float
    priority: int = 0
    deadline_ns: Optional[float] = None

    def offer_order(self) -> Tuple[bool, float]:
        """Sort key of a stream's first offers: virtual-time order, with
        non-finite arrivals (rejected as ``"invalid"``) last."""
        return (not math.isfinite(self.arrival_ns), self.arrival_ns)


def poisson_schedule(
    requests: Sequence[FrontendRequest],
    rate_per_s: float,
    seed: int = 0,
    priorities: Optional[Sequence[int]] = None,
    deadline_slack_ns: Optional[float] = None,
    start_ns: float = 0.0,
) -> List[ArrivalEvent]:
    """Schedule requests as a Poisson arrival process.

    Args:
        requests: The requests, in arrival order.
        rate_per_s: Mean arrival rate (requests per second).
        seed: Seed of the exponential inter-arrival draws.
        priorities: Optional per-request priorities.
        deadline_slack_ns: When given, each request's deadline is its
            arrival time plus this slack.
        start_ns: Virtual-clock origin of the process.  When feeding a
            frontend that has already served traffic, pass its
            ``clock_ns`` — arrivals stamped before the frontend's current
            clock would be accounted as having waited since t=0.
    """
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be positive")
    rng = np.random.default_rng(seed)
    events: List[ArrivalEvent] = []
    now = float(start_ns)
    for i, request in enumerate(requests):
        now += rng.exponential(1e9 / rate_per_s)
        events.append(
            ArrivalEvent(
                request=request,
                arrival_ns=now,
                priority=priorities[i] if priorities is not None else 0,
                deadline_ns=now + deadline_slack_ns if deadline_slack_ns is not None else None,
            )
        )
    return events


def trace_schedule(
    requests: Sequence[FrontendRequest],
    arrival_times_ns: Sequence[float],
    priorities: Optional[Sequence[int]] = None,
    deadlines_ns: Optional[Sequence[Optional[float]]] = None,
) -> List[ArrivalEvent]:
    """Schedule requests at recorded trace timestamps."""
    if len(requests) != len(arrival_times_ns):
        raise ValueError("requests and arrival_times_ns differ in length")
    events = []
    for i, (request, at) in enumerate(zip(requests, arrival_times_ns)):
        events.append(
            ArrivalEvent(
                request=request,
                arrival_ns=float(at),
                priority=priorities[i] if priorities is not None else 0,
                deadline_ns=deadlines_ns[i] if deadlines_ns is not None else None,
            )
        )
    return events


class ServiceFrontend:
    """Admission-controlled request frontend over the batch pipeline.

    Args:
        executor: The execution stage (a default one is created on demand).
        planner: The planning stage (defaults to one over ``executor``
            with ``policy``).
        policy: Batch-closing policy for the default planner.
        max_queue_depth: Admission bound on queued (not yet serving)
            requests.
        max_backlog_ns: Admission bound on modeled bank occupancy: the
            backlog already charged to the hottest bank the candidate
            would occupy, plus the candidate's own latency.  None disables
            occupancy-based admission.
        functional: Execute batches on the simulated banks (subject to the
            executor's ``verify_fraction``) instead of analytically.
        shed_low_priority: When over an admission bound, evict queued work
            of strictly lower priority (``rejected_reason="shed"``) to
            make room, instead of only rejecting the candidate at the door.
        optimize: Enable the batch plan optimizer on the default planner:
            ``True`` for the default
            :class:`~repro.optimizer.OptimizerConfig`, or an explicit
            config.  Ignored when an explicit ``planner`` is passed
            (configure that planner directly).
        cache: Cross-batch result cache (``repro.cache``): ``True``
            builds a default :class:`~repro.cache.ResultCache`, an
            instance is adopted as-is (shareable across frontends over
            one device), ``False``/``None`` disables caching.  Enabling
            the cache auto-enables the batch plan optimizer (consults
            and fills ride its canonical-key pass).  Ignored when an
            explicit ``planner`` is passed — the planner's own
            ``result_cache`` wins.
        maintenance: Index-maintenance policy for write requests
            (``repro.storage``): a strategy name (``"eager"``,
            ``"lazy"``, ``"hybrid"``) or a configured
            :class:`~repro.storage.MaintenancePolicy`; ``None`` means
            eager.  Ignored when an explicit ``planner`` is passed.
        observe: Tracing (``repro.obs``): ``True`` records a span tree
            per request (admission → queue → service) and pushes the
            tracer down to the executor (batch + lane spans).  An
            :class:`~repro.obs.Observer` shares its whole plane (tracer
            and registry) across components; ``False`` (the default)
            adopts whatever tracer the executor already carries — so
            either end of the pipeline can switch tracing on.  Frontend
            counters/gauges/histograms are written either way, into the
            executor's registry (this backend's one ledger), and
            planner hotness rides it too.  Tracing never changes
            admission, schedules, results, or accounting.
    """

    def __init__(
        self,
        executor: Optional[BatchExecutor] = None,
        planner: Optional[BatchPlanner] = None,
        policy: Optional[BatchPolicy] = None,
        max_queue_depth: int = 64,
        max_backlog_ns: Optional[float] = None,
        functional: bool = False,
        shed_low_priority: bool = False,
        optimize: Union[bool, "OptimizerConfig"] = False,
        cache: Union[None, bool, ResultCache] = None,
        maintenance: Union[None, str, "MaintenancePolicy"] = None,
        observe: Union[bool, Observer] = False,
    ) -> None:
        if max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive")
        self.executor = executor or BatchExecutor()
        if planner is not None:
            self.planner = planner
            self.cache = planner.result_cache
        else:
            self.cache = resolve_cache(cache)
            self.planner = BatchPlanner(
                self.executor,
                policy,
                optimize=optimize,
                maintenance=maintenance,
                result_cache=self.cache,
            )
        self.max_queue_depth = max_queue_depth
        self.max_backlog_ns = max_backlog_ns
        self.functional = functional
        self.shed_low_priority = shed_low_priority
        self.clock_ns = 0.0
        self.records: List[QueuedRequest] = []
        self.batches: List[BatchResult] = []
        self.busy_ns = 0.0
        self._heap: List = []
        self._seq = 0
        self._backlog_ns = 0.0
        self._bank_backlog: Dict = {key: 0.0 for key in self.executor.active_bank_keys()}
        # The executor's plane is this backend's, so `BatchExecutor(
        # observe=True)` alone traces the full pipeline.
        self.share_plane(observe if isinstance(observe, Observer) else self.executor.obs)
        if observe is True:
            self.bind_observer(Observer())

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def shed_requests(self) -> int:
        """Queued requests evicted by priority-class load shedding over
        the registry's lifetime (the ``frontend.rejected.shed`` count)."""
        return int(self.obs.metrics.count("frontend.rejected.shed"))

    def bind_observer(self, obs: Observer) -> None:
        """Trace into ``obs``'s tracer; the registry stays this
        backend's, so attaching a tracer never resets its counts."""
        self.share_plane(Observer(tracer=obs.tracer, metrics=self.obs.metrics))

    def share_plane(self, obs: Observer) -> None:
        """Record into ``obs`` — tracer *and* registry — and push it to
        the executor and the maintenance policy, whose hotness counters
        (``storage.reads.<column>``) ride the same registry."""
        self.obs = obs
        self.executor.share_plane(obs)
        self.planner.maintenance.metrics = obs.metrics

    def _trace_offered(self, queued: QueuedRequest) -> None:
        """Open the request's root span at arrival."""
        span = self.obs.tracer.span("request", category="request", start_ns=queued.arrival_ns)
        span.set(
            kind=type(queued.request).__name__,
            seq=queued.seq,
            priority=queued.priority,
        )
        if queued.deadline_ns is not None:
            span.set(
                deadline_ns=queued.deadline_ns,
                deadline_slack_ns=queued.deadline_ns - queued.arrival_ns,
            )
        queued.trace = span

    def _obs_admitted(self, queued: QueuedRequest) -> None:
        """Record the admission decision and refresh the queue gauges."""
        registry = self.obs.metrics
        registry.counter("frontend.admitted").inc()
        registry.gauge("frontend.queue_depth").set(float(len(self._heap)))
        registry.gauge("frontend.backlog_ns").set(self.backlog_ns)
        if queued.trace is not None:
            queued.trace.child(
                "admission",
                category="request",
                start_ns=queued.arrival_ns,
                end_ns=queued.arrival_ns,
            ).set(
                admitted=True,
                modeled_ns=queued.modeled_ns,
                modeled_banks=len(queued.modeled_banks),
            )

    def _reject(self, queued: QueuedRequest, reason: str) -> QueuedRequest:
        """Refuse a request at the door: count it, close its root span."""
        self._mark_rejected(queued, reason)
        if queued.trace is not None:
            queued.trace.child(
                "admission",
                category="request",
                start_ns=queued.arrival_ns,
                end_ns=queued.arrival_ns,
            ).set(admitted=False, reason=reason)
            queued.trace.end(queued.arrival_ns).set(status="rejected", reason=reason)
        return queued

    def _mark_rejected(self, queued: QueuedRequest, reason: str) -> None:
        """Mark an envelope rejected with ``reason`` and count it."""
        queued.admitted = False
        queued.rejected_reason = reason
        self.obs.metrics.counter("frontend.rejected").inc()
        self.obs.metrics.counter(f"frontend.rejected.{reason}").inc()

    def _obs_served(self, queued: QueuedRequest, batch_index: int) -> None:
        """Count the completion; when tracing, attach queue/service
        children and close the root at finish."""
        registry = self.obs.metrics
        registry.counter("frontend.completed").inc()
        if queued.deadline_missed:
            registry.counter("frontend.deadline_misses").inc()
        registry.histogram("frontend.wait_ns").observe(queued.wait_ns)
        registry.histogram("frontend.sojourn_ns").observe(queued.sojourn_ns)
        span = queued.trace
        if span is None:
            return
        span.child(
            "queue",
            category="request",
            start_ns=queued.arrival_ns,
            end_ns=queued.start_ns,
        )
        span.child(
            "service",
            category="request",
            start_ns=queued.start_ns,
            end_ns=queued.finish_ns,
        ).set(
            batch=batch_index,
            ops_eliminated=queued.ops_eliminated,
            shared_subchains=queued.shared_subchains,
            host_merge_ns=queued.host_merge_ns,
            cache_hits=queued.cache_hits,
            cache_misses=queued.cache_misses,
        )
        span.end(queued.finish_ns).set(
            status="completed", deadline_missed=queued.deadline_missed
        )

    def _obs_maintenance(self, queued: QueuedRequest, group: LoweredGroup) -> None:
        """Attach a ``maintenance`` child span for index-maintenance work.

        Write requests get one carrying the policy's strategy decisions
        (per-column eager/lazy split, planes charged, invalidations);
        read requests that paid for deferred rebuilds get one naming the
        columns rebuilt into their service window.
        """
        outcome = group.write_outcome
        if outcome is not None:
            request = outcome.request
            span = queued.trace.child(
                "maintenance",
                category="storage",
                start_ns=queued.start_ns,
                end_ns=queued.finish_ns,
            )
            span.set(
                kind=request.kind,
                strategy=self.planner.maintenance.strategy,
                columns=",".join(
                    f"{col}={strat}" for col, strat in sorted(outcome.strategies.items())
                ),
                rows_affected=outcome.rows_affected,
                planes_charged=outcome.planes_charged,
                cache_invalidations=queued.cache_invalidations,
            )
        elif group.rebuild_columns:
            queued.trace.child(
                "maintenance",
                category="storage",
                start_ns=queued.start_ns,
                end_ns=queued.finish_ns,
            ).set(
                kind="rebuild",
                strategy=self.planner.maintenance.strategy,
                columns=",".join(group.rebuild_columns),
            )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests admitted and waiting for a batch."""
        return len(self._heap)

    @property
    def backlog_ns(self) -> float:
        """Modeled queued occupancy of the hottest lane (the admission-binding value)."""
        return max(self._bank_backlog.values(), default=0.0)

    @property
    def mean_backlog_ns(self) -> float:
        """Queued serial latency spread over the banks (the old scalar model)."""
        return self._backlog_ns / self._banks()

    @property
    def completion_ns(self) -> float:
        """When everything dispatched so far finishes: the clock, extended
        by any in-flight lane horizon a pipelined executor still carries."""
        return max(self.clock_ns, self.executor.horizon_ns())

    def bank_backlog(self) -> Dict:
        """Copy of the per-lane backlog vector (lane key -> queued ns)."""
        return dict(self._bank_backlog)

    def lane_metrics(self, name: str = "lanes") -> LaneMetrics:
        """Per-lane utilization snapshot of the executor's timelines."""
        return self.executor.lane_metrics(name)

    def _banks(self) -> int:
        return max(1, self.executor.banks_available())

    def _inflight_ns(self, key) -> float:
        """In-flight (dispatched, unfinished) time still ahead of one lane.

        Zero for a barrier executor, whose in-service time rides on the
        clock itself; for a pipelined one it is the lane's horizon beyond
        the current clock, so admission occupancy keeps counting work the
        banks have accepted but not yet drained.
        """
        return max(0.0, self.executor.lane_horizon_ns(key) - self.clock_ns)

    def _occupancy_with(self, backlog: Dict, queued: QueuedRequest) -> float:
        """Hottest-lane occupancy if ``queued`` were charged onto ``backlog``.

        Occupancy of a lane is its queued backlog plus its in-flight
        remainder; pinned candidates bind on the hottest lane they would
        touch, unpinned ones on the hottest *bank* lane (host-lane load
        never blocks bank-bound work).
        """
        if queued.modeled_banks:
            return max(
                backlog.get(key, 0.0) + self._inflight_ns(key) + queued.modeled_ns
                for key in queued.modeled_banks
            )
        share = queued.modeled_ns / self._banks()
        hottest = max(
            (
                backlog.get(key, 0.0) + self._inflight_ns(key)
                for key in backlog
                if key != HOST_LANE
            ),
            default=0.0,
        )
        return hottest + share

    def _charge(self, queued: QueuedRequest, sign: float) -> None:
        amount = sign * queued.modeled_ns
        if queued.modeled_banks:
            for key in queued.modeled_banks:
                self._bank_backlog[key] = self._bank_backlog.get(key, 0.0) + amount
        else:
            share = amount / self._banks()
            for key in self._bank_backlog:
                if key != HOST_LANE:
                    self._bank_backlog[key] += share
        self._backlog_ns += amount

    def _reset_backlog(self) -> None:
        """Absorb float drift once the queue is empty."""
        self._backlog_ns = 0.0
        for key in self._bank_backlog:
            self._bank_backlog[key] = 0.0

    # ------------------------------------------------------------------
    # Priority-class load shedding
    # ------------------------------------------------------------------
    def _shed_order(self, candidate_priority: int) -> List[QueuedRequest]:
        """Sheddable queued work: lowest priority class first, youngest first."""
        victims = [q for _, q in self._heap if q.priority < candidate_priority]
        victims.sort(key=lambda q: (q.priority, -q.seq))
        return victims

    def _remove_queued(self, queued: QueuedRequest, reason: str) -> None:
        self._heap = [entry for entry in self._heap if entry[1] is not queued]
        heapq.heapify(self._heap)
        self._charge(queued, -1.0)
        if not self._heap:
            self._reset_backlog()
        self._mark_rejected(queued, reason)
        if queued.trace is not None:
            # The span ends when the request leaves the system — at the
            # shed/cancel instant, not its arrival.
            queued.trace.end(self.clock_ns).set(status="rejected", reason=reason)

    def cancel(self, queued: QueuedRequest, reason: str = "cancelled") -> bool:
        """Withdraw a queued, not-yet-served request; True when removed.

        The envelope is marked rejected with ``reason``.  The cluster
        frontend uses this to keep scatter admission all-or-nothing: when
        one shard refuses a sub-request, the siblings already queued on
        other shards are withdrawn instead of running as wasted work.
        """
        if any(entry[1] is queued for entry in self._heap):
            self._remove_queued(queued, reason)
            return True
        return False

    def _uncharge_copy(self, backlog: Dict, victim: QueuedRequest) -> None:
        """Remove a victim's charge from a *copied* backlog vector."""
        if victim.modeled_banks:
            for key in victim.modeled_banks:
                backlog[key] = backlog.get(key, 0.0) - victim.modeled_ns
        else:
            share = victim.modeled_ns / self._banks()
            for key in backlog:
                if key != HOST_LANE:
                    backlog[key] -= share

    def _plan_occupancy_shed(
        self, candidate: QueuedRequest, pre_evicted: Sequence[QueuedRequest] = ()
    ) -> Optional[List[QueuedRequest]]:
        """Victims (beyond ``pre_evicted``) whose eviction fits ``candidate``.

        Planned against a copy of the backlog vector: returns the victim
        list ([] when the candidate already fits), or None when evicting
        the *entire* lower-priority backlog still would not admit it — in
        which case nothing may be shed (work is never wasted on a doomed
        admission).
        """
        backlog = dict(self._bank_backlog)
        for victim in pre_evicted:
            self._uncharge_copy(backlog, victim)
        chosen: List[QueuedRequest] = []
        for victim in self._shed_order(candidate.priority):
            if any(victim is evicted for evicted in pre_evicted):
                continue
            if self._occupancy_with(backlog, candidate) <= self.max_backlog_ns:
                break
            self._uncharge_copy(backlog, victim)
            chosen.append(victim)
        if self._occupancy_with(backlog, candidate) > self.max_backlog_ns:
            return None
        return chosen

    def offer(
        self,
        request: FrontendRequest,
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        arrival_ns: Optional[float] = None,
    ) -> QueuedRequest:
        """Offer one request; returns its envelope (possibly rejected).

        Admission control runs at the request's arrival time against the
        current queue; a rejected envelope has ``admitted=False`` and a
        ``rejected_reason`` and will never be served.  Malformed input
        (see :func:`~repro.service.requests.invalid_input`) is rejected
        as ``"invalid"`` before the clock moves.
        """
        arrival = self.clock_ns if arrival_ns is None else float(arrival_ns)
        queued = QueuedRequest(
            request=request,
            arrival_ns=arrival,
            priority=priority,
            deadline_ns=deadline_ns,
            seq=self._seq,
        )
        self._seq += 1
        self.records.append(queued)
        self.obs.metrics.counter("frontend.offered").inc()
        if invalid_input(request, arrival, deadline_ns):
            return self._reject(queued, "invalid")
        self.clock_ns = max(self.clock_ns, arrival)
        if self.obs.enabled:
            self._trace_offered(queued)

        # Depth check first: a queue-full rejection must not pay for the
        # latency model (for scans that is a full host-side evaluation).
        # With shedding on, a lower-priority victim *can* make room — but
        # its eviction is deferred until the whole admission plan (depth
        # plus occupancy) is known to fit, so no victim is ever destroyed
        # for a candidate that is rejected anyway.
        victims: List[QueuedRequest] = []
        if len(self._heap) >= self.max_queue_depth:
            if self.shed_low_priority:
                sheddable = self._shed_order(priority)
                if sheddable:
                    victims.append(sheddable[0])
            if not victims:
                return self._reject(queued, "queue_full")
        queued.modeled_ns = self.planner.modeled_latency_ns(request)
        queued.modeled_banks = self.planner.modeled_banks(request)
        if self.max_backlog_ns is not None:
            if self.shed_low_priority:
                extra = self._plan_occupancy_shed(queued, pre_evicted=victims)
                if extra is None:
                    return self._reject(queued, "bank_occupancy")
                victims.extend(extra)
            elif self._occupancy_with(self._bank_backlog, queued) > self.max_backlog_ns:
                return self._reject(queued, "bank_occupancy")
        for victim in victims:
            self._remove_queued(victim, "shed")
        heapq.heappush(self._heap, (queued.sort_key(), queued))
        self._charge(queued, 1.0)
        self._obs_admitted(queued)
        return queued

    # ------------------------------------------------------------------
    # Service
    # ------------------------------------------------------------------
    def _queued(self) -> List[QueuedRequest]:
        return [q for _, q in self._heap]

    def _dispatch_ready_ns(self) -> float:
        """Earliest instant the *next* batch may be dispatched.

        A pipelined batch dispatches as soon as some bank lane is free
        (:meth:`BatchExecutor.ready_ns`); a batch made entirely of
        host-only work gates on the host lane instead — host work must
        never wait for a bank it will not touch.  Always the current
        clock's past (0) for a barrier executor.
        """
        if not self.executor.pipeline:
            return 0.0
        size = min(self.planner.policy.max_batch, len(self._heap))
        head = heapq.nsmallest(size, self._heap)
        if head and all(q.modeled_banks == [HOST_LANE] for _, q in head):
            return self.executor.lane_horizon_ns(HOST_LANE)
        return self.executor.ready_ns()

    def serve_batch(self, urgent: bool = False) -> Optional[BatchResult]:
        """Close and execute one batch from the queue (None when empty).

        The batch is dispatched at the current clock (lifted, under
        pipelining, to the first instant a bank lane is free).  A barrier
        executor then occupies the clock for the batch makespan; a
        pipelined one leaves the clock at the dispatch instant and lets
        the work ride the lane horizons, so the next batch can dispatch
        onto banks this one never touched — or has already drained.
        Lowered groups report the start of their first primitive and the
        finish of their last (plus any host-side merge the optimizer's
        sub-chain split charges).

        Args:
            urgent: Skip the pipelined dispatch gate: a horizon-priced
                deadline close (:meth:`BatchPlanner.urgent_close`) must
                reach its lane *now*, not after a full extra batch has
                drained — the lane schedule still serializes the actual
                placements.
        """
        if not self._heap:
            return None
        pipelined = self.executor.pipeline
        if pipelined and not urgent:
            # Dispatch gate: wait (on the virtual clock) until a lane is free.
            self.clock_ns = max(self.clock_ns, self._dispatch_ready_ns())
        size = min(self.planner.policy.max_batch, len(self._heap))
        closed: List[QueuedRequest] = []
        for _ in range(size):
            _, queued = heapq.heappop(self._heap)
            self._charge(queued, -1.0)
            closed.append(queued)
        if not self._heap:
            self._reset_backlog()

        primitives, groups = self.planner.lower_batch(closed)
        batch_start = self.clock_ns
        batch_index = len(self.batches)
        if self.obs.enabled:
            # Instant marker on the batch row: what planning/optimization
            # did to this batch before it hit the lanes.
            self.obs.tracer.span(
                "plan",
                category="planner",
                start_ns=batch_start,
                end_ns=batch_start,
                track=(self.executor.batches_track(),),
            ).set(
                batch=batch_index,
                requests=len(closed),
                primitives=len(primitives),
                ops_eliminated=sum(g.ops_eliminated for g in groups),
                shared_subchains=sum(g.shared_subchains for g in groups),
            )
        batch = self.executor.run(
            primitives, functional=self.functional, release_ns=batch_start
        )
        # Park the batch's finished bitmaps in the result cache.  This
        # must happen *after* the run (the fill buffers are the lowered
        # chains' output vectors) and rides the optimizer's epoch guard:
        # a fill whose dependency columns took a write since plan time is
        # bypassed instead of caching a stale bitmap.
        self.planner.commit_cache_fills()
        for group in groups:
            queued = group.queued
            queued.batch_index = batch_index
            # A request's service spans its own steps *plus* any shared
            # steps it consumes (CSE deps bound its finish but are only
            # charged to their owner); split-mode host joins extend the
            # finish by the merge tree.
            cone = list(group.indices) + list(group.dep_indices)
            if cone:
                # Result start times are absolute against the frontend
                # clock (the executor scheduled from ``release_ns``).
                results = [batch.results[i] for i in cone]
                queued.start_ns = min(r.start_ns for r in results)
                queued.finish_ns = (
                    max(r.start_ns + r.metrics.latency_ns for r in results)
                    + group.host_merge_ns
                )
                own = [batch.results[i] for i in group.indices]
                queued.metrics = self.planner.group_metrics(group, own)
                queued.value = group.finalize(own)
            else:
                queued.start_ns = batch_start
                queued.finish_ns = batch_start + group.host_merge_ns
                queued.metrics = group.zero_cost_metrics
                queued.value = group.finalize([])
            queued.host_merge_ns = group.host_merge_ns
            queued.ops_eliminated = group.ops_eliminated
            queued.shared_subchains = group.shared_subchains
            queued.cache_hits = group.cache_hits
            queued.cache_misses = group.cache_misses
            queued.cache_invalidations = group.cache_invalidations
            self._obs_served(queued, batch_index)
            if queued.trace is not None:
                self._obs_maintenance(queued, group)
        batch.metrics.ops_eliminated = sum(g.ops_eliminated for g in groups)
        batch.metrics.shared_subchains = sum(g.shared_subchains for g in groups)
        batch.metrics.cache_hits = sum(g.cache_hits for g in groups)
        batch.metrics.cache_misses = sum(g.cache_misses for g in groups)
        batch.metrics.cache_invalidations = sum(g.cache_invalidations for g in groups)
        registry = self.obs.metrics
        registry.gauge("frontend.queue_depth").set(float(len(self._heap)))
        registry.gauge("frontend.backlog_ns").set(self.backlog_ns)
        if batch.metrics.cache_hits:
            registry.counter("cache.hit").inc(batch.metrics.cache_hits)
        if batch.metrics.cache_misses:
            registry.counter("cache.miss").inc(batch.metrics.cache_misses)
        if batch.metrics.cache_invalidations:
            registry.counter("cache.invalidations").inc(batch.metrics.cache_invalidations)
        if not pipelined:
            self.clock_ns = batch_start + batch.metrics.latency_ns
        self.busy_ns += batch.metrics.busy_ns
        self.batches.append(batch)
        return batch

    def drain(self) -> None:
        """Serve batches until the queue is empty, then ride out the lanes.

        On return the clock sits at the completion horizon, so a reused
        frontend starts its next stream against an idle executor exactly
        as a barrier one would.
        """
        while self._heap:
            self.serve_batch()
        self.clock_ns = max(self.clock_ns, self.executor.horizon_ns())

    def advance_to(self, until_ns: float) -> None:
        """Advance the virtual clock towards ``until_ns``, serving batches.

        Serves every batch the policy closes strictly before ``until_ns``,
        then stops so a pending arrival at ``until_ns`` can be admitted
        against the live queue.  With a barrier executor the clock may
        overshoot by an in-flight batch's makespan (service is
        batch-synchronous); a pipelined executor instead gates dispatch
        on :meth:`BatchExecutor.ready_ns` — a batch closes as soon as
        some bank lane is free, not when the whole previous batch has
        drained.  The clock is *not* lifted to ``until_ns``;
        :meth:`offer` does that at arrival.  Shared by
        :class:`~repro.api.session.PimSession` and the cluster frontend.
        """
        while self._heap and self.clock_ns < until_ns:
            if self.planner.should_close(self._queued(), self.clock_ns):
                # An urgent (horizon-priced deadline) close bypasses the
                # dispatch gate: waiting for a free lane is exactly what
                # would miss the deadline.  The lane schedule still
                # serializes the placements themselves.
                urgent = self.planner.urgent_close(self._queued(), self.clock_ns)
                ready = self._dispatch_ready_ns()
                if ready > self.clock_ns and not urgent:
                    # Every lane the next batch would use is busy: the
                    # next dispatch instant is when the first one drains.
                    if ready >= until_ns:
                        break
                    self.clock_ns = ready
                    continue
                self.serve_batch(urgent=urgent)
                continue
            # Sleep until the policy's next closing instant (window expiry /
            # the last moment an urgent deadline can still start on time).
            wake = self.planner.next_close_ns(self._queued(), self.clock_ns)
            if wake >= until_ns or wake <= self.clock_ns or math.isinf(wake):
                break
            self.clock_ns = wake
