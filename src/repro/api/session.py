"""``PimSession``: one submit/future surface over every execution tier.

A session is the one way to run a workload against any tier — the
single-device service tier, the sharded cluster tier, or the serial host
baseline — and :meth:`PimSession.report` is the one stream summary::

    session = PimSession.over_cluster(num_shards=4)   # or .over_service()
    f1 = session.scan(column, "between", 10, 99, priority=1)
    f2 = session.conjunction(index, [("region", (1, 2)), ("status", (0,))])
    f3 = session.range_count(column, 32, 57)
    response = f1.result()          # drains the backend if needed
    print(response.matching_rows, response.latency_ns, response.details)
    print(session.report())         # unified SessionReport, any tier

* **Constructors** (:meth:`~PimSession.scan`,
  :meth:`~PimSession.conjunction`, :meth:`~PimSession.range_count`, and
  the writes :meth:`~PimSession.append` / :meth:`~PimSession.update` /
  :meth:`~PimSession.delete`) build the request the backends queue —
  :class:`~repro.service.requests.ScanRequest`,
  :class:`~repro.service.requests.BitmapConjunctionRequest`, or a
  :mod:`repro.storage.requests` write — and submit it at the session's
  virtual clock; :meth:`~PimSession.submit` takes such a request as is.
  The session adds only timing and futures.
* **Futures** wrap the backend's envelope: ``done()``, ``status``,
  ``result()`` (which virtually blocks — it drains the backend), and the
  per-request timing surface.
* **One Response shape** regardless of tier: value bits, matching rows,
  scan + host-epilogue latency/energy, queueing timestamps, and a typed
  ``details`` field carrying the tier-specific extras
  (:class:`ServiceDetails` / :class:`ClusterDetails` /
  :class:`HostDetails`).
* **Windowed reporting**: a session snapshots its backend at
  construction and :meth:`~PimSession.report` summarizes only *its own*
  traffic, so several sessions can share one long-lived backend without
  folding each other's requests into their reports.

A session works over anything speaking the
:class:`~repro.api.backends.Backend` protocol; bit-exactness of the same
workload across tiers is pinned by ``tests/test_api_session.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.metrics import (
    ClusterMetrics,
    QueueMetrics,
    summarize_queue_records,
)
from repro.api.backends import Backend, HostBackend
from repro.cluster.frontend import FAILURE_REASONS
from repro.database.bitmap_index import BitmapIndex
from repro.database.queries import QueryEngine
from repro.obs import Observer, resolve_observe
from repro.service.frontend import ArrivalEvent
from repro.service.requests import BitmapConjunctionRequest, ScanRequest
from repro.storage.requests import (
    AppendRequest,
    DeleteRequest,
    UpdateRequest,
    is_write_request,
)


class RequestRejected(RuntimeError):
    """Raised by :meth:`Future.result` when admission refused the request.

    Attributes:
        reason: The backend's ``rejected_reason`` (``"queue_full"``,
            ``"bank_occupancy"``, ``"shed"``, ``"cancelled"``, ...).
    """

    def __init__(self, reason: str) -> None:
        super().__init__(f"request rejected by admission control ({reason})")
        self.reason = reason


class RequestFailed(RequestRejected):
    """Raised when the request was lost to an infrastructure failure
    rather than refused by admission control.  Subclasses
    :class:`RequestRejected` so existing ``except RequestRejected``
    handlers keep working, but lets fault-aware callers distinguish
    "the system said no" from "the system broke"."""

    def __init__(self, reason: str) -> None:
        RuntimeError.__init__(self, f"request failed ({reason})")
        self.reason = reason


class ShardUnavailable(RequestFailed):
    """Raised when a request was stranded because no routable replica
    could absorb it: the shard holding its data died, drained, or was
    retired with nowhere to re-offer the work (``"shard_failed"``,
    ``"shard_unavailable"``, ``"shard_retired"``)."""


def _rejection(reason: str) -> RequestRejected:
    """Typed outcome for an unadmitted record: failure reasons from the
    cluster's fault path map to :class:`ShardUnavailable`, everything
    else stays a plain admission :class:`RequestRejected`."""
    if reason in FAILURE_REASONS:
        return ShardUnavailable(reason)
    return RequestRejected(reason)


# ----------------------------------------------------------------------
# Tier-specific response details
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceDetails:
    """Service-tier extras: which batch served the request, what the
    admission model charged for it, and how the result cache treated it."""

    batch_index: int
    modeled_ns: float
    modeled_banks: Tuple = ()
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0


@dataclass(frozen=True)
class ClusterDetails:
    """Cluster-tier extras: where the request ran, what the gather cost,
    and how the shard-local result caches treated it."""

    shard_ids: Tuple[int, ...]
    fanout: int
    host_merge_ns: float
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    failovers: int = 0


@dataclass(frozen=True)
class HostDetails:
    """Host-tier extras (none: a single core has no placement to report)."""


ResponseDetails = Union[ServiceDetails, ClusterDetails, HostDetails]


@dataclass
class Response:
    """The unified outcome of one session request, identical across tiers.

    The per-request fields live here, the per-stream roll-up in
    :class:`SessionReport`.

    Attributes:
        kind: What was asked (``"scan"``, ``"range_count"``,
            ``"conjunction"``, a write — ``"append"`` / ``"update"`` /
            ``"delete"`` — or ``"request"`` for raw primitives).
        status: ``"completed"`` or ``"rejected"``.
        value: The packed result bitmap (None when rejected, or for
            requests without a bitmap result).
        matching_rows: COUNT(*) of the predicate (None when not a query).
        latency_ns: Scan service latency plus the host epilogue
            (popcount + materialization) — the end-to-end query latency.
        energy_j: Scan plus epilogue energy.
        breakdown: Latency components (``scan_ns`` / ``epilogue_ns``).
        arrival_ns / start_ns / finish_ns: Queueing timestamps on the
            backend's virtual clock (NaN when rejected).
        wait_ns / sojourn_ns: Arrival-to-start / arrival-to-finish.
        deadline_missed: True when service finished past the deadline.
        rejected_reason: Why admission refused it ("" when completed).
        details: Tier-specific extras (typed by backend tier).
        trace: Root :class:`repro.obs.Span` of the request's lifecycle
            when the backend's observability plane was recording
            (``observe=True``); None otherwise.
    """

    kind: str
    status: str
    value: Any = None
    matching_rows: Optional[int] = None
    latency_ns: float = 0.0
    energy_j: float = 0.0
    breakdown: Dict[str, float] = field(default_factory=dict)
    arrival_ns: float = math.nan
    start_ns: float = math.nan
    finish_ns: float = math.nan
    wait_ns: float = math.nan
    sojourn_ns: float = math.nan
    deadline_missed: bool = False
    rejected_reason: str = ""
    details: ResponseDetails = field(default_factory=HostDetails)
    trace: Any = field(default=None, repr=False, compare=False)

    @property
    def completed(self) -> bool:
        """True when the request finished service."""
        return self.status == "completed"


class Future:
    """Handle to one submitted request.

    Cheap to hold, lazy to resolve: the backend simulates in virtual
    time, so :meth:`result` "blocks" by draining the session's backend
    and then materializes the unified :class:`Response`.

    Attributes:
        request: The request the backend queued.
        record: The backend's envelope (tier-specific; the protocol
            surface — ``admitted``, ``completed``, ``value``,
            ``metrics``, timing — is what the session reads).
    """

    def __init__(
        self,
        session: "PimSession",
        request: Any,
        record: Any,
        kind: str,
    ) -> None:
        self._session = session
        self.request = request
        self.record = record
        self.kind = kind
        self._response: Optional[Response] = None

    def done(self) -> bool:
        """True once the request has been served (never for rejected ones)."""
        return bool(self.record.completed)

    @property
    def status(self) -> str:
        """``"queued"``, ``"completed"``, or ``"rejected"``."""
        if not self.record.admitted:
            return "rejected"
        return "completed" if self.record.completed else "queued"

    @property
    def metrics(self) -> Any:
        """The backend-charged service cost (None before service)."""
        return self.record.metrics

    @property
    def wait_ns(self) -> float:
        """Arrival to service start (NaN before service)."""
        return self.record.wait_ns

    @property
    def sojourn_ns(self) -> float:
        """Arrival to completion (NaN before service)."""
        return self.record.sojourn_ns

    @property
    def trace(self) -> Any:
        """Root :class:`repro.obs.Span` of this request's lifecycle, or
        None unless the backend records with ``observe=True``."""
        return getattr(self.record, "trace", None)

    def result(self) -> Response:
        """The unified response; drains the backend when still queued.

        Raises:
            RequestRejected: When admission refused the request — at the
                door, by load shedding, or by an all-or-nothing scatter.
            ShardUnavailable: When an infrastructure failure stranded it
                — the shard holding its data died or was retired with no
                routable replica to absorb the re-offer.
        """
        if self._response is not None and self._response.completed:
            return self._response
        if not self.record.admitted:
            raise _rejection(self.record.rejected_reason)
        if not self.record.completed:
            self._session.drain()
        if not self.record.admitted:  # e.g. shed or cancelled while queued
            raise _rejection(self.record.rejected_reason)
        if not self.record.completed:
            raise RuntimeError("request did not complete after drain")
        self._response = self._session._build_response(self)
        return self._response

    def response(self) -> Response:
        """Like :meth:`result`, but rejections return a ``"rejected"``
        response instead of raising."""
        try:
            return self.result()
        except RequestRejected:
            return Response(
                kind=self.kind,
                status="rejected",
                rejected_reason=self.record.rejected_reason,
                arrival_ns=self.record.arrival_ns,
                details=self._session._details_for(self.record),
                trace=self.trace,
            )


_SHARED_METRIC_FIELDS = (
    "offered",
    "admitted",
    "rejected",
    "shed",
    "completed",
    "deadline_misses",
    "wait_p50_ns",
    "wait_p99_ns",
    "sojourn_p50_ns",
    "sojourn_p99_ns",
    "makespan_ns",
    "busy_ns",
    "serial_latency_ns",
    "energy_j",
    "host_merge_ns",
    "ops_eliminated",
    "shared_subchains",
    "cache_hits",
    "cache_misses",
    "cache_invalidations",
)


@dataclass
class SessionReport:
    """The unified per-stream roll-up, identical in shape across tiers.

    The common queueing surface (counts, percentiles, makespan, busy
    time, serial latency, energy) reads directly off the report; the
    full tier-specific metrics object stays available in ``details`` —
    :class:`~repro.analysis.metrics.QueueMetrics` for the service and
    host tiers, :class:`~repro.analysis.metrics.ClusterMetrics` (with
    utilization, imbalance, fan-out, host merge cost) for the cluster.

    Attributes:
        name: Label of the report.
        tier: ``"service"``, ``"cluster"``, or ``"host"``.
        requests: Futures this session submitted.
        details: The underlying tier metrics object.
        obs: Metrics-registry snapshot
            (``{"counters", "gauges", "histograms"}``) when the session's
            observability plane is recording; None otherwise.  Note the
            registry is plane-wide: a shared backend accumulates across
            sessions, unlike the windowed fields above.
    """

    name: str
    tier: str
    requests: int
    details: Union[QueueMetrics, ClusterMetrics]
    obs: Optional[Dict[str, Any]] = None

    def __getattr__(self, item: str) -> Any:
        # Delegate the shared queueing surface to the tier metrics; keeps
        # one report shape without duplicating fifteen fields.
        if item in _SHARED_METRIC_FIELDS or item in (
            "rejection_rate",
            "deadline_miss_rate",
        ):
            return getattr(self.details, item)
        raise AttributeError(item)


class PimSession:
    """One submit/future client surface over any :class:`Backend`.

    Args:
        backend: The execution tier — a
            :class:`~repro.service.frontend.ServiceFrontend`, a
            :class:`~repro.cluster.frontend.ClusterFrontend`, or a
            :class:`~repro.api.backends.HostBackend` (anything speaking
            the protocol).
        coster: Host-side query cost model for the epilogue (popcount +
            materialization).  Defaults to a :class:`QueryEngine` sharing
            the backend's engine.
        name: Default label of this session's reports.
        observe: Tracing (``repro.obs``): ``True`` attaches a fresh
            tracer to the backend (span trees per request, plus the
            backend's counters/histograms in ``report().obs``); an
            observer lends its tracer.  Either way the backend keeps its
            own metrics registry, so opening a traced session over a
            warm backend never resets or forks its counts.  ``False``
            (the default) adopts whatever tracer the backend already
            carries, so ``PimSession.over_service(observe=True)`` — the
            knob forwarded to the frontend — also lights up the session
            surface.  The host backend has no spans (it executes
            immediately); a session over it records nothing.
    """

    def __init__(
        self,
        backend: Backend,
        coster: Optional[QueryEngine] = None,
        name: str = "session",
        observe: Union[bool, Observer] = False,
    ) -> None:
        self.backend = backend
        self.name = name
        self.tier = self._tier_of(backend)
        binder = getattr(backend, "bind_observer", None)
        if observe is not False and binder is not None:
            binder(resolve_observe(observe))
        self.obs: Observer = getattr(backend, "obs", None) or resolve_observe(observe)
        self.futures: List[Future] = []
        self._coster = coster or self._default_coster()
        # Window snapshot: report() covers only this session's traffic.
        self._clock0 = backend.clock_ns
        if self.tier == "cluster":
            # Per-shard window origins: never before the session itself
            # (an idle shard's clock lags the cluster), never before the
            # shard's own clock (it may be mid-batch past the origin).
            self._shard_clock0 = [
                max(s.clock_ns, self._clock0) for s in backend.shards
            ]

    # ------------------------------------------------------------------
    # Construction conveniences
    # ------------------------------------------------------------------
    @classmethod
    def over_service(
        cls, engine=None, coster=None, name="service_session", pipeline=True, **kwargs
    ) -> "PimSession":
        """A session over a fresh single-device :class:`ServiceFrontend`.

        ``engine`` is the :class:`~repro.ambit.engine.AmbitEngine` to
        execute on (a vectorized default is built when omitted);
        ``pipeline`` selects lane-pipelined vs batch-synchronous dispatch
        (see :class:`~repro.service.executor.BatchExecutor`); other
        keyword arguments go to the frontend (``policy``,
        ``max_queue_depth``, ``max_backlog_ns``, ``functional``,
        ``shed_low_priority``, ``optimize`` for the batch plan
        optimizer, ``observe`` for the observability plane — the session
        adopts the frontend's plane automatically).
        """
        from repro.service.executor import BatchExecutor  # local: avoid cycle
        from repro.service.frontend import ServiceFrontend  # local: avoid cycle

        frontend = ServiceFrontend(
            executor=BatchExecutor(engine=engine, pipeline=pipeline), **kwargs
        )
        return cls(frontend, coster=coster, name=name)

    @classmethod
    def over_cluster(
        cls,
        num_shards: int = 2,
        coster: Optional[QueryEngine] = None,
        name: str = "cluster_session",
        **kwargs: Any,
    ) -> "PimSession":
        """A session over a fresh N-shard :class:`ClusterFrontend`.

        Keyword arguments go to the cluster frontend (``router``,
        ``engine_factory``, ``policy``, admission knobs,
        ``merge_ns_per_op``, ``optimize`` for shard-local batch plan
        optimizers, ``observe`` for a cluster-wide observability plane —
        the session adopts the cluster's plane automatically).
        """
        from repro.cluster.frontend import ClusterFrontend  # local: avoid cycle

        return cls(ClusterFrontend(num_shards=num_shards, **kwargs), coster=coster, name=name)

    @classmethod
    def over_host(
        cls, coster: Optional[QueryEngine] = None, name: str = "host_session"
    ) -> "PimSession":
        """A session over the serial host-CPU baseline backend."""
        return cls(HostBackend(coster=coster), coster=coster, name=name)

    # ------------------------------------------------------------------
    # Request constructors
    # ------------------------------------------------------------------
    def scan(
        self,
        column,
        kind: str,
        *constants: int,
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        at_ns: Optional[float] = None,
    ) -> Future:
        """Submit one BitWeaving predicate scan; returns its future."""
        request = ScanRequest(column=column, kind=kind, constants=tuple(constants))
        return self._submit(request, "scan", priority, deadline_ns, at_ns)

    def range_count(
        self,
        column,
        low: int,
        high: int,
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        at_ns: Optional[float] = None,
    ) -> Future:
        """Submit ``SELECT COUNT(*) WHERE low <= col <= high``."""
        request = ScanRequest(column=column, kind="between", constants=(low, high))
        return self._submit(request, "range_count", priority, deadline_ns, at_ns)

    def conjunction(
        self,
        index,
        predicates: Sequence[Tuple[str, Sequence[int]]],
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        at_ns: Optional[float] = None,
    ) -> Future:
        """Submit a bitmap-index conjunction of per-column ``IN`` predicates."""
        request = BitmapConjunctionRequest(index=index, predicates=tuple(predicates))
        return self._submit(request, "conjunction", priority, deadline_ns, at_ns)

    def append(
        self,
        table,
        index,
        rows,
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        at_ns: Optional[float] = None,
    ) -> Future:
        """Submit a row append; the response value is rows appended."""
        request = AppendRequest(table=table, index=index, rows=rows)
        return self._submit(request, "append", priority, deadline_ns, at_ns)

    def update(
        self,
        table,
        index,
        column: str,
        row_ids: Sequence[int],
        values: Sequence[int],
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        at_ns: Optional[float] = None,
    ) -> Future:
        """Submit ``column[row_ids] = values``; the response value is rows
        overwritten.  Row ids must be unique within one update."""
        request = UpdateRequest(
            table=table,
            index=index,
            column=column,
            row_ids=tuple(row_ids),
            values=tuple(values),
        )
        return self._submit(request, "update", priority, deadline_ns, at_ns)

    def delete(
        self,
        table,
        index,
        row_ids: Sequence[int],
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        at_ns: Optional[float] = None,
    ) -> Future:
        """Submit a physical row deletion; the response value is rows
        removed (rows after them renumber down)."""
        request = DeleteRequest(table=table, index=index, row_ids=tuple(row_ids))
        return self._submit(request, "delete", priority, deadline_ns, at_ns)

    def submit(
        self,
        work,
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        at_ns: Optional[float] = None,
    ) -> Future:
        """Submit a request as is (the shape arrival schedulers produce).

        The request passes through untouched, so its cached evaluations
        are preserved.  The response kind follows its type: ``"scan"``,
        ``"conjunction"``, the write's own kind, or ``"request"`` for
        anything else.  A type no backend serves is rejected as
        ``"invalid"``.
        """
        if isinstance(work, ScanRequest):
            kind = "scan"
        elif isinstance(work, BitmapConjunctionRequest):
            kind = "conjunction"
        elif is_write_request(work):
            kind = work.kind
        else:
            kind = "request"
        return self._submit(work, kind, priority, deadline_ns, at_ns)

    def submit_stream(self, events: Iterable[ArrivalEvent]) -> List[Future]:
        """Submit a whole arrival stream; futures come back in event order.

        Arrivals are processed in virtual-time order: before each offer
        the backend advances to the arrival, serving whatever its policy
        closes in between.  Events with a non-finite arrival go last and
        come back rejected as ``"invalid"``.  Follow with :meth:`drain`
        and :meth:`report` to serve and summarize the whole stream.
        """
        events = list(events)
        futures: List[Optional[Future]] = [None] * len(events)
        order = sorted(range(len(events)), key=lambda i: events[i].offer_order())
        for i in order:
            event = events[i]
            futures[i] = self.submit(
                event.request,
                priority=event.priority,
                deadline_ns=event.deadline_ns,
                at_ns=event.arrival_ns,
            )
        return futures  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Clock and lifecycle
    # ------------------------------------------------------------------
    @property
    def clock_ns(self) -> float:
        """The backend's virtual clock."""
        return self.backend.clock_ns

    def advance_to(self, until_ns: float) -> None:
        """Advance the backend's clock towards ``until_ns``, serving work."""
        self.backend.advance_to(until_ns)

    def drain(self) -> None:
        """Serve everything queued (futures become resolvable)."""
        self.backend.drain()

    def close(self) -> None:
        """Drain the backend and hand pooled device rows back.

        Call when the session owns a one-shot backend; a shared backend
        should instead be closed by whoever owns it.
        """
        self.drain()
        for executor in self._executors():
            executor.pool.drain()

    def responses(self) -> List[Response]:
        """Every future's response, submission order (rejections included)."""
        self.drain()
        return [future.response() for future in self.futures]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, name: Optional[str] = None) -> SessionReport:
        """Summarize this session's own traffic into a unified report.

        Both ends of the window are the session's own: the start is the
        backend clock at construction, and — once every future is
        terminal — the end is the last own completion (for the service
        and host tiers, busy time and batch counts come from the batches
        that served *this session's* requests).  Traffic other sessions
        push through a shared backend before or after therefore never
        leaks into the time-based fields, matching the counts.
        """
        label = name or self.name
        records = [future.record for future in self.futures]
        if self.tier == "cluster":
            self.backend.gather()
            parts_by_shard: Dict[int, List] = {}
            for record in records:
                for shard_id, part in zip(record.shard_ids, record.parts):
                    parts_by_shard.setdefault(shard_id, []).append(part)
            per_shard = [
                self._shard_window(f"{label}/shard{i}", shard, parts_by_shard.get(i, []), i)
                for i, shard in enumerate(self.backend.shards)
            ]
            merge_ops = sum(
                max(0, len(r.parts) - 1) for r in records if r.completed
            )
            elastic = getattr(self.backend, "elastic_summary", None)
            metrics: Union[QueueMetrics, ClusterMetrics] = ClusterMetrics.from_records(
                label,
                records,
                per_shard,
                merge_ops=merge_ops,
                clock_offset=self._clock0,
                # Failover/scale accounting is cluster-lifetime, not
                # windowed: shard deaths reshape every session's traffic.
                elastic=elastic() if callable(elastic) else None,
            )
        else:
            metrics = summarize_queue_records(
                label,
                records,
                makespan_ns=self._window_makespan(records),
                busy_ns=self._window_busy(records),
                batches=self._window_batches(records),
            )
        return SessionReport(
            name=label,
            tier=self.tier,
            requests=len(self.futures),
            details=metrics,
            obs=self.obs.snapshot() if self.obs.enabled else None,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _tier_of(backend: Backend) -> str:
        if hasattr(backend, "shards"):
            return "cluster"
        if isinstance(backend, HostBackend):
            return "host"
        return "service"

    def _default_coster(self) -> QueryEngine:
        if self.tier == "host":
            return self.backend.coster
        if self.tier == "cluster":
            return QueryEngine(ambit=self.backend.shards[0].executor.engine)
        return QueryEngine(ambit=self.backend.executor.engine)

    def _executors(self) -> List[Any]:
        if self.tier == "cluster":
            return [shard.executor for shard in self.backend.shards]
        if self.tier == "service":
            return [self.backend.executor]
        return []

    # -- Session-window accounting -------------------------------------
    #
    # Both window ends belong to the session: makespan runs from the
    # construction-time clock to the last own completion (falling back to
    # the live clock while futures are still queued), and busy time /
    # batch counts are attributed through the batches that actually
    # served this session's requests (shared batches split by
    # serial-latency share) — so a shared backend's other traffic never
    # leaks into the time-based fields.

    @staticmethod
    def _all_terminal(records: Sequence[Any]) -> bool:
        return all((not r.admitted) or r.completed for r in records)

    def _window_makespan(self, records: Sequence[Any]) -> float:
        completed = [r for r in records if r.completed]
        if records and self._all_terminal(records):
            return max((r.finish_ns - self._clock0 for r in completed), default=0.0)
        # Mid-stream: cover the in-flight lane horizon, not just the
        # dispatch clock — a pipelined backend's clock lags completions.
        return getattr(self.backend, "completion_ns", self.backend.clock_ns) - self._clock0

    def _window_busy(self, records: Sequence[Any]) -> float:
        completed = [r for r in records if r.completed]
        if self.tier == "host":
            return sum(r.metrics.latency_ns for r in completed)
        return self._apportioned_busy(self.backend, completed)

    def _window_batches(self, records: Sequence[Any]) -> int:
        completed = [r for r in records if r.completed]
        if self.tier == "host":
            return len(completed)
        return len(self._own_batches(self.backend, completed))

    @staticmethod
    def _own_batches(frontend: Any, completed: Sequence[Any]) -> List[int]:
        """Indices of the frontend batches that served ``completed``."""
        return sorted(
            {r.batch_index for r in completed if 0 <= r.batch_index < len(frontend.batches)}
        )

    @staticmethod
    def _apportioned_busy(frontend: Any, completed: Sequence[Any]) -> float:
        """Executor busy time attributed to ``completed``'s batches.

        A batch that also served another session's requests is split by
        serial-latency share, so concurrently interleaved sessions over
        one backend sum to the backend's actual busy time instead of each
        counting the shared batch in full.  Each batch contributes its
        overlap-aware device-busy time (:attr:`BatchMetrics.busy_ns`):
        under lane pipelining that is the busy-union the batch *added*,
        so completion time a batch spent overlapped with its predecessor
        on other banks is never double-counted; for a batch-synchronous
        backend it is exactly the batch makespan.
        """
        own_serial: Dict[int, float] = {}
        for record in completed:
            if 0 <= record.batch_index < len(frontend.batches):
                own_serial[record.batch_index] = (
                    own_serial.get(record.batch_index, 0.0) + record.metrics.latency_ns
                )
        busy = 0.0
        for index, serial in own_serial.items():
            batch = frontend.batches[index].metrics
            if batch.serial_latency_ns > 0:
                busy += batch.busy_ns * min(1.0, serial / batch.serial_latency_ns)
        return busy

    def _shard_window(self, label: str, shard, own_parts, shard_id: int) -> QueueMetrics:
        """One shard's queueing summary over this session's own parts."""
        # Shards joined elastically after the session opened have no
        # recorded origin; their window starts at the session's own.
        clock0 = (
            self._shard_clock0[shard_id]
            if shard_id < len(self._shard_clock0)
            else self._clock0
        )
        completed = [p for p in own_parts if p.completed]
        if own_parts and self._all_terminal(own_parts):
            makespan = max((p.finish_ns - clock0 for p in completed), default=0.0)
        elif own_parts:
            makespan = shard.completion_ns - clock0
        else:
            makespan = 0.0
        return summarize_queue_records(
            label,
            own_parts,
            makespan_ns=makespan,
            busy_ns=self._apportioned_busy(shard, completed),
            batches=len(self._own_batches(shard, completed)),
        )

    def _submit(self, request, kind, priority, deadline_ns, at_ns) -> Future:
        arrival = self.backend.clock_ns if at_ns is None else float(at_ns)
        # Serve whatever the policy closes before this arrival, so
        # admission sees the live queue.  A non-finite arrival moves no
        # clock: the backend rejects it as invalid at the door.
        if math.isfinite(arrival):
            self.backend.advance_to(arrival)
        record = self.backend.offer(
            request, priority=priority, deadline_ns=deadline_ns, arrival_ns=arrival
        )
        if self.obs.enabled:
            trace = getattr(record, "trace", None)
            if trace is not None:
                trace.set(submitted=kind, session=self.name)
        future = Future(self, request, record, kind)
        self.futures.append(future)
        return future

    def _details_for(self, record) -> ResponseDetails:
        if self.tier == "cluster":
            return ClusterDetails(
                shard_ids=tuple(record.shard_ids),
                fanout=len(record.shard_ids),
                host_merge_ns=getattr(record, "host_merge_ns", 0.0),
                cache_hits=getattr(record, "cache_hits", 0),
                cache_misses=getattr(record, "cache_misses", 0),
                cache_invalidations=getattr(record, "cache_invalidations", 0),
                failovers=getattr(record, "failovers", 0),
            )
        if self.tier == "host":
            return HostDetails()
        return ServiceDetails(
            batch_index=record.batch_index,
            modeled_ns=record.modeled_ns,
            modeled_banks=tuple(record.modeled_banks),
            cache_hits=getattr(record, "cache_hits", 0),
            cache_misses=getattr(record, "cache_misses", 0),
            cache_invalidations=getattr(record, "cache_invalidations", 0),
        )

    def _build_response(self, future: Future) -> Response:
        record = future.record
        if self.tier == "cluster" and math.isnan(record.finish_ns):
            self.backend.gather()
        scan = record.metrics
        value = record.value
        matching: Optional[int] = None
        epilogue_ns = 0.0
        epilogue_j = 0.0
        request = future.request
        num_rows: Optional[int] = None
        if isinstance(request, ScanRequest):
            num_rows = request.column.num_rows
        elif isinstance(request, BitmapConjunctionRequest):
            num_rows = request.index.num_rows
        if num_rows is not None and value is not None:
            matching = BitmapIndex.count(value, num_rows)
            epilogue = self._coster.epilogue_cost(num_rows, matching)
            epilogue_ns = epilogue.latency_ns
            epilogue_j = epilogue.energy_j
        return Response(
            kind=future.kind,
            status="completed",
            value=value,
            matching_rows=matching,
            latency_ns=scan.latency_ns + epilogue_ns,
            energy_j=scan.energy_j + epilogue_j,
            breakdown={"scan_ns": scan.latency_ns, "epilogue_ns": epilogue_ns},
            arrival_ns=record.arrival_ns,
            start_ns=record.start_ns,
            finish_ns=record.finish_ns,
            wait_ns=record.wait_ns,
            sojourn_ns=record.sojourn_ns,
            deadline_missed=record.deadline_missed,
            details=self._details_for(record),
            trace=getattr(record, "trace", None),
        )
