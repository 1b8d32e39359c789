"""Request and result types of the bulk-operation service layer.

A request describes one unit of client work — an Ambit bulk bitwise
operation, a BitWeaving predicate scan, a RowClone bulk copy, or a
high-level bitmap-index conjunction — without saying anything about *when*
or *where* it runs.  The pipeline stages consume these types in order:

* the :class:`~repro.service.frontend.ServiceFrontend` wraps each request
  in a :class:`QueuedRequest` envelope carrying its arrival time, priority
  and deadline;
* the :class:`~repro.service.planner.BatchPlanner` *lowers* high-level
  requests (:class:`BitmapConjunctionRequest`) into the primitive kinds;
* the :class:`~repro.service.executor.BatchExecutor` runs primitives and
  returns one :class:`RequestResult` per request plus batch aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from repro.ambit.bitvector import BulkBitVector
from repro.analysis.metrics import BatchMetrics, OperationMetrics
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn, ScanPlan
from repro.rowclone.engine import CopyMode
from repro.storage.requests import is_write_request

#: Predicate kinds a ScanRequest understands (dispatched to
#: :meth:`BitWeavingColumn.scan`).
SCAN_KINDS = ("less_than", "less_equal", "equal", "between")


@dataclass
class BulkOpRequest:
    """One Ambit bulk bitwise operation: ``out = op(a, b)``.

    Attributes:
        op: One of ``not, and, or, nand, nor, xor, xnor``.
        a: First operand.
        b: Second operand (binary ops only).
        out: Optional pre-allocated destination.
    """

    op: str
    a: BulkBitVector
    b: Optional[BulkBitVector] = None
    out: Optional[BulkBitVector] = None
    #: Optional bank-placement hint for host-only operands: requests with
    #: the same hint contend for the same modeled banks (the planner pins
    #: every lowered step of one conjunction to one hint so data-dependent
    #: steps never overlap in the schedule).
    bank_offset: Optional[int] = None
    #: Batch-local indices of the primitives that produce this request's
    #: operands.  When any request of a batch carries dependencies the
    #: executor schedules in submission order and lifts each request's
    #: release to its producers' finish times, so optimizer-built DAGs
    #: (shared sub-chains consumed from other lanes) stay causally
    #: ordered even when the operands live on different bank lanes.
    after: Tuple[int, ...] = ()


@dataclass
class ScanRequest:
    """One BitWeaving predicate scan over a vertical column.

    Attributes:
        column: The BitWeaving/V column to scan.
        kind: Predicate kind (see :data:`SCAN_KINDS`).
        constants: One constant, or (low, high) for ``between``.
    """

    column: BitWeavingColumn
    kind: str
    constants: tuple
    _scan_cache: Optional[Tuple[np.ndarray, ScanPlan]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.kind not in SCAN_KINDS:
            raise ValueError(f"unknown scan kind {self.kind!r}")
        expected = 2 if self.kind == "between" else 1
        if len(self.constants) != expected:
            raise ValueError(
                f"{self.kind} takes {expected} constant(s), got {len(self.constants)}"
            )

    def scan_result(self) -> Tuple[np.ndarray, ScanPlan]:
        """(packed expected bits, plan) — evaluated once and cached so the
        planner's latency model and the executor share one evaluation."""
        if self._scan_cache is None:
            self._scan_cache = self.column.scan(self.kind, *self.constants)
        return self._scan_cache


@dataclass
class CopyRequest:
    """One RowClone bulk copy/initialization.

    Attributes:
        num_bytes: Bytes to copy (or fill when ``fill`` is True).
        mode: RowClone mechanism to use.
        fill: Zero-initialize instead of copying.
    """

    num_bytes: int
    mode: CopyMode = CopyMode.FPM
    fill: bool = False


#: Primitive request kinds the executor runs directly.
ServiceRequest = Union[BulkOpRequest, ScanRequest, CopyRequest]


@dataclass
class BitmapConjunctionRequest:
    """One bitmap-index conjunction: ``AND`` of per-column ``IN`` predicates.

    This is a *high-level* request: the executor does not understand it.
    The :class:`~repro.service.planner.BatchPlanner` lowers it — via
    :func:`~repro.api.plans.lower_conjunction_steps` — into a chain of
    primitive :class:`BulkOpRequest` steps (the OR of each predicate's
    value bitmaps, then the AND across predicates), pinned to one
    bank-offset hint so the data-dependent chain serializes on its banks.

    Attributes:
        index: The bitmap index holding the per-value bitmaps.
        predicates: (column, values) pairs; each contributes an ``IN``.
    """

    index: BitmapIndex
    predicates: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ValueError("predicates must not be empty")
        self.predicates = tuple(
            (column, tuple(values)) for column, values in self.predicates
        )
        for column, values in self.predicates:
            if not values:
                raise ValueError(f"predicate on {column!r} has no values")


#: Everything the frontend accepts (primitives plus high-level requests).
FrontendRequest = Union[ServiceRequest, BitmapConjunctionRequest]


def invalid_input(
    request: Any, arrival_ns: float, deadline_ns: Optional[float]
) -> bool:
    """True when an offer is malformed on its face.

    That is: a non-finite arrival or deadline; a request type no backend
    serves; a scan constant that does not fit its column's code width,
    or a ``between`` whose low exceeds its high; a conjunction predicate
    on a column its index does not hold, or a value outside that
    column's cardinality at the offer (read from the table, so a lazily
    maintained column is not rebuilt here).  Frontends reject such
    offers as ``"invalid"`` before their clocks move, so one bad request
    never poisons a stream."""
    if not math.isfinite(arrival_ns):
        return True
    if deadline_ns is not None and not math.isfinite(deadline_ns):
        return True
    if isinstance(request, ScanRequest):
        limit = 1 << request.column.num_bits
        if not all(0 <= constant < limit for constant in request.constants):
            return True
        return request.kind == "between" and request.constants[0] > request.constants[1]
    if isinstance(request, BitmapConjunctionRequest):
        held = request.index.indexed_columns()
        cardinalities = request.index.table.cardinalities
        return not all(
            column in held and all(0 <= value < cardinalities[column] for value in values)
            for column, values in request.predicates
        )
    return not (isinstance(request, (BulkOpRequest, CopyRequest)) or is_write_request(request))


@dataclass
class QueuedRequest:
    """Envelope of one request inside the frontend's admission queue.

    Carries the arrival-side attributes (arrival time, priority, deadline)
    and, after service, the outcome (start/finish times, value, metrics).
    Times are absolute nanoseconds on the frontend's virtual clock.

    Attributes:
        request: The wrapped request (primitive or high-level).
        arrival_ns: When the request was offered to the frontend.
        priority: Larger values are served first (default 0).
        deadline_ns: Absolute completion deadline, or None.
        seq: Admission sequence number (FIFO tiebreak within a priority).
        admitted: False when admission control rejected the request.
        rejected_reason: Why admission control refused it ("" if admitted).
        batch_index: Which batch served the request (-1 before service).
        start_ns: When the request started on its banks.
        finish_ns: When its last bank finished.
        value: Result payload (see :attr:`RequestResult.value`); for a
            lowered conjunction, the packed result bitmap.
        metrics: Sequential-execution cost of the request (for a lowered
            request, the serial combination of its primitive steps).
    """

    request: FrontendRequest
    arrival_ns: float = 0.0
    priority: int = 0
    deadline_ns: Optional[float] = None
    seq: int = 0
    admitted: bool = True
    rejected_reason: str = ""
    #: Modeled sequential service latency (filled at admission; drives the
    #: planner's deadline urgency and the frontend's backlog accounting).
    modeled_ns: float = 0.0
    #: Bank keys the request is modeled to occupy (filled at admission;
    #: empty = unpinned, spread evenly).  Drives the frontend's per-bank
    #: backlog vector.
    modeled_banks: List = field(default_factory=list)
    batch_index: int = -1
    start_ns: float = math.nan
    finish_ns: float = math.nan
    value: Any = None
    metrics: Optional[OperationMetrics] = None
    #: Host-side merge cost charged into ``finish_ns`` when the optimizer
    #: split the request's sub-chains across lanes (same merge-tree model
    #: as the cluster gather path; 0.0 when unsplit).
    host_merge_ns: float = 0.0
    #: Device ops this request did not have to run because the batch plan
    #: optimizer shared or restructured its chain (0 when unoptimized).
    ops_eliminated: int = 0
    #: Sub-chains of this request served from another request's (or an
    #: earlier duplicate's) lowered output instead of being re-lowered.
    shared_subchains: int = 0
    #: Sub-chains (or whole conjunctions) this request served from the
    #: cross-batch result cache instead of re-running bank work.
    cache_hits: int = 0
    #: Cache lookups of this request that missed (0 with caching off).
    cache_misses: int = 0
    #: Cached bitmaps a write request invalidated (write requests only).
    cache_invalidations: int = 0
    #: Root :class:`repro.obs.Span` of this request's lifecycle — set by
    #: the frontend only when its observability plane is recording
    #: (``observe=True``); None under the default no-op plane.
    trace: Any = field(default=None, repr=False, compare=False)

    @property
    def completed(self) -> bool:
        """True once the request has been served."""
        return self.admitted and not math.isnan(self.finish_ns)

    @property
    def wait_ns(self) -> float:
        """Admission to service start (NaN before service)."""
        return self.start_ns - self.arrival_ns

    @property
    def sojourn_ns(self) -> float:
        """Admission to completion (NaN before service)."""
        return self.finish_ns - self.arrival_ns

    @property
    def deadline_missed(self) -> bool:
        """True when the request completed after its deadline."""
        return (
            self.deadline_ns is not None
            and self.completed
            and self.finish_ns > self.deadline_ns + 1e-9
        )

    def sort_key(self) -> Tuple[float, float, int]:
        """Queue order: priority first, then earliest deadline, then FIFO."""
        deadline = self.deadline_ns if self.deadline_ns is not None else math.inf
        return (-self.priority, deadline, self.seq)


@dataclass
class RequestResult:
    """Outcome of one request within a batch.

    Attributes:
        request: The request that produced this result.
        metrics: Latency/energy of the request executed on its own (the
            sequential-execution cost; batching never changes it).
        value: The result payload — the output vector of a bulk op, the
            packed result bits of a scan, or None for a copy.
        start_ns: When the schedule started the request, absolute against
            the batch's dispatch clock (``release_ns``; 0 for a directly
            executed batch).
        bank_ids: Identities of the banks the request occupied (real
            placement keys for placed vectors, modeled slots otherwise;
            empty for host-only work, which rides the dedicated host
            lane).
    """

    request: ServiceRequest
    metrics: OperationMetrics
    value: Optional[Union[BulkBitVector, np.ndarray]] = None
    start_ns: float = 0.0
    bank_ids: List = field(default_factory=list)

    @property
    def banks(self) -> int:
        """How many banks the request occupied."""
        return max(1, len(self.bank_ids))


@dataclass
class BatchResult:
    """Outcome of one :meth:`BatchExecutor.run` call.

    Attributes:
        results: One entry per request, in submission order.
        metrics: Aggregated batch metrics (overlapped and serial latency,
            total energy, total bytes).
    """

    results: List[RequestResult] = field(default_factory=list)
    metrics: Optional[BatchMetrics] = None

    def __len__(self) -> int:
        return len(self.results)

    def values(self) -> List[Optional[Union[BulkBitVector, np.ndarray]]]:
        """The result payloads in submission order."""
        return [r.value for r in self.results]
