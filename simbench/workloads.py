"""The three serving workloads: inputs from a seed, backends, and oracles.

Every workload is driven through the one sanctioned client surface,
:class:`repro.api.PimSession`, over a backend built from public
constructors (:class:`ClusterFrontend` / :class:`ServiceFrontend`).  Each
switches on a different set of layers, so that every likely optimisation
has one workload that exercises it and one that bypasses it:

* ``scan_cluster4`` -- cluster routing, admission and deadline-driven
  planner urgency; optimizer, cache, storage, verify and obs idle.
* ``rw_zipf_service`` -- one device with CSE, the result cache, hybrid
  index maintenance and the sanitizer; cluster and urgency idle.
* ``failover_cluster4`` -- scatter/gather, failover re-offer, router
  health, the elastic controller and the obs plane.

Arrivals form an open loop on the modeled clock: Poisson timestamps are
drawn from the workload seed, so sojourn counts from each request's
scheduled arrival and generator lateness is zero by construction.  The
backend only ever sees the generated requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api import PimSession
from repro.cluster import ClusterFrontend, ElasticController, ShardRouter, kill_revive_schedule
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.service import (
    ArrivalEvent,
    BatchExecutor,
    BatchPolicy,
    BitmapConjunctionRequest,
    ScanRequest,
    ServiceFrontend,
    poisson_schedule,
)
from repro.storage.requests import UpdateRequest

BANKS = 8
CODE_BITS = 8
SCAN_KINDS = ("between", "equal", "less_than", "less_equal")
#: Admission bound on modeled bank occupancy, for every workload.  Depth
#: alone does not bound the work parked on pipelined lane horizons.
MAX_BACKLOG_NS = 50_000.0


def _engine() -> AmbitEngine:
    return AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=BANKS))


def _seeds(seed: int, salt: int) -> Tuple[np.random.Generator, int]:
    """(data generator, arrival-schedule seed), independent per workload."""
    sequence = np.random.SeedSequence([seed, salt])
    data, arrivals = sequence.spawn(2)
    return np.random.default_rng(data), int(arrivals.generate_state(1)[0])


def _pack(mask: np.ndarray) -> np.ndarray:
    return np.packbits(mask, bitorder="little")


def _scan_mask(codes: np.ndarray, kind: str, constants: Sequence[int]) -> np.ndarray:
    """NumPy reference of one BitWeaving predicate."""
    if kind == "between":
        low, high = constants
        return (codes >= low) & (codes <= high)
    (constant,) = constants
    if kind == "equal":
        return codes == constant
    if kind == "less_than":
        return codes < constant
    return codes <= constant


def _rotation(i: int, columns: int) -> Tuple[int, str]:
    """(column, kind) of the i-th scan: columns in turn, then the next kind.
    A fixed rotation keeps the shards' load and the cost mix the same for
    every seed; the seed picks the data, the constants and the arrivals."""
    return i % columns, SCAN_KINDS[(i // columns) % len(SCAN_KINDS)]


def _random_scan(rng: np.random.Generator, column: BitWeavingColumn, kind: str) -> ScanRequest:
    if kind == "between":
        low = int(rng.integers(0, 100))
        return ScanRequest(column=column, kind=kind, constants=(low, low + int(rng.integers(1, 120))))
    return ScanRequest(column=column, kind=kind, constants=(int(rng.integers(0, 1 << CODE_BITS)),))


@dataclass
class Round:
    """One ready-to-serve instance of a workload.

    Attributes:
        session: The client surface over a fresh backend.
        events: The arrival stream, in arrival order.
        check: Correctness oracle run after the drain over the futures
            (event order); returns failure messages, empty when correct.
    """

    session: PimSession
    events: List[ArrivalEvent]
    check: Callable[[list], List[str]]


def _check_values(futures: list, expected: Callable[[int], object]) -> List[str]:
    """Every request ended, and every completed value equals the
    oracle's, bit for bit."""
    errors = []
    for i, future in enumerate(futures):
        if future.status == "queued":
            errors.append(f"request {i} never ended")
        if future.status != "completed":
            continue
        value, want = future.record.value, expected(i)
        same = np.array_equal(value, want) if isinstance(want, np.ndarray) else value == want
        if not same:
            errors.append(f"request {i} returned a wrong value")
    return errors


@dataclass(frozen=True)
class Workload:
    """A named traffic mix: its size, offered rate and builder.  Why each
    exists is recorded in BENCHMARK.json and README.md."""

    name: str
    requests: int
    rate_per_s: float
    builder: Callable[["Workload", int, int], Round]

    def build(self, seed: int, requests: int) -> Round:
        """A fresh round of ``requests`` events drawn from ``seed``."""
        return self.builder(self, seed, requests)


# ----------------------------------------------------------------------
# scan_cluster4
# ----------------------------------------------------------------------
SCAN_SHARDS = 4
SCAN_COLUMNS = 32
SCAN_ROWS = 65536
SCAN_DEADLINE_SLACK_NS = 60_000.0


def build_scan_cluster4(workload: Workload, seed: int, requests: int) -> Round:
    rng, arrival_seed = _seeds(seed, 1)
    codes = [rng.integers(0, 1 << CODE_BITS, size=SCAN_ROWS) for _ in range(SCAN_COLUMNS)]
    columns = [BitWeavingColumn(c, CODE_BITS) for c in codes]
    stream = []
    positions = []
    for i in range(requests):
        c, kind = _rotation(i, SCAN_COLUMNS)
        stream.append(_random_scan(rng, columns[c], kind))
        positions.append(c)
    events = poisson_schedule(
        stream,
        rate_per_s=workload.rate_per_s,
        seed=arrival_seed,
        deadline_slack_ns=SCAN_DEADLINE_SLACK_NS,
    )
    backend = ClusterFrontend(
        num_shards=SCAN_SHARDS,
        router=ShardRouter(SCAN_SHARDS),
        engine_factory=_engine,
        policy=BatchPolicy(max_batch=64, window_ns=None),
        max_queue_depth=96,
        max_backlog_ns=MAX_BACKLOG_NS,
    )

    def check(futures: list) -> List[str]:
        def expected(i: int) -> np.ndarray:
            request = stream[i]
            return _pack(_scan_mask(codes[positions[i]], request.kind, request.constants))

        return _check_values(futures, expected)

    return Round(PimSession(backend, name=workload.name), events, check)


# ----------------------------------------------------------------------
# rw_zipf_service
# ----------------------------------------------------------------------
RW_ROWS = 65536
RW_CARDINALITIES = {"region": 16, "status": 8, "channel": 8}
#: Conjunction template shapes, (column, IN-list width) by popularity
#: rank.  Fixed, so every seed offers the same mix of work and sharing;
#: the seed picks the values, the data, the writes and the arrivals.
RW_SHAPES = (
    (("region", 3), ("status", 2)),
    (("status", 2), ("channel", 3)),
    (("region", 2), ("status", 3), ("channel", 2)),
    (("region", 4), ("channel", 2)),
    (("region", 2), ("status", 2)),
    (("status", 4), ("channel", 2)),
    (("region", 3), ("status", 2), ("channel", 4)),
    (("region", 2), ("channel", 3)),
    (("status", 3), ("channel", 3)),
    (("region", 4), ("status", 3)),
    (("region", 2), ("status", 4), ("channel", 3)),
    (("region", 3), ("channel", 4)),
)
RW_ZIPF_S = 1.2
RW_WRITE_EVERY = 5
RW_WRITE_ROWS = 64
RW_WRITE_COLUMN = "status"


def build_rw_zipf_service(workload: Workload, seed: int, requests: int) -> Round:
    rng, arrival_seed = _seeds(seed, 2)
    table = ColumnTable("orders", RW_ROWS)
    for name, cardinality in RW_CARDINALITIES.items():
        table.add_column(name, rng.integers(0, cardinality, size=RW_ROWS), cardinality=cardinality)
    index = BitmapIndex(table, list(RW_CARDINALITIES))
    # The replay oracle's private copy of the data, mutated in arrival order.
    replay = {name: table.column(name).copy() for name in RW_CARDINALITIES}

    names = list(RW_CARDINALITIES)
    templates = [
        tuple(
            (name, tuple(sorted(int(v) for v in rng.choice(RW_CARDINALITIES[name], width, replace=False))))
            for name, width in shape
        )
        for shape in RW_SHAPES
    ]
    weights = 1.0 / np.arange(1, len(templates) + 1) ** RW_ZIPF_S
    draws = rng.choice(len(templates), size=requests, p=weights / weights.sum())
    stream = []
    for position in range(requests):
        if position % RW_WRITE_EVERY == RW_WRITE_EVERY - 1:
            row_ids = rng.choice(RW_ROWS, size=RW_WRITE_ROWS, replace=False)
            values = rng.integers(0, RW_CARDINALITIES[RW_WRITE_COLUMN], size=RW_WRITE_ROWS)
            stream.append(
                UpdateRequest(
                    table=table,
                    index=index,
                    column=RW_WRITE_COLUMN,
                    row_ids=tuple(int(r) for r in row_ids),
                    values=tuple(int(v) for v in values),
                )
            )
        else:
            stream.append(BitmapConjunctionRequest(index=index, predicates=templates[draws[position]]))
    events = poisson_schedule(stream, rate_per_s=workload.rate_per_s, seed=arrival_seed)
    backend = ServiceFrontend(
        executor=BatchExecutor(engine=_engine(), sanitize=True),
        policy=BatchPolicy(max_batch=16, window_ns=None),
        max_queue_depth=96,
        max_backlog_ns=MAX_BACKLOG_NS,
        optimize=True,
        cache=True,
        maintenance="hybrid",
    )

    def check(futures: list) -> List[str]:
        # Replay the admitted requests in arrival order: FIFO holds
        # because there are no deadlines and every priority is equal, so
        # queue order is arrival order and a read sees exactly the writes
        # admitted before it.
        replayed: Dict[int, object] = {}
        masks: Dict[Tuple[str, Tuple[int, ...]], np.ndarray] = {}
        for i, future in enumerate(futures):
            if future.status == "rejected":
                continue
            request = stream[i]
            if isinstance(request, UpdateRequest):
                replay[request.column][list(request.row_ids)] = request.values
                masks = {key: m for key, m in masks.items() if key[0] != request.column}
                replayed[i] = len(request.row_ids)
            else:
                mask = np.ones(RW_ROWS, dtype=bool)
                for predicate in request.predicates:
                    if predicate not in masks:
                        masks[predicate] = np.isin(replay[predicate[0]], predicate[1])
                    mask &= masks[predicate]
                replayed[i] = _pack(mask)
        errors = _check_values(futures, replayed.__getitem__)
        for name in RW_CARDINALITIES:
            if not np.array_equal(table.column(name), replay[name]):
                errors.append(f"table column {name} diverged from the replay")
        fresh = BitmapIndex(table, names)
        for name, cardinality in RW_CARDINALITIES.items():
            for value in range(cardinality):
                if not np.array_equal(index.bitmap(name, value), fresh.bitmap(name, value)):
                    errors.append(f"index plane {name}={value} diverged from a rebuild")
        return errors

    return Round(PimSession(backend, name=workload.name), events, check)


# ----------------------------------------------------------------------
# failover_cluster4
# ----------------------------------------------------------------------
FO_SHARDS = 4
FO_REPLICATION = 2
FO_COLUMNS = 16
FO_ROWS = 65536
FO_CONJUNCTION_EVERY = 4
FO_KILL_SHARD = 1
FO_KILL_AT = 0.25
FO_REVIVE_AT = 0.85
FO_WINDOW_NS = 20_000.0


def build_failover_cluster4(workload: Workload, seed: int, requests: int) -> Round:
    rng, arrival_seed = _seeds(seed, 3)
    codes = [rng.integers(0, 1 << CODE_BITS, size=FO_ROWS) for _ in range(FO_COLUMNS)]
    columns = [BitWeavingColumn(c, CODE_BITS) for c in codes]
    table = ColumnTable("sales", FO_ROWS)
    table.add_column("region", rng.integers(0, 8, size=FO_ROWS), cardinality=8)
    table.add_column("status", rng.integers(0, 4, size=FO_ROWS), cardinality=4)
    index = BitmapIndex(table, ["region", "status"])
    region, status = table.column("region").copy(), table.column("status").copy()
    stream = []
    positions: List[Optional[int]] = []
    scans = 0
    for i in range(requests):
        if i % FO_CONJUNCTION_EVERY == FO_CONJUNCTION_EVERY - 1:
            regions = tuple(sorted({int(v) for v in rng.integers(0, 8, 2)}))
            stream.append(
                BitmapConjunctionRequest(
                    index=index,
                    predicates=(("region", regions), ("status", (int(rng.integers(0, 4)),))),
                )
            )
            positions.append(None)
        else:
            c, kind = _rotation(scans, FO_COLUMNS)
            scans += 1
            stream.append(_random_scan(rng, columns[c], kind))
            positions.append(c)
    events = poisson_schedule(stream, rate_per_s=workload.rate_per_s, seed=arrival_seed)
    kill_ns = events[int(FO_KILL_AT * (requests - 1))].arrival_ns
    revive_ns = events[int(FO_REVIVE_AT * (requests - 1))].arrival_ns
    backend = ClusterFrontend(
        num_shards=FO_SHARDS,
        router=ShardRouter(FO_SHARDS, replication_factor=FO_REPLICATION),
        engine_factory=_engine,
        # The window closes batches on shards the controller joined, which
        # see too little traffic to fill a batch before the stream ends.
        policy=BatchPolicy(max_batch=32, window_ns=FO_WINDOW_NS),
        max_queue_depth=96,
        max_backlog_ns=MAX_BACKLOG_NS,
        observe=True,
        faults=kill_revive_schedule([(FO_KILL_SHARD, kill_ns, revive_ns)]),
    )
    ElasticController(backend)

    def expected(i: int) -> np.ndarray:
        request = stream[i]
        if positions[i] is not None:
            return _pack(_scan_mask(codes[positions[i]], request.kind, request.constants))
        (_, regions), (_, statuses) = request.predicates
        return _pack(np.isin(region, regions) & np.isin(status, statuses))

    def check(futures: list) -> List[str]:
        errors = _check_values(futures, expected)
        records = backend.records
        if len(records) != len(futures) or len({id(r) for r in records}) != len(records):
            errors.append("cluster records do not match offered requests one to one")
        for i, future in enumerate(futures):
            record = future.record
            terminal = (not record.admitted) != bool(record.completed)
            if not terminal:
                errors.append(f"request {i} did not terminate exactly once")
        return errors

    return Round(PimSession(backend, name=workload.name), events, check)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("scan_cluster4", requests=3000, rate_per_s=4.0e6, builder=build_scan_cluster4),
        Workload("rw_zipf_service", requests=4000, rate_per_s=2.0e6, builder=build_rw_zipf_service),
        Workload("failover_cluster4", requests=4000, rate_per_s=5.0e6, builder=build_failover_cluster4),
    )
}
