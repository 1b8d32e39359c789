#!/usr/bin/env python3
"""A mixed request stream through the bulk-operation service layer.

This example plays a synthetic client workload against the
:class:`~repro.service.executor.BatchExecutor`: BitWeaving predicate
scans over several columns, Ambit bulk bitwise operations, and RowClone
bulk copies arrive interleaved, as they would from many concurrent users.
The stream is served in batches, and each batch reports how much latency
bank-level overlap recovered compared with one-at-a-time execution — at
identical total energy, which is the service layer's core guarantee.

A functional pass on a tiny device at the end double-checks bit-exactness
and shows the allocation pool recycling rows across batches.

This example hands the executor batches the caller shaped itself; see
``examples/service_pipeline.py`` for the admission-controlled pipeline
where the service shapes its own batches from an arrival process, with
priorities, deadlines, and backpressure.

Run with::

    python examples/service_traffic.py
"""

import numpy as np

from repro.ambit.bitvector import BulkBitVector
from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis.tables import ResultTable
from repro.database.bitweaving import BitWeavingColumn
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.rowclone.engine import CopyMode
from repro.service import BatchExecutor, BulkOpRequest, CopyRequest, ScanRequest

SCAN_KINDS = ("less_than", "less_equal", "equal", "between")


def random_request(rng, columns):
    """One random request; returns ``(kind, request)``."""
    kind = rng.choice(["scan", "bulk_op", "copy"], p=[0.6, 0.25, 0.15])
    if kind == "scan":
        column = columns[rng.integers(len(columns))]
        top = (1 << column.num_bits) - 1
        predicate = SCAN_KINDS[rng.integers(len(SCAN_KINDS))]
        if predicate == "between":
            low = int(rng.integers(0, top + 1))
            high = int(rng.integers(low, top + 1))
            constants = (low, high)
        else:
            constants = (int(rng.integers(0, top + 1)),)
        return kind, ScanRequest(column=column, kind=predicate, constants=constants)
    if kind == "bulk_op":
        # Host-only vectors keep the big analytical stream allocation-free.
        bits = int(rng.integers(1, 4)) * 1024 * 1024
        op = rng.choice(["and", "or", "xor", "nand", "not"])
        a = BulkBitVector(bits)
        b = BulkBitVector(bits) if op != "not" else None
        return kind, BulkOpRequest(op=op, a=a, b=b)
    num_bytes = int(rng.integers(1, 64)) * 8192
    mode = CopyMode.FPM if rng.random() < 0.7 else CopyMode.INTER_SUBARRAY
    return kind, CopyRequest(num_bytes=num_bytes, mode=mode, fill=rng.random() < 0.3)


def serve_analytical_stream() -> None:
    rng = np.random.default_rng(42)
    engine = AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=16))
    executor = BatchExecutor(engine=engine)
    columns = [
        BitWeavingColumn(rng.integers(0, 256, size=262144), 8) for _ in range(12)
    ]

    table = ResultTable(
        title="Mixed request stream on DDR3 (16 banks), batched service",
        columns=["batch", "requests", "scan/op/copy", "serial_ms", "batched_ms",
                 "speedup", "energy_mj"],
    )
    for batch_index in range(4):
        tally = {"scan": 0, "bulk_op": 0, "copy": 0}
        requests = []
        for _ in range(48):
            kind, request = random_request(rng, columns)
            tally[kind] += 1
            requests.append(request)
        batch = executor.run(requests)
        table.add_row(
            batch_index,
            batch.metrics.requests,
            f"{tally['scan']}/{tally['bulk_op']}/{tally['copy']}",
            batch.metrics.serial_latency_ns / 1e6,
            batch.metrics.latency_ns / 1e6,
            batch.metrics.batching_speedup,
            batch.metrics.energy_j * 1e3,
        )
    print(table.render())


def verify_functional_smoke() -> None:
    geometry = DramGeometry(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=4,
        subarrays_per_bank=2,
        rows_per_subarray=32,
        row_size_bytes=64,
    )
    device = DramDevice(
        geometry, DramTimingParameters.ddr3_1600(), DramEnergyParameters.ddr3_1600()
    )
    engine = AmbitEngine(
        device, AmbitConfig(banks_parallel=4, vectorized_functional=True)
    )
    executor = BatchExecutor(engine=engine)
    rng = np.random.default_rng(7)
    columns = [BitWeavingColumn(rng.integers(0, 64, size=300), 6) for _ in range(4)]

    for round_index in range(3):
        requests = []
        for column in columns:
            requests.append(ScanRequest(column=column, kind="between", constants=(5, 50)))
            requests.append(ScanRequest(column=column, kind="equal", constants=(21,)))
        # Results are verified against the banks inside run().
        batch = executor.run(requests, functional=True)
        print(
            f"functional batch {round_index}: {len(batch)} scans verified on the "
            f"banks, {batch.metrics.notes or 'no fusion'}, "
            f"pool {executor.pool.hits} hits / {executor.pool.misses} misses, "
            f"{engine.allocator.allocated_rows()} DRAM rows in use"
        )


def main() -> None:
    serve_analytical_stream()
    print()
    verify_functional_smoke()


if __name__ == "__main__":
    main()
