"""Query cost model: CPU vs. Ambit for the bulk bitwise portion.

A query in this substrate has three parts:

1. the **scan** — a plan of bulk bitwise operations produced by the bitmap
   index or the BitWeaving column (this is the part Ambit accelerates),
2. the **aggregate** — a population count over the result bit vector, and
3. the **materialization** — gathering the matching rows' payload columns
   (proportional to the selectivity).

Parts 2 and 3 always execute on the host CPU; part 1 executes on the host
(:class:`~repro.api.backends.HostBackend`) or on Ambit (the service and
cluster tiers).  :class:`QueryEngine` prices all three; queries themselves
run through :class:`~repro.api.session.PimSession`.  The CPU scan cost is
cache-aware: when the bit vectors involved fit in the last-level cache, bulk
bitwise operations run at cache bandwidth, and the Ambit advantage shrinks —
which is exactly why the paper's query-latency reduction grows with the
data-set size (E4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.ambit.engine import AmbitEngine
from repro.analysis.metrics import OperationMetrics
from repro.database.bitmap_index import BitmapPlan
from repro.database.bitweaving import ScanPlan
from repro.hostsim.cpu import HostCpu


@dataclass(frozen=True)
class QueryCostParameters:
    """Host-side cost parameters shared by both backends.

    Attributes:
        llc_bytes: Last-level cache capacity of the host.
        llc_bandwidth_bytes_per_s: Bandwidth of bulk operations that hit in
            the LLC.
        popcount_bandwidth_bytes_per_s: Rate of the host's population count
            over a packed bit vector.
        materialize_bytes_per_row: Payload bytes gathered per matching row.
        cpu_traffic_factor: Channel bytes moved per result byte for a bulk
            bitwise operation on the host (read two operands, allocate and
            write back the destination).
    """

    llc_bytes: int = 8 * 1024 * 1024
    llc_bandwidth_bytes_per_s: float = 150e9
    popcount_bandwidth_bytes_per_s: float = 15e9
    materialize_bytes_per_row: int = 12
    cpu_traffic_factor: float = 4.0


class QueryEngine:
    """Prices bitmap-index and BitWeaving scans on the host CPU or on Ambit.

    The host cost model behind :class:`~repro.api.backends.HostBackend`
    (:meth:`cpu_scan_cost`) and every session's query epilogue
    (:meth:`epilogue_cost`).

    Args:
        cpu: Host CPU model (provides bandwidth and energy parameters).
        ambit: Ambit engine (provides in-DRAM operation throughput).
        cost: Host-side query cost parameters.
    """

    def __init__(
        self,
        cpu: Optional[HostCpu] = None,
        ambit: Optional[AmbitEngine] = None,
        cost: Optional[QueryCostParameters] = None,
    ) -> None:
        self.cpu = cpu or HostCpu()
        self.ambit = ambit or AmbitEngine()
        self.cost = cost or QueryCostParameters()

    # ------------------------------------------------------------------
    # Scan-cost models
    # ------------------------------------------------------------------
    def _plan_operations(self, plan: Union[ScanPlan, BitmapPlan]) -> Dict[str, int]:
        if isinstance(plan, ScanPlan):
            return dict(plan.operations)
        operations: Dict[str, int] = {}
        for op, count in plan.operations:
            operations[op] = operations.get(op, 0) + count
        return operations

    def _vector_bytes(self, plan: Union[ScanPlan, BitmapPlan]) -> int:
        return (plan.result_bits + 7) // 8

    def scan_working_set_bytes(self, plan: Union[ScanPlan, BitmapPlan]) -> int:
        """Approximate working set of the scan (planes/bitmaps + temporaries)."""
        vector_bytes = self._vector_bytes(plan)
        planes = getattr(plan, "planes_touched", 0) or 2
        return (planes + 3) * vector_bytes

    def cpu_scan_cost(self, plan: Union[ScanPlan, BitmapPlan]) -> OperationMetrics:
        """Latency/energy of the scan's bulk operations on the host CPU."""
        operations = self._plan_operations(plan)
        vector_bytes = self._vector_bytes(plan)
        total_ops = sum(operations.values())
        working_set = self.scan_working_set_bytes(plan)

        # Fraction of the scan's operands that stay resident in the LLC.
        # Small tables run entirely at cache bandwidth; large tables run at
        # (de-rated) DRAM bandwidth; in between the two mix linearly, which
        # is what gives the E4 speedup its gradual growth with table size.
        resident_fraction = min(1.0, self.cost.llc_bytes / max(1, working_set))
        cached_traffic_per_op = 3.0 * vector_bytes
        dram_traffic_per_op = self.cost.cpu_traffic_factor * vector_bytes
        cached_time_s = (
            total_ops * cached_traffic_per_op / self.cost.llc_bandwidth_bytes_per_s
        )
        dram_time_s = (
            total_ops * dram_traffic_per_op / self.cpu.effective_bandwidth_bytes_per_s()
        )
        latency_s = resident_fraction * cached_time_s + (1.0 - resident_fraction) * dram_time_s
        dram_bytes = (1.0 - resident_fraction) * total_ops * dram_traffic_per_op
        cached_bytes = resident_fraction * total_ops * cached_traffic_per_op
        energy_j = self.cpu.energy_model.data_movement_energy_j(
            int(dram_bytes), int(cached_bytes)
        )
        traffic_per_op = dram_traffic_per_op
        return OperationMetrics(
            name="cpu_scan",
            latency_ns=latency_s * 1e9,
            energy_j=energy_j,
            bytes_moved_on_channel=int(total_ops * traffic_per_op),
            bytes_produced=vector_bytes,
        )

    def ambit_scan_cost(self, plan: Union[ScanPlan, BitmapPlan]) -> OperationMetrics:
        """Latency/energy of the scan's bulk operations on Ambit."""
        operations = self._plan_operations(plan)
        vector_bytes = self._vector_bytes(plan)
        rows_per_op = max(
            1, -(-vector_bytes // self.ambit.device.geometry.row_size_bytes)
        )
        latency_ns = 0.0
        energy_j = 0.0
        for op, count in operations.items():
            cost = self.ambit.op_cost(op, rows_per_op)
            latency_ns += count * cost.latency_ns
            energy_j += count * cost.energy_j
        return OperationMetrics(
            name="ambit_scan",
            latency_ns=latency_ns,
            energy_j=energy_j,
            bytes_moved_on_channel=0,
            bytes_produced=vector_bytes,
        )

    # ------------------------------------------------------------------
    # Shared epilogue (always on the host)
    # ------------------------------------------------------------------
    def epilogue_cost(self, num_rows: int, matching_rows: int) -> OperationMetrics:
        """Population count plus materialization of the matching rows."""
        vector_bytes = (num_rows + 7) // 8
        popcount_s = vector_bytes / self.cost.popcount_bandwidth_bytes_per_s
        materialize_bytes = matching_rows * self.cost.materialize_bytes_per_row
        materialize_s = materialize_bytes / self.cpu.effective_bandwidth_bytes_per_s()
        latency_s = popcount_s + materialize_s
        energy_j = self.cpu.energy_model.data_movement_energy_j(
            vector_bytes + materialize_bytes
        )
        return OperationMetrics(
            name="epilogue",
            latency_ns=latency_s * 1e9,
            energy_j=energy_j,
            bytes_moved_on_channel=vector_bytes + materialize_bytes,
            bytes_produced=materialize_bytes,
        )
