"""The Ambit execution engine.

The engine executes the seven bulk bitwise operations (NOT, AND, OR, NAND,
NOR, XOR, XNOR) on :class:`~repro.ambit.bitvector.BulkBitVector` operands.

Two execution paths share one command-sequence model:

* **Functional path** (``functional=True``): every primitive is actually
  performed on the simulated DRAM banks — rows are copied with AAPs,
  combined with triple-row activations, complemented through the
  dual-contact rows — and the result vector's value is read back from the
  banks.  This path is exact but row-by-row, so it is used by tests and
  small examples.
* **Analytical path** (default): the result value is computed directly with
  NumPy (bit-exactly the same outcome), while latency and energy are charged
  from the *same* primitive counts the functional path would issue.  This
  path makes 32 MiB operands cheap to benchmark.

Primitive-count model (from the Ambit command sequences):

======  ==========================  =====================
op      command sequence            primitives
======  ==========================  =====================
not     AAP(A, DCC); AAP(!DCC, R)          2 AAP
and     AAP(A,T0); AAP(B,T1); AAP(C0,T2); TRA+AAP(T0,R)   3 AAP + 1 TRA
or      same with C1                        3 AAP + 1 TRA
nand    and + NOT through DCC               4 AAP + 1 TRA
nor     or  + NOT through DCC               4 AAP + 1 TRA
xor     (A and !B) or (!A and B)            5 AAP + 2 TRA
xnor    complement of xor                   5 AAP + 2 TRA
======  ==========================  =====================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.ambit.allocator import RowAllocation, RowAllocator, RowPlacement
from repro.ambit.bitvector import BulkBitVector, mask_padding_bytes
from repro.ambit.rowgroups import AmbitSubarrayLayout
from repro.analysis.metrics import OperationMetrics
from repro.dram.bank import Bank
from repro.dram.device import DramDevice

#: (number of AAP primitives, number of TRA primitives) per row chunk.
AMBIT_PRIMITIVE_COUNTS: Dict[str, Tuple[int, int]] = {
    "not": (2, 0),
    "and": (3, 1),
    "or": (3, 1),
    "nand": (4, 1),
    "nor": (4, 1),
    "xor": (5, 2),
    "xnor": (5, 2),
}

#: Operations that take two input vectors.
BINARY_OPS = ("and", "or", "nand", "nor", "xor", "xnor")
#: Operations that take a single input vector.
UNARY_OPS = ("not",)

#: NumPy reference implementations used by the analytical path and by the
#: functional path's self-check.
_NUMPY_OPS = {
    "not": lambda a, b: np.bitwise_not(a),
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "nand": lambda a, b: np.bitwise_not(np.bitwise_and(a, b)),
    "nor": lambda a, b: np.bitwise_not(np.bitwise_or(a, b)),
    "xor": np.bitwise_xor,
    "xnor": lambda a, b: np.bitwise_not(np.bitwise_xor(a, b)),
}


def reference_result(op: str, a: BulkBitVector, b: Optional[BulkBitVector]) -> np.ndarray:
    """Masked NumPy reference of ``op(a, b)`` over the full padded storage.

    Complementing operations set the padding bits past ``a.num_bits``; those
    are masked here so that the analytical path, the functional path, and
    every verification compare the same bytes.
    """
    expected = _NUMPY_OPS[op](a.data, b.data if b is not None else None).astype(np.uint8)
    return mask_padding_bytes(expected, a.num_bits)


@dataclass
class AmbitConfig:
    """Tunable execution parameters of the Ambit engine.

    Attributes:
        banks_parallel: Number of banks the controller keeps busy
            concurrently.  The DDR command bus has ample headroom for AAP
            sequences, so this defaults to every bank in the device; the
            bank-count ablation (A1) sweeps it.
        verify_functional: When True, the functional path cross-checks each
            row chunk against the NumPy reference and raises on mismatch.
        vectorized_functional: When True, the functional path processes all
            row chunks of an operation with single NumPy calls (and charges
            the same commands in bulk) instead of walking the chunks through
            the row-level AAP/TRA simulation one by one.  Bit-exact with the
            row-level path and identical in latency/energy; the batch
            service layer enables it to keep large batches cheap.
    """

    banks_parallel: Optional[int] = None
    verify_functional: bool = True
    vectorized_functional: bool = False


class AmbitEngine:
    """Executes bulk bitwise operations in (simulated) DRAM.

    Args:
        device: DRAM device to operate on (defaults to dual-channel DDR3).
        config: Execution parameters.
        allocator: Row allocator; created on the device when omitted.
    """

    def __init__(
        self,
        device: Optional[DramDevice] = None,
        config: Optional[AmbitConfig] = None,
        allocator: Optional[RowAllocator] = None,
    ) -> None:
        self.device = device or DramDevice.ddr3()
        self.config = config or AmbitConfig()
        self.allocator = allocator or RowAllocator(self.device)
        self.layout = self.allocator.layout
        if self.config.banks_parallel is None:
            self.config.banks_parallel = self.device.geometry.banks_total
        self._control_rows_initialized: set = set()

    # ------------------------------------------------------------------
    # Vector management
    # ------------------------------------------------------------------
    def alloc_vector(self, num_bits: int) -> BulkBitVector:
        """Allocate a bit vector placed in this engine's device."""
        row_size = self.device.geometry.row_size_bytes
        rows = max(1, -(-((num_bits + 7) // 8) // row_size))
        allocation = self.allocator.allocate(rows)
        return BulkBitVector(num_bits, row_size, allocation)

    def commit(self, vector: BulkBitVector) -> None:
        """Write a vector's logical value into its DRAM rows (functional path)."""
        self._require_placed(vector)
        for chunk_index, placement in enumerate(vector.allocation.placements):
            bank = self._bank(placement)
            bank.write_row(placement.bank_row, vector.row_bytes(chunk_index))

    def read_back(self, vector: BulkBitVector) -> None:
        """Refresh a vector's logical value from its DRAM rows (functional path)."""
        self._require_placed(vector)
        for chunk_index, placement in enumerate(vector.allocation.placements):
            bank = self._bank(placement)
            vector.set_row_bytes(chunk_index, bank.read_row(placement.bank_row))

    def _require_placed(self, vector: BulkBitVector) -> None:
        if vector.allocation is None:
            raise ValueError("vector has no DRAM placement; allocate it via alloc_vector()")

    def _bank(self, placement: RowPlacement) -> Bank:
        return self.device.bank_at(*placement.bank_key)

    # ------------------------------------------------------------------
    # Primitive timing / energy
    # ------------------------------------------------------------------
    def primitives_for(self, op: str) -> Tuple[int, int]:
        """Return (AAP count, TRA count) per row chunk for ``op``."""
        try:
            return AMBIT_PRIMITIVE_COUNTS[op]
        except KeyError as exc:
            raise ValueError(f"unknown Ambit operation {op!r}") from exc

    def per_row_latency_ns(self, op: str) -> float:
        """Latency of processing one row chunk of ``op`` in one bank."""
        aaps, tras = self.primitives_for(op)
        timing = self.device.timing
        return aaps * timing.aap_ns + tras * timing.tra_ns

    def per_row_energy_j(self, op: str) -> float:
        """Energy of processing one row chunk of ``op``."""
        aaps, tras = self.primitives_for(op)
        energy = self.device.energy_params
        return aaps * energy.aap_energy_j + tras * energy.tra_energy_j

    def throughput_bytes_per_s(self, op: str, banks: Optional[int] = None) -> float:
        """Steady-state result throughput of ``op`` using ``banks`` banks."""
        banks = banks or self.config.banks_parallel
        row_bytes = self.device.geometry.row_size_bytes
        return banks * row_bytes / (self.per_row_latency_ns(op) * 1e-9)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        op: str,
        a: BulkBitVector,
        b: Optional[BulkBitVector] = None,
        out: Optional[BulkBitVector] = None,
        functional: bool = False,
    ) -> Tuple[BulkBitVector, OperationMetrics]:
        """Execute ``out = op(a, b)`` and return (result vector, metrics).

        Args:
            op: One of ``not, and, or, nand, nor, xor, xnor``.
            a: First operand.
            b: Second operand (required for binary ops).
            out: Optional pre-allocated destination (must be aligned with
                ``a`` when the functional path is used).
            functional: Execute row by row on the simulated banks instead of
                charging the analytical cost model.
        """
        if op in BINARY_OPS:
            if b is None:
                raise ValueError(f"{op} requires two operands")
            if b.num_bits != a.num_bits:
                raise ValueError("operand lengths differ")
        elif op in UNARY_OPS:
            if b is not None:
                raise ValueError(f"{op} takes a single operand")
        else:
            raise ValueError(f"unknown Ambit operation {op!r}")

        if out is None:
            out = self.alloc_vector(a.num_bits) if a.allocation is not None else a.copy_like()
        if out.num_bits != a.num_bits:
            raise ValueError("output length differs from operand length")

        if functional:
            metrics = self._execute_functional(op, a, b, out)
        else:
            metrics = self._execute_analytical(op, a, b, out)
        return out, metrics

    # -- shared cost model ----------------------------------------------
    def op_cost(
        self, op: str, num_rows: int, bytes_produced: int = 0, mode: str = "modeled"
    ) -> OperationMetrics:
        """Modeled latency/energy of ``op`` over ``num_rows`` row chunks.

        This is the single source of the per-operation cost formula: rows
        spread over ``min(banks_parallel, rows)`` banks, latency is the
        per-bank serial share, energy scales with total rows.  Both
        execution paths, the query cost models, and the batch executor
        charge through here.
        """
        banks = min(self.config.banks_parallel, num_rows) if num_rows else 1
        rows_per_bank = -(-num_rows // banks) if num_rows else 0
        return OperationMetrics(
            name=f"ambit_{op}",
            latency_ns=rows_per_bank * self.per_row_latency_ns(op),
            energy_j=num_rows * self.per_row_energy_j(op),
            bytes_moved_on_channel=0,
            bytes_produced=bytes_produced,
            notes=f"{mode}, {num_rows} rows over {banks} banks",
        )

    def _op_metrics(self, op: str, a: BulkBitVector, mode: str) -> OperationMetrics:
        return self.op_cost(op, a.num_rows, a.num_bytes, mode)

    # -- analytical ------------------------------------------------------
    def _execute_analytical(
        self, op: str, a: BulkBitVector, b: Optional[BulkBitVector], out: BulkBitVector
    ) -> OperationMetrics:
        out.data[:] = reference_result(op, a, b)
        return self._op_metrics(op, a, "analytical")

    # -- functional ------------------------------------------------------
    def _execute_functional(
        self, op: str, a: BulkBitVector, b: Optional[BulkBitVector], out: BulkBitVector
    ) -> OperationMetrics:
        self._require_placed(a)
        self._require_placed(out)
        if b is not None:
            self._require_placed(b)
            if not a.allocation.aligned_with(b.allocation):
                raise ValueError("operands are not subarray-aligned")
        if not a.allocation.aligned_with(out.allocation):
            raise ValueError("output is not subarray-aligned with the operands")

        self.commit(a)
        if b is not None:
            self.commit(b)

        if self.config.vectorized_functional:
            return self._execute_functional_vectorized(op, a, b, out)

        for chunk in range(a.num_rows):
            placement = a.allocation.placements[chunk]
            bank = self._bank(placement)
            self._ensure_control_rows(bank, placement.subarray)
            b_placement = b.allocation.placements[chunk] if b is not None else None
            out_placement = out.allocation.placements[chunk]
            self._execute_row(op, bank, placement, b_placement, out_placement)

        self.read_back(out)
        # Complementing ops leave the padding bits past num_bits set in the
        # DRAM rows; mask them in the logical value so both execution paths
        # agree bit for bit (the rows themselves are refreshed from the
        # logical value on the next commit()).
        out._mask_padding()
        if self.config.verify_functional:
            expected = reference_result(op, a, b)
            if not np.array_equal(out.data, expected):
                raise AssertionError(f"functional {op} diverged from the reference result")

        return self._op_metrics(op, a, "functional")

    def _execute_functional_vectorized(
        self, op: str, a: BulkBitVector, b: Optional[BulkBitVector], out: BulkBitVector
    ) -> OperationMetrics:
        """Batched functional execution: all row chunks in single NumPy calls.

        The result of every row chunk is computed with one vectorized NumPy
        operation over the whole backing array, then written into the
        destination rows; each bank is charged the *nominal* command counts
        of the primitive model (2 ACT + 1 PRE per AAP, 1 ACT + 1 PRE per
        TRA), which is what latency and energy are billed from.  The
        row-level path's concrete AAP realization issues additional
        commands for its scratch-row traffic, so raw counter values are
        comparable to the cost model, not to that path.  Latency, energy,
        and results are identical to the row-level path.
        """
        aaps, tras = self.primitives_for(op)
        result = reference_result(op, a, b)
        for chunk in range(a.num_rows):
            placement = a.allocation.placements[chunk]
            bank = self._bank(placement)
            self._ensure_control_rows(bank, placement.subarray)
            out_placement = out.allocation.placements[chunk]
            start = chunk * out.row_size_bytes
            bank.write_row(out_placement.bank_row, result[start : start + out.row_size_bytes])
            # Each AAP is ACT-ACT-PRE, each TRA is one (triple) ACT plus PRE.
            bank.activations += 2 * aaps + tras
            bank.precharges += aaps + tras
        out.data[:] = result
        if self.config.verify_functional:
            # Round-trip check of the write-back: re-reading the destination
            # rows catches mis-indexed placements or rows left stale.  (The
            # value itself comes from the NumPy reference, so unlike the
            # row-level path there is no independent op simulation to check
            # against.)
            self.read_back(out)
            out._mask_padding()
            if not np.array_equal(out.data, result):
                raise AssertionError(f"functional {op} diverged from the reference result")
        return self._op_metrics(op, a, "functional-vectorized")

    def _subarray_base(self, subarray: int) -> int:
        return subarray * self.device.geometry.rows_per_subarray

    def _ensure_control_rows(self, bank: Bank, subarray: int) -> None:
        """Initialize the C-group (zeros / ones) rows of a subarray once."""
        key = (id(bank), subarray)
        if key in self._control_rows_initialized:
            return
        base = self._subarray_base(subarray)
        row_size = self.device.geometry.row_size_bytes
        bank.write_row(base + self.layout.c0_row, np.zeros(row_size, dtype=np.uint8))
        bank.write_row(base + self.layout.c1_row, np.full(row_size, 0xFF, dtype=np.uint8))
        self._control_rows_initialized.add(key)

    def _aap(self, bank: Bank, source_row: int, dest_row: int) -> None:
        bank.aap(source_row, dest_row)

    def _aap_invert(self, bank: Bank, source_row: int, subarray: int, dcc_index: int = 0) -> int:
        """Model AAP(source, DCC): the !DCC port latches the complement.

        Returns the bank-level row index of the complement (!DCC) row, from
        which a subsequent AAP can copy the inverted data.
        """
        base = self._subarray_base(subarray)
        dcc_row = base + self.layout.dcc_row(dcc_index)
        dcc_bar_row = base + self.layout.dcc_bar_row(dcc_index)
        data = bank.read_row(source_row)
        bank.write_row(dcc_row, data)
        bank.write_row(dcc_bar_row, np.bitwise_not(data))
        return dcc_bar_row

    def _tra_and_or(
        self,
        bank: Bank,
        subarray: int,
        row_a: int,
        row_b: int,
        use_ones: bool,
    ) -> int:
        """Copy operands into T rows, TRA with C0/C1, return the result row."""
        base = self._subarray_base(subarray)
        t0 = base + self.layout.t_row(0)
        t1 = base + self.layout.t_row(1)
        t2 = base + self.layout.t_row(2)
        control = base + (self.layout.c1_row if use_ones else self.layout.c0_row)
        self._aap(bank, row_a, t0)
        self._aap(bank, row_b, t1)
        self._aap(bank, control, t2)
        bank.triple_row_activate(t0, t1, t2)
        return t0

    def _execute_row(
        self,
        op: str,
        bank: Bank,
        a_placement: RowPlacement,
        b_placement: Optional[RowPlacement],
        out_placement: RowPlacement,
    ) -> None:
        subarray = a_placement.subarray
        a_row = a_placement.bank_row
        out_row = out_placement.bank_row
        b_row = b_placement.bank_row if b_placement is not None else None

        if op == "not":
            inverted_row = self._aap_invert(bank, a_row, subarray)
            self._aap(bank, inverted_row, out_row)
            return
        if op in ("and", "or"):
            result_row = self._tra_and_or(bank, subarray, a_row, b_row, use_ones=(op == "or"))
            self._aap(bank, result_row, out_row)
            return
        if op in ("nand", "nor"):
            result_row = self._tra_and_or(bank, subarray, a_row, b_row, use_ones=(op == "nor"))
            inverted_row = self._aap_invert(bank, result_row, subarray)
            self._aap(bank, inverted_row, out_row)
            return
        if op in ("xor", "xnor"):
            # xor = (a AND !b) OR (!a AND b); implemented with two TRAs on the
            # T rows plus DCC complements, then copied to the destination.
            base = self._subarray_base(subarray)
            t0 = base + self.layout.t_row(0)
            t1 = base + self.layout.t_row(1)
            t2 = base + self.layout.t_row(2)
            t3 = base + self.layout.t_row(3)
            not_b_row = self._aap_invert(bank, b_row, subarray, dcc_index=0)
            not_a_row = self._aap_invert(bank, a_row, subarray, dcc_index=1)
            # a AND !b -> t0
            self._aap(bank, a_row, t0)
            self._aap(bank, not_b_row, t1)
            self._aap(bank, base + self.layout.c0_row, t2)
            bank.triple_row_activate(t0, t1, t2)
            self._aap(bank, t0, t3)  # park partial result in T3
            # !a AND b -> t0
            self._aap(bank, not_a_row, t0)
            self._aap(bank, b_row, t1)
            self._aap(bank, base + self.layout.c0_row, t2)
            bank.triple_row_activate(t0, t1, t2)
            # (partial1) OR (partial2) -> t0
            self._aap(bank, t3, t1)
            self._aap(bank, base + self.layout.c1_row, t2)
            bank.triple_row_activate(t0, t1, t2)
            if op == "xnor":
                inverted_row = self._aap_invert(bank, t0, subarray)
                self._aap(bank, inverted_row, out_row)
            else:
                self._aap(bank, t0, out_row)
            return
        raise ValueError(f"unknown Ambit operation {op!r}")
