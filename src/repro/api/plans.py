"""The shared query-plan IR: one lowering path for every tier.

"How a query becomes primitive bulk operations" is defined once, here,
and every tier lowers through it — the single-device
:class:`~repro.service.planner.BatchPlanner` and, shard-locally through
:class:`~repro.database.sharding.BitmapIndexShardView`, the cluster tier:

* **Specs** — :class:`ScanSpec` and :class:`ConjunctionSpec` are the
  declarative descriptions a client hands to
  :class:`~repro.api.session.PimSession`.  A spec knows how to validate
  itself, how big its result is, how to evaluate itself functionally on
  the host (:meth:`evaluate`), and how to lower itself into the service
  request the frontends queue (:meth:`to_request`).
* **Chain lowering** — :func:`lower_conjunction_steps` expands a
  conjunction into the data-dependent chain of primitive bulk bitwise
  steps.  It is duck-typed over the bitmap source (a full
  :class:`~repro.database.bitmap_index.BitmapIndex` or a shard view), so
  the single-device planner and every cluster shard run the identical
  code path; :meth:`BitmapIndex.lower_conjunction` and the shard view
  now merely delegate here.

The step count of a lowered chain matches the conjunction's
:class:`~repro.database.bitmap_index.BitmapPlan` exactly, so charging
each step at the engine's bulk-operation cost attributes the same total
latency and energy as the plan-level cost model — the invariant the
property tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Sequence, Tuple, Union

import numpy as np

from repro.ambit.bitvector import BulkBitVector
from repro.database.bitmap_index import BitmapPlan

#: Predicate kinds a scan spec understands (dispatched to
#: :meth:`BitWeavingColumn.scan`).  The service request layer owns the
#: canonical tuple; re-exported here so API clients need only repro.api.
from repro.service.requests import SCAN_KINDS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.database.bitweaving import BitWeavingColumn, ScanPlan
    from repro.service.requests import BitmapConjunctionRequest, ScanRequest
    from repro.storage.requests import AppendRequest, DeleteRequest, UpdateRequest


@dataclass(frozen=True)
class ScanSpec:
    """Declarative description of one BitWeaving predicate scan.

    Attributes:
        column: The BitWeaving/V column to scan.
        kind: Predicate kind (see :data:`SCAN_KINDS`).
        constants: One constant, or (low, high) for ``between``.
    """

    column: "BitWeavingColumn"
    kind: str
    constants: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in SCAN_KINDS:
            raise ValueError(f"unknown scan kind {self.kind!r}")
        object.__setattr__(self, "constants", tuple(self.constants))
        expected = 2 if self.kind == "between" else 1
        if len(self.constants) != expected:
            raise ValueError(
                f"{self.kind} takes {expected} constant(s), got {len(self.constants)}"
            )

    @property
    def num_rows(self) -> int:
        """Rows of the result bit vector."""
        return self.column.num_rows

    def evaluate(self) -> Tuple[np.ndarray, "ScanPlan"]:
        """(packed result bits, bulk-operation plan), evaluated on the host."""
        return self.column.scan(self.kind, *self.constants)

    def to_request(self) -> "ScanRequest":
        """Lower to the primitive service request the frontends queue."""
        from repro.service.requests import ScanRequest  # local: avoid cycle

        return ScanRequest(column=self.column, kind=self.kind, constants=self.constants)


@dataclass(frozen=True)
class ConjunctionSpec:
    """Declarative description of one bitmap-index conjunction.

    Attributes:
        index: The bitmap source (a :class:`BitmapIndex` or a shard view —
            anything with ``num_rows``, ``bitmap`` and
            ``evaluate_conjunction``).
        predicates: (column, values) pairs; each contributes an ``IN``.
    """

    index: Any
    predicates: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ValueError("predicates must not be empty")
        normalized = tuple(
            (column, tuple(values)) for column, values in self.predicates
        )
        object.__setattr__(self, "predicates", normalized)
        for column, values in self.predicates:
            if not values:
                raise ValueError(f"predicate on {column!r} has no values")

    @property
    def num_rows(self) -> int:
        """Rows of the result bit vector."""
        return self.index.num_rows

    def evaluate(self) -> Tuple[np.ndarray, BitmapPlan]:
        """(packed result bits, bulk-operation plan), evaluated on the host."""
        return self.index.evaluate_conjunction(list(self.predicates))

    def to_request(self) -> "BitmapConjunctionRequest":
        """Lower to the high-level service request the planner expands."""
        from repro.service.requests import BitmapConjunctionRequest  # local: avoid cycle

        return BitmapConjunctionRequest(index=self.index, predicates=self.predicates)


@dataclass(frozen=True)
class AppendSpec:
    """Declarative description of a row append (every column covered).

    Attributes:
        table: The table gaining rows.
        index: The bitmap index maintained over it.
        rows: Per-column code sequences, equal lengths.
    """

    table: Any
    index: Any
    rows: Any

    @property
    def num_rows(self) -> None:
        """None: a write's response value is rows affected, not a bitmap."""
        return None

    def to_request(self) -> "AppendRequest":
        """Lower to the storage write request the frontends queue."""
        from repro.storage.requests import AppendRequest  # local: avoid cycle

        return AppendRequest(table=self.table, index=self.index, rows=self.rows)


@dataclass(frozen=True)
class UpdateSpec:
    """Declarative description of ``column[row_ids] = values``.

    Row ids must be unique within one update (the incremental plane
    maintenance is ambiguous otherwise).
    """

    table: Any
    index: Any
    column: str
    row_ids: Tuple[int, ...]
    values: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_ids", tuple(self.row_ids))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.row_ids) != len(self.values):
            raise ValueError("row_ids and values must have equal lengths")

    @property
    def num_rows(self) -> None:
        """None: a write's response value is rows affected, not a bitmap."""
        return None

    def to_request(self) -> "UpdateRequest":
        """Lower to the storage write request the frontends queue."""
        from repro.storage.requests import UpdateRequest  # local: avoid cycle

        return UpdateRequest(
            table=self.table,
            index=self.index,
            column=self.column,
            row_ids=self.row_ids,
            values=self.values,
        )


@dataclass(frozen=True)
class DeleteSpec:
    """Declarative description of a physical row deletion (rows renumber)."""

    table: Any
    index: Any
    row_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_ids", tuple(self.row_ids))

    @property
    def num_rows(self) -> None:
        """None: a write's response value is rows affected, not a bitmap."""
        return None

    def to_request(self) -> "DeleteRequest":
        """Lower to the storage write request the frontends queue."""
        from repro.storage.requests import DeleteRequest  # local: avoid cycle

        return DeleteRequest(table=self.table, index=self.index, row_ids=self.row_ids)


#: Everything a :class:`~repro.api.session.PimSession` accepts declaratively.
QuerySpec = Union[ScanSpec, ConjunctionSpec]

#: The mutation specs :meth:`PimSession.append` / ``update`` / ``delete`` build.
WriteSpec = Union[AppendSpec, UpdateSpec, DeleteSpec]


def range_count_spec(column: "BitWeavingColumn", low: int, high: int) -> ScanSpec:
    """``SELECT COUNT(*) WHERE low <= col <= high`` as a scan spec."""
    return ScanSpec(column=column, kind="between", constants=(low, high))


def spec_for_request(request: object) -> Union[QuerySpec, WriteSpec]:
    """Recover the declarative spec of an already-lowered request.

    Lets streams of raw :class:`~repro.service.requests.ScanRequest` /
    :class:`~repro.service.requests.BitmapConjunctionRequest` (and the
    storage write requests) — the shape the arrival schedulers and the
    retry client produce — flow through the session API without
    re-wrapping by hand.
    """
    from repro.service.requests import (  # local: avoid cycle
        BitmapConjunctionRequest,
        ScanRequest,
    )
    from repro.storage.requests import (  # local: avoid cycle
        AppendRequest,
        DeleteRequest,
        UpdateRequest,
    )

    if isinstance(request, ScanRequest):
        return ScanSpec(
            column=request.column, kind=request.kind, constants=tuple(request.constants)
        )
    if isinstance(request, BitmapConjunctionRequest):
        return ConjunctionSpec(index=request.index, predicates=request.predicates)
    if isinstance(request, AppendRequest):
        return AppendSpec(table=request.table, index=request.index, rows=request.rows)
    if isinstance(request, UpdateRequest):
        return UpdateSpec(
            table=request.table,
            index=request.index,
            column=request.column,
            row_ids=tuple(request.row_ids),
            values=tuple(request.values),
        )
    if isinstance(request, DeleteRequest):
        return DeleteSpec(
            table=request.table, index=request.index, row_ids=tuple(request.row_ids)
        )
    raise TypeError(f"no query spec for request type {type(request).__name__}")


# ----------------------------------------------------------------------
# Conjunction chain lowering (shared by both tiers)
# ----------------------------------------------------------------------
#: One lowered step: ``(op, a, b, out)`` over host-only vectors.
LoweredStep = Tuple[str, BulkBitVector, BulkBitVector, BulkBitVector]


def lower_conjunction_steps(
    index: Any,
    predicates: Sequence[Tuple[str, Sequence[int]]],
    row_size_bytes: int = 8192,
) -> Tuple[List[LoweredStep], BulkBitVector, BitmapPlan]:
    """Lower a conjunction into primitive bulk bitwise steps.

    Each step is ``(op, a, b, out)`` over host-only
    :class:`BulkBitVector` operands: first the OR chain of each
    predicate's value bitmaps, then the AND chain across predicates.
    The steps are data-dependent in order (each ``out`` feeds a later
    operand), so an executor must run them in sequence.  The step count
    matches :meth:`BitmapIndex.evaluate_conjunction`'s
    :class:`BitmapPlan` exactly, so charging each step at the engine's
    bulk-operation cost attributes the same total latency and energy as
    the plan-level cost model.

    Args:
        index: The bitmap source — anything with ``num_rows`` and
            ``bitmap(column, value)``, i.e. a
            :class:`~repro.database.bitmap_index.BitmapIndex` or a
            :class:`~repro.database.sharding.BitmapIndexShardView` (which
            is how every cluster shard lowers exactly like the
            single-device planner).
        predicates: (column, values) pairs.
        row_size_bytes: Row size of the *target device* — the vectors'
            row-chunk count, and therefore the cost the executor
            charges per step, is derived from it.  Callers lowering for
            an engine must pass its device's row size or the charged
            cost diverges from the plan-level model.

    Returns:
        (steps, result vector, plan).  With one single-value predicate
        the step list is empty and the result is the bitmap itself.
    """
    if not predicates:
        raise ValueError("predicates must not be empty")
    num_rows = index.num_rows
    steps: List[LoweredStep] = []
    operations: List[Tuple[str, int]] = []
    partials: List[BulkBitVector] = []
    for column, values in predicates:
        sub_steps, acc = lower_predicate_steps(index, column, values, row_size_bytes)
        steps.extend(sub_steps)
        if sub_steps:
            operations.append(("or", len(sub_steps)))
        partials.append(acc)
    result = partials[0]
    for partial in partials[1:]:
        out = BulkBitVector(num_rows, row_size_bytes)
        steps.append(("and", result, partial, out))
        result = out
    if len(predicates) > 1:
        operations.append(("and", len(predicates) - 1))
    plan = BitmapPlan(operations=operations, result_bits=num_rows)
    return steps, result, plan


def lower_predicate_steps(
    index: Any,
    column: str,
    values: Sequence[int],
    row_size_bytes: int = 8192,
) -> Tuple[List[LoweredStep], BulkBitVector]:
    """Lower one predicate's OR chain: ``col IN values`` as bulk steps.

    The independent sub-chain of one conjunction predicate — this is the
    unit the batch plan optimizer shares across requests (CSE) and spreads
    across bank lanes (sub-chain splitting).  Steps are data-dependent in
    order; with a single value the step list is empty and the result is
    the value's bitmap vector itself.

    Args:
        index: The bitmap source (see :func:`lower_conjunction_steps`).
        column: Predicate column.
        values: The ``IN`` set (must be non-empty).
        row_size_bytes: Row size of the target device.

    Returns:
        (steps, result vector): ``len(values) - 1`` OR steps and the
        vector holding the predicate's result bitmap.
    """
    values = list(values)
    if not values:
        raise ValueError(f"predicate on {column!r} has no values")
    num_rows = index.num_rows
    steps: List[LoweredStep] = []
    acc = _bitmap_vector(index, column, values[0], row_size_bytes)
    for value in values[1:]:
        out = BulkBitVector(num_rows, row_size_bytes)
        steps.append(
            ("or", acc, _bitmap_vector(index, column, value, row_size_bytes), out)
        )
        acc = out
    return steps, acc


def _bitmap_vector(index: Any, column: str, value: int, row_size_bytes: int) -> BulkBitVector:
    """A host-only vector holding one value's packed bitmap."""
    packed = index.bitmap(column, value)
    vector = BulkBitVector(index.num_rows, row_size_bytes)
    vector.data[: packed.size] = packed
    return vector
