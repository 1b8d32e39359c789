"""``repro.obs`` — the observability plane: virtual-clock tracing + metrics.

Everything in this package rides the simulation's virtual clock; spans
are stamped post-hoc from timestamps the scheduler already computed, so
tracing a run is bit-exact with not tracing it (property-tested in
``tests/test_obs.py``).  Wall-clock imports are banned here by the
``obs-wall-clock`` rule in ``tools/lint_invariants.py``.

**Metrics are always on.**  Every backend
(:class:`~repro.service.BatchExecutor`,
:class:`~repro.service.ServiceFrontend`,
:class:`~repro.cluster.ClusterFrontend`) owns one
:class:`MetricsRegistry` from construction — its one ledger — and
always writes it; a service frontend shares its executor's, a cluster
shares its own into every shard and its maintenance policy.

**``observe=`` chooses only the tracer** (on those backends and on
:class:`~repro.api.PimSession`): ``False`` (default) is
:data:`NULL_TRACER`, whose hot paths allocate no span objects; ``True``
a fresh :class:`Tracer`; an :class:`Observer` shares its whole plane at
construction.  ``bind_observer`` on a live backend swaps the tracer and
keeps the registry, so attaching one never resets or forks its counts.

Export with :func:`write_trace` (Chrome/Perfetto trace-event JSON) or
:meth:`MetricsRegistry.snapshot`; render in-terminal with
``repro.analysis.timeline``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.obs.export import build_trace, trace_events, write_trace
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, StreamingHistogram
from repro.obs.trace import NULL_SPAN, NULL_TRACER, Span, Tracer


class Observer:
    """One tracer + one metrics registry — the unit a backend threads
    through its stack (session → frontend → executor, or cluster → every
    shard).  ``enabled`` means the tracer records; the registry is
    written either way."""

    __slots__ = ("tracer", "metrics")

    def __init__(self, tracer: Optional[Tracer] = None, metrics: Optional[MetricsRegistry] = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def snapshot(self) -> Dict[str, Any]:
        """The metrics-snapshot dict (see ``tools/validate_bench.py``)."""
        return self.metrics.snapshot()


def resolve_observe(observe: Union[bool, Observer]) -> Observer:
    """Normalize an ``observe=`` knob value: an observer → itself, else a
    fresh observer (own registry) tracing into a new :class:`Tracer` for
    ``True`` or :data:`NULL_TRACER` for ``False``."""
    if isinstance(observe, Observer):
        return observe
    return Observer(tracer=None if observe else NULL_TRACER)


__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "Observer",
    "Span",
    "StreamingHistogram",
    "Tracer",
    "build_trace",
    "resolve_observe",
    "trace_events",
    "write_trace",
]
