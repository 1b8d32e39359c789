"""Obs-driven elastic scale and re-placement controller.

:class:`ElasticController` is the closed-loop half of the cluster's
elasticity story: it ticks on the cluster's **virtual clock** (the
frontend fires :meth:`run_due` from ``advance_to``/``drain``, exactly
like a scheduled fault event) and decides from the **metrics registry
only** — it reads the cluster's always-on registry snapshot (gauges and
counters), not private frontend state, per the ROADMAP's rule that
control decisions must flow through the same signals an operator would
watch.  The registry is written whether or not the cluster traces, so
attaching a controller never switches tracing on:

* ``cluster.backlog_ns.shard<i>`` / ``cluster.imbalance`` — queue skew;
* ``cluster.rejection_rate`` — admission pressure;
* ``cluster.key_reads.<label>`` — per-key read heat (what to replicate).

Three actuators, all on the cluster frontend's public surface:

* **Re-replication** (``imbalance > imbalance_threshold``): the hottest
  keys read on the most-backlogged shard gain a replica on the
  least-backlogged one — the copy bytes are charged to the destination
  shard's lanes as a :class:`~repro.service.requests.CopyRequest`
  through its normal admission path (:meth:`ClusterFrontend
  .add_replica`), so elasticity is never free.
* **Join** (mean backlog or rejection rate over threshold for
  ``overload_windows`` consecutive ticks): grow the pool by one shard,
  up to ``max_shards``.
* **Drain + retire** (every routable backlog zero for ``idle_windows``
  consecutive ticks): the youngest routable shard drains, its queue
  migrates, sole-replica keys are copied off, and it leaves the pool,
  down to ``min_shards``.

Every decision is appended to :attr:`ElasticController.events` as a
:class:`ScaleEvent` for post-run audit.  The controller is fully
deterministic: same arrival stream + same policy → same tick instants →
same snapshot values → same decisions.  Wall-clock and host-randomness
imports are banned here by the ``obs-wall-clock`` rule in
``tools/lint_invariants.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.frontend import ClusterFrontend

#: Actions a controller tick may take (ScaleEvent.action values).
SCALE_ACTIONS = ("replicate", "join", "retire")


@dataclass
class ControllerPolicy:
    """Knobs of the elastic control loop (see module docstring).

    Attributes:
        interval_ns: Virtual-clock tick period.
        overload_backlog_ns: Mean routable backlog above which a tick
            counts as overloaded.
        overload_windows: Consecutive overloaded ticks before a join.
        idle_windows: Consecutive all-idle ticks before a retire.
        imbalance_threshold: Hottest/mean backlog ratio above which the
            tick re-replicates hot keys.
        rejection_rate_threshold: Cumulative rejected/offered ratio that
            also counts a tick as overloaded.
        max_shards: Pool-size ceiling for joins (alive shards).
        min_shards: Pool-size floor for retires (routable shards).
        max_replication: Replica-count ceiling per key.
        replicate_per_tick: Hot keys re-replicated per tick at most.
    """

    interval_ns: float = 50_000.0
    overload_backlog_ns: float = 200_000.0
    overload_windows: int = 2
    idle_windows: int = 4
    imbalance_threshold: float = 2.0
    rejection_rate_threshold: float = 0.05
    max_shards: int = 8
    min_shards: int = 1
    max_replication: int = 3
    replicate_per_tick: int = 1

    def __post_init__(self) -> None:
        if self.interval_ns <= 0.0:
            raise ValueError("interval_ns must be positive")
        if self.overload_windows < 1 or self.idle_windows < 1:
            raise ValueError("overload/idle windows must be at least 1")
        if self.imbalance_threshold < 1.0:
            raise ValueError("imbalance_threshold below 1 would always fire")
        if self.min_shards < 1 or self.max_shards < self.min_shards:
            raise ValueError("need 1 <= min_shards <= max_shards")
        if self.max_replication < 1:
            raise ValueError("max_replication must be at least 1")


@dataclass(frozen=True)
class ScaleEvent:
    """One controller decision, for post-run audit.

    Attributes:
        at_ns: Tick instant the decision was taken.
        action: One of :data:`SCALE_ACTIONS`.
        shard_id: Destination shard (replica target, joined id, or the
            retired shard).
        key: The re-replicated key's label ("" for join/retire).
        detail: Free-form context (the signal that triggered it).
    """

    at_ns: float
    action: str
    shard_id: int
    key: str = ""
    detail: str = ""


class ElasticController:
    """Watches the obs plane and resizes/re-places the cluster.

    Registers itself as ``cluster.controller`` so the frontend's event
    loop fires its ticks.  It reads the cluster's registry as it stands
    and leaves the cluster's tracer alone.

    Args:
        cluster: The frontend to control.
        policy: Control knobs (defaults to :class:`ControllerPolicy`).
        start_ns: Virtual instant of tick 0 (first tick fires one
            ``interval_ns`` later).
    """

    def __init__(
        self,
        cluster: "ClusterFrontend",
        policy: Optional[ControllerPolicy] = None,
        start_ns: float = 0.0,
    ) -> None:
        self.cluster = cluster
        self.policy = policy or ControllerPolicy()
        self._next_tick = float(start_ns) + self.policy.interval_ns
        #: Decision audit log, in tick order.
        self.events: List[ScaleEvent] = []
        #: Ticks executed so far.
        self.ticks = 0
        self._hot_streak = 0
        self._idle_streak = 0
        cluster.controller = self

    # ------------------------------------------------------------------
    # Schedule surface (consumed by ClusterFrontend.advance_to/drain)
    # ------------------------------------------------------------------
    def next_tick_ns(self) -> float:
        """Instant of the next pending tick."""
        return self._next_tick

    def run_due(self, at_ns: float) -> int:
        """Execute the tick due at or before ``at_ns`` (missed ticks —
        the clock jumped past several periods — collapse into one tick at
        the latest due instant; the skipped windows carried no new
        information, the snapshot is cumulative).  Returns ticks run."""
        if self._next_tick > at_ns:
            return 0
        interval = self.policy.interval_ns
        missed = math.floor((at_ns - self._next_tick) / interval)
        tick_at = self._next_tick + missed * interval
        self.step(tick_at)
        self._next_tick = tick_at + interval
        return 1

    # ------------------------------------------------------------------
    # The control loop body
    # ------------------------------------------------------------------
    def step(self, now_ns: float) -> None:
        """One control decision at ``now_ns`` from the current snapshot."""
        self.ticks += 1
        cluster = self.cluster
        policy = self.policy
        router = cluster.router
        cluster.publish_gauges(now_ns)
        snapshot = cluster.obs.snapshot()
        gauges: Dict[str, float] = snapshot["gauges"]
        counters: Dict[str, float] = snapshot["counters"]

        routable = router.routable_shards()
        backlogs = {
            shard: gauges.get(f"cluster.backlog_ns.shard{shard}", 0.0)
            for shard in routable
        }
        mean = sum(backlogs.values()) / len(backlogs) if backlogs else 0.0
        peak = max(backlogs.values()) if backlogs else 0.0
        imbalance = gauges.get("cluster.imbalance", 1.0)
        rejection_rate = gauges.get("cluster.rejection_rate", 0.0)

        if imbalance > policy.imbalance_threshold and len(routable) > 1:
            self._replicate_hot_keys(now_ns, backlogs, counters)

        overloaded = (
            mean > policy.overload_backlog_ns
            or rejection_rate > policy.rejection_rate_threshold
        )
        if overloaded:
            self._hot_streak += 1
            self._idle_streak = 0
        elif peak <= 0.0:
            self._idle_streak += 1
            self._hot_streak = 0
        else:
            self._hot_streak = 0
            self._idle_streak = 0

        if (
            self._hot_streak >= policy.overload_windows
            and len(router.alive_shards()) < policy.max_shards
        ):
            new_id = cluster.join_shard(at_ns=now_ns)
            self.events.append(
                ScaleEvent(
                    at_ns=now_ns,
                    action="join",
                    shard_id=new_id,
                    detail=f"mean_backlog_ns={mean:.0f} rejection_rate={rejection_rate:.3f}",
                )
            )
            self._hot_streak = 0
        elif (
            self._idle_streak >= policy.idle_windows
            and len(routable) > policy.min_shards
        ):
            victim = max(routable)  # youngest first: joins retire before seeds
            if cluster.retire_shard(victim, at_ns=now_ns):
                self.events.append(
                    ScaleEvent(
                        at_ns=now_ns,
                        action="retire",
                        shard_id=victim,
                        detail=f"idle_windows={self._idle_streak}",
                    )
                )
            self._idle_streak = 0

    def _replicate_hot_keys(
        self,
        now_ns: float,
        backlogs: Dict[int, float],
        counters: Dict[str, float],
    ) -> None:
        """Give the hottest keys of the most-backlogged shard a replica
        on the least-backlogged one (the copy is charged there)."""
        policy = self.policy
        router = self.cluster.router
        hot_shard = max(backlogs, key=lambda shard: (backlogs[shard], shard))
        cold_shard = min(backlogs, key=lambda shard: (backlogs[shard], shard))
        if hot_shard == cold_shard:
            return
        replicated = 0
        for label, reads in self._keys_by_heat(counters):
            if replicated >= policy.replicate_per_tick:
                break
            key = router.key_for_label(label)
            if key is None:
                continue
            replicas = router.replicas(key)
            if (
                hot_shard not in replicas
                or cold_shard in replicas
                or len(replicas) >= policy.max_replication
            ):
                continue
            if self.cluster.add_replica(key, cold_shard, at_ns=now_ns):
                self.events.append(
                    ScaleEvent(
                        at_ns=now_ns,
                        action="replicate",
                        shard_id=cold_shard,
                        key=label,
                        detail=f"reads={reads:.0f} from=shard{hot_shard}",
                    )
                )
                replicated += 1

    @staticmethod
    def _keys_by_heat(counters: Dict[str, float]) -> List[Tuple[str, float]]:
        """Key labels by cumulative read count, hottest first."""
        prefix = "cluster.key_reads."
        heat = [
            (name[len(prefix):], value)
            for name, value in counters.items()
            if name.startswith(prefix)
        ]
        return sorted(heat, key=lambda item: (-item[1], item[0]))


__all__ = [
    "SCALE_ACTIONS",
    "ControllerPolicy",
    "ElasticController",
    "ScaleEvent",
]
