"""Elastic cluster serving: replica autoscaling and admission control.

This module holds the control-plane policies of a
:class:`~repro.core.cluster_system.ClusterServingSystem`:

* :class:`AutoscalerPolicy` decides, on a configurable decision interval, how
  many replicas should be *active* (receiving new arrivals).  Draining a
  replica never mutates the engine's unit set -- a drained replica finishes
  its in-flight work and simply stops being a routing candidate -- so the
  discrete-event simulation stays deterministic.
* :class:`AdmissionController` decides, per arrival, whether the cluster
  accepts, rejects, or defers the request, based on the load of the currently
  active replicas.  Rejections and deferrals feed the SLO-attainment/goodput
  metrics block (:class:`~repro.sim.metrics.SummaryStats`).

Both policy families observe the cluster through :class:`ReplicaState`
snapshots, so they are unit-testable without building real serving systems.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.registry import Registry
from repro.sim.engine import ADMIT, AdmissionDecision
from repro.sim.request import Request


@dataclass(frozen=True)
class ReplicaState:
    """Point-in-time load snapshot of one replica, as policies see it."""

    index: int
    active: bool
    kv_utilization: float   # mean per-device KV-cache utilisation in [0, 1]
    queue_depth: int        # requests waiting (incl. pending hand-offs) across units
    num_running: int        # requests currently in running batches
    capacity_bytes: float   # fixed KV capacity of the replica (heterogeneity weight)
    cost_per_hour: float = 0.0  # rental price of the replica's devices ($/hr)


def _active(states: Sequence[ReplicaState]) -> Sequence[ReplicaState]:
    return [s for s in states if s.active]


# --------------------------------------------------------------------------- autoscalers


class AutoscalerPolicy(abc.ABC):
    """Decides the target number of active replicas on each control tick.

    Parameters
    ----------
    interval:
        Seconds between decisions (the engine's control-tick period).
    min_replicas:
        Never drain below this many active replicas.
    initial_active:
        Active replicas at t=0 (defaults to ``min_replicas``, so a burst has
        to *earn* its capacity and scale-up is observable).
    scale_down_patience:
        Consecutive ticks the policy must want fewer replicas before one is
        actually drained -- simple hysteresis against flapping on noisy load.
        Scale-up is always immediate.
    cost_aware:
        When true, :meth:`choose_scale_up` picks the cheapest inactive
        replica (by :attr:`ReplicaState.cost_per_hour`) predicted to clear
        the current load deficit, instead of blind lowest-index activation.
        Off by default: index order is the historical behavior and the
        snapshot gates depend on it.
    """

    name: str = "autoscaler"

    def __init__(
        self,
        interval: float = 5.0,
        min_replicas: int = 1,
        initial_active: Optional[int] = None,
        scale_down_patience: int = 2,
        cost_aware: bool = False,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        if min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if scale_down_patience < 1:
            raise ValueError("scale_down_patience must be >= 1")
        self.interval = interval
        self.min_replicas = min_replicas
        self.initial_active = initial_active if initial_active is not None else min_replicas
        self.scale_down_patience = scale_down_patience
        self.cost_aware = bool(cost_aware)
        self._below_ticks = 0

    def reset(self) -> None:
        """Clear per-run mutable state (hysteresis counters).

        Called when the policy instance is installed into a cluster system, so
        reusing one instance across several simulations cannot leak the
        previous run's patience countdown into the next.
        """
        self._below_ticks = 0

    @abc.abstractmethod
    def _raw_desired(self, states: Sequence[ReplicaState], now: float) -> int:
        """Policy-specific target active count, before clamping/hysteresis."""

    def desired_active(self, states: Sequence[ReplicaState], now: float) -> int:
        """Clamped, hysteresis-filtered target number of active replicas."""
        current = len(_active(states))
        desired = self._raw_desired(states, now)
        desired = max(self.min_replicas, min(desired, len(states)))
        if desired >= current:
            self._below_ticks = 0
            return desired
        self._below_ticks += 1
        if self._below_ticks < self.scale_down_patience:
            return current
        self._below_ticks = 0
        # Drain one replica per decision: gradual scale-down keeps tail
        # latency stable while the burst may still return.
        return current - 1

    def load_deficit_bytes(self, states: Sequence[ReplicaState]) -> float:
        """KV bytes held by active replicas beyond the comfortable target.

        This is the capacity a scale-up must absorb.  Policies with an
        explicit utilization target (``target-kv``) use it; others fall back
        to a 0.6 comfort level -- the deficit only *ranks* candidate
        blueprints, so the exact level is not critical.
        """
        active = _active(states)
        used = sum(s.kv_utilization * s.capacity_bytes for s in active)
        budget = sum(s.capacity_bytes for s in active)
        target = getattr(self, "target_utilization", 0.6)
        return max(0.0, used - target * budget)

    def choose_scale_up(
        self, states: Sequence[ReplicaState], num_needed: int, now: float
    ) -> List[int]:
        """Blueprint choice: which inactive replicas to activate, in order.

        The default (``cost_aware=False``) activates in index order, which is
        the historical lowest-index-first behavior.  With ``cost_aware=True``
        each pick is the cheapest inactive replica whose KV capacity clears
        the remaining load deficit; when no single blueprint clears it, the
        best capacity-per-dollar candidate is taken instead (the AlpaServe
        simulator-as-oracle move: rank deployment choices by predicted
        effect, not by index).  Ties break on capacity, then index, so
        heterogeneous fleets activate deterministically.
        """
        candidates = [s for s in states if not s.active]
        if not self.cost_aware:
            return [s.index for s in candidates[:num_needed]]
        chosen: List[int] = []
        deficit = self.load_deficit_bytes(states)
        remaining = list(candidates)
        for _ in range(num_needed):
            if not remaining:
                break
            clearing = [s for s in remaining if s.capacity_bytes >= deficit]
            if clearing:
                pick = min(clearing, key=lambda s: (s.cost_per_hour, s.capacity_bytes, s.index))
            else:
                pick = min(
                    remaining,
                    key=lambda s: (
                        s.cost_per_hour / s.capacity_bytes if s.capacity_bytes > 0 else math.inf,
                        s.index,
                    ),
                )
            chosen.append(pick.index)
            remaining.remove(pick)
            deficit = max(0.0, deficit - pick.capacity_bytes)
        return chosen


class TargetKVUtilizationAutoscaler(AutoscalerPolicy):
    """Scale so the mean KV utilisation of active replicas tracks a target.

    The classic proportional rule: ``desired = ceil(active * mean_util /
    target)``.  Queued-but-unadmitted work holds no KV yet, so a small
    per-queued-request pressure term keeps a cold, saturated cluster (all KV
    free, queue exploding) from reading as "underloaded".
    """

    name = "target-kv"

    def __init__(
        self,
        target_utilization: float = 0.6,
        queue_pressure: float = 0.02,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if not 0 < target_utilization <= 1:
            raise ValueError("target_utilization must be in (0, 1]")
        if queue_pressure < 0:
            raise ValueError("queue_pressure must be >= 0")
        self.target_utilization = target_utilization
        self.queue_pressure = queue_pressure

    def _raw_desired(self, states: Sequence[ReplicaState], now: float) -> int:
        active = _active(states)
        if not active:
            return self.min_replicas
        load = sum(s.kv_utilization + self.queue_pressure * s.queue_depth for s in active)
        mean_load = load / len(active)
        return math.ceil(len(active) * mean_load / self.target_utilization)


class QueueDepthAutoscaler(AutoscalerPolicy):
    """Scale so each active replica carries at most a target queue depth."""

    name = "queue-depth"

    def __init__(self, target_queue_per_replica: float = 4.0, **kwargs) -> None:
        super().__init__(**kwargs)
        if target_queue_per_replica <= 0:
            raise ValueError("target_queue_per_replica must be > 0")
        self.target_queue_per_replica = target_queue_per_replica

    def _raw_desired(self, states: Sequence[ReplicaState], now: float) -> int:
        active = _active(states)
        total_queue = sum(s.queue_depth for s in active)
        if total_queue == 0:
            # Idle queues: keep replicas that still run work, drain the rest.
            return sum(1 for s in active if s.num_running > 0) or self.min_replicas
        return math.ceil(total_queue / self.target_queue_per_replica)


#: Autoscaler plugin registry; entries are :class:`AutoscalerPolicy` factories
#: taking the policy's keyword arguments.  Third-party policies join with
#: ``@AUTOSCALERS.register("my-policy", help="...")``.
AUTOSCALERS: Registry = Registry("autoscaler")
AUTOSCALERS.register(
    "target-kv", TargetKVUtilizationAutoscaler,
    help="track a target mean KV utilisation across active replicas",
)
AUTOSCALERS.register(
    "queue-depth", QueueDepthAutoscaler,
    help="cap the queue depth each active replica carries",
)


def make_autoscaler(policy: "str | AutoscalerPolicy | None", **kwargs) -> Optional[AutoscalerPolicy]:
    """Resolve an autoscaler name (or pass through an instance / ``None``)."""
    if policy is None or isinstance(policy, AutoscalerPolicy):
        return policy
    return AUTOSCALERS.create(policy, **kwargs)


# --------------------------------------------------------------------------- admission


class AdmissionController(abc.ABC):
    """Per-arrival accept / reject / defer decision over active-replica load.

    ``mode="reject"`` turns overload arrivals away outright; ``mode="defer"``
    re-presents them ``retry_delay`` seconds later, up to ``max_defers`` times
    per request (after which the request is rejected -- an unbounded defer
    loop would keep the event queue alive forever on a permanently saturated
    cluster).
    """

    name: str = "admission"

    def __init__(
        self,
        mode: str = "reject",
        retry_delay: float = 0.25,
        max_defers: int = 40,
    ) -> None:
        if mode not in ("reject", "defer"):
            raise ValueError(f"mode must be 'reject' or 'defer', got {mode!r}")
        if retry_delay <= 0:
            raise ValueError("retry_delay must be > 0")
        if max_defers < 1:
            raise ValueError("max_defers must be >= 1")
        self.mode = mode
        self.retry_delay = retry_delay
        self.max_defers = max_defers
        self._defer_counts: Dict[int, int] = {}

    def reset(self) -> None:
        """Clear per-run mutable state (defer budgets keyed by request id).

        Request ids restart at 0 every simulation, so a reused controller
        instance would otherwise charge a new run's requests for the previous
        run's deferrals.
        """
        self._defer_counts.clear()

    @abc.abstractmethod
    def overloaded(self, state: ReplicaState) -> bool:
        """Whether one replica is too loaded to take this arrival."""

    def decide(
        self, request: Request, states: Sequence[ReplicaState], now: float
    ) -> AdmissionDecision:
        active = _active(states)
        if not active or all(self.overloaded(s) for s in active):
            if self.mode == "reject":
                return AdmissionDecision("reject")
            seen = self._defer_counts.get(request.request_id, 0)
            if seen >= self.max_defers:
                self._defer_counts.pop(request.request_id, None)
                return AdmissionDecision("reject")
            self._defer_counts[request.request_id] = seen + 1
            return AdmissionDecision("defer", retry_delay=self.retry_delay)
        self._defer_counts.pop(request.request_id, None)
        return ADMIT


class KVThresholdAdmission(AdmissionController):
    """Turn arrivals away while every active replica's KV cache is above a bound."""

    name = "kv-threshold"

    def __init__(self, max_utilization: float = 0.9, **kwargs) -> None:
        super().__init__(**kwargs)
        if not 0 < max_utilization <= 1:
            raise ValueError("max_utilization must be in (0, 1]")
        self.max_utilization = max_utilization

    def overloaded(self, state: ReplicaState) -> bool:
        return state.kv_utilization >= self.max_utilization


class QueueThresholdAdmission(AdmissionController):
    """Turn arrivals away while every active replica's queue is above a bound."""

    name = "queue-threshold"

    def __init__(self, max_queue_depth: int = 16, **kwargs) -> None:
        super().__init__(**kwargs)
        if not float(max_queue_depth).is_integer() or max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be a whole number >= 1, got {max_queue_depth!r}"
            )
        self.max_queue_depth = int(max_queue_depth)

    def overloaded(self, state: ReplicaState) -> bool:
        return state.queue_depth >= self.max_queue_depth


#: Admission-controller plugin registry; entries are
#: :class:`AdmissionController` factories taking the policy's keyword
#: arguments.  Third-party controllers join with
#: ``@ADMISSIONS.register("my-policy", help="...")``.
ADMISSIONS: Registry = Registry("admission policy")
ADMISSIONS.register(
    "kv-threshold", KVThresholdAdmission,
    help="turn arrivals away while every active replica's KV cache is above a bound",
)
ADMISSIONS.register(
    "queue-threshold", QueueThresholdAdmission,
    help="turn arrivals away while every active replica's queue is above a bound",
)


def make_admission(
    policy: "str | AdmissionController | None", **kwargs
) -> Optional[AdmissionController]:
    """Resolve an admission-controller name (or pass through an instance / ``None``)."""
    if policy is None or isinstance(policy, AdmissionController):
        return policy
    return ADMISSIONS.create(policy, **kwargs)
