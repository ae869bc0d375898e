"""Data-parallel scale-out: N replicas of a serving system behind a router.

A :class:`ClusterServingSystem` composes several complete
:class:`~repro.sim.engine.ServingSystem` deployments ("replicas" -- each one a
full Hetis / Splitwise / HexGen / static-TP instance on its own hardware pool)
and routes every arrival to one replica through a pluggable
:class:`ReplicaRouter`.  The composed system plugs into the discrete-event
engine exactly like a single-replica system: its unit set is the union of the
replicas' units, and per-iteration hooks are forwarded to the replica that owns
the completing unit.

Routers implemented:

``round-robin``
    Cycle through replicas in arrival order.  Zero state inspection, perfectly
    fair under homogeneous replicas.
``least-kv``
    Send the arrival to the replica whose KV cache is least utilised (ties
    break on the lower replica index).  Global information, best balance.
``power-of-two``
    Sample two distinct replicas with a seeded generator and pick the one with
    the lower KV utilisation -- the classic "power of two choices" trade-off
    between router state and balance, and deterministic under a fixed seed.
``weighted-round-robin`` / ``weighted-least-kv`` / ``weighted-power-of-two``
    Capacity-weighted variants for heterogeneous replica mixes (e.g. an A100
    replica next to a T4 replica): the round-robin variant interleaves
    smoothly in proportion to each replica's KV capacity, the least-kv variant
    breaks utilisation ties toward the larger replica, and the power-of-two
    variant samples its two candidates with capacity-proportional probability.

Elasticity (optional, all off by default):

* an :class:`~repro.core.elasticity.AutoscalerPolicy` activates/drains
  replicas on a decision interval -- drained replicas finish in-flight work
  but receive no new arrivals, so the engine's unit set never mutates and
  determinism is preserved;
* an :class:`~repro.core.elasticity.AdmissionController` rejects or defers
  arrivals while every *active* replica is over a KV/queue threshold, feeding
  the SLO-attainment/goodput metrics block;
* KV-aware live migration (``migration=True``): a draining or failed
  replica's queued and preempted requests move to surviving replicas as
  priced, low-priority transfer events
  (:class:`~repro.kvcache.migration.ReplicaMigrationPlanner`) instead of
  finishing in place;
* failure injection (``failure_schedule``): a deterministic spot-churn
  schedule preempts replicas at given times -- in-flight work loses its KV
  (recompute-on-restart), the replica leaves the routable set until its
  recovery window elapses, and queued work either migrates (migration on) or
  rides out the outage in place (migration off).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.elasticity import (
    AdmissionController,
    AutoscalerPolicy,
    ReplicaState,
    make_admission,
    make_autoscaler,
)
from repro.kvcache.migration import ReplicaMigrationPlanner
from repro.registry import Registry
from repro.sim.engine import ADMIT, AdmissionDecision, ServingSystem
from repro.sim.iteration import Iteration, IterationOutcome
from repro.sim.recorder import PrefixedRecorderView, TimeSeriesRecorder
from repro.sim.request import Request
from repro.sim.units import ExecutionUnit
from repro.utils.rng import make_rng


def replica_kv_utilization(replica: ServingSystem) -> float:
    """Mean per-device KV-cache utilisation of one replica in [0, 1]."""
    values: List[float] = []
    for unit in replica.units:
        values.extend(unit.kv_utilization().values())
    if not values:
        return 0.0
    return sum(values) / len(values)


def replica_queue_depth(replica: ServingSystem) -> int:
    """Requests waiting (including pending hand-offs) across a replica's units."""
    return sum(unit.num_waiting for unit in replica.units)


def replica_cost_per_hour(replica: ServingSystem) -> float:
    """Aggregate $/hr of the hardware behind one replica.

    Walks the distinct cluster objects reachable from the replica (its own
    ``cluster`` attribute plus each unit's), de-duplicated by identity:
    several units of one replica normally share a cluster, which must be
    priced once.  Systems without cluster handles price as 0 (cost-unaware).
    """
    clusters = []
    root = getattr(replica, "cluster", None)
    if root is not None:
        clusters.append(root)
    for unit in replica.units:
        c = getattr(unit, "cluster", None)
        if c is not None:
            clusters.append(c)
    seen: Set[int] = set()
    total = 0.0
    for c in clusters:
        if id(c) in seen:
            continue
        seen.add(id(c))
        total += float(getattr(c, "cost_per_hour", 0.0))
    return total


def system_cost_per_hour(system: ServingSystem) -> float:
    """Aggregate $/hr of the hardware behind a deployment.

    For a :class:`ClusterServingSystem` this is the *provisioned* fleet price
    -- every replica, active or not: the planner's objective is what the
    deployment rents, and an autoscaled-out replica still costs money unless
    the operator gives it back.  Bare single-replica systems price as their
    own cluster.
    """
    replicas = getattr(system, "replicas", None)
    if replicas is not None:
        return sum(replica_cost_per_hour(r) for r in replicas)
    return replica_cost_per_hour(system)


class ReplicaRouter(abc.ABC):
    """Chooses which replica accepts a fresh arrival.

    The base class memoises the two quantities load-aware routers keep asking
    for: ``kv_load(replica, now)`` caches :func:`replica_kv_utilization` per
    ``(replica, now)`` -- utilisation only changes when simulated time
    advances, so same-timestamp arrival bursts must not rescan every unit of
    the whole cluster per arrival -- and ``capacity(replica)`` caches the
    replica's fixed KV capacity for the lifetime of the router.
    """

    name: str = "router"

    def __init__(self) -> None:
        self._util_cache: Dict[int, float] = {}
        self._util_cache_time: Optional[float] = None
        self._capacity_cache: Dict[int, float] = {}

    def kv_load(self, replica: ServingSystem, now: float) -> float:
        """Memoised :func:`replica_kv_utilization` for the current timestamp."""
        # Lazy-init via __dict__: pre-existing user routers subclassed an ABC
        # with no __init__, so they cannot be required to call super().
        if getattr(self, "_util_cache_time", object()) != now:
            self._util_cache_time = now
            self._util_cache = {}
        key = id(replica)
        load = self._util_cache.get(key)
        if load is None:
            load = self._util_cache[key] = replica_kv_utilization(replica)
        return load

    def invalidate(self, replica: ServingSystem) -> None:
        """Drop one replica's cached load.

        Called by the owning cluster when the replica's state changes *within*
        a timestamp (it received an arrival, or one of its units completed an
        iteration), so same-timestamp bursts see fresh load for the replicas
        that actually changed while still never rescanning the untouched rest
        of the cluster.
        """
        cache = getattr(self, "_util_cache", None)
        if cache is not None:
            cache.pop(id(replica), None)

    def capacity(self, replica: ServingSystem) -> float:
        """Memoised fixed KV capacity (bytes) -- the heterogeneity weight."""
        cache = self.__dict__.setdefault("_capacity_cache", {})
        key = id(replica)
        cap = cache.get(key)
        if cap is None:
            cap = cache[key] = float(replica.available_cache_bytes())
        return cap

    @abc.abstractmethod
    def select(self, request: Request, replicas: Sequence[ServingSystem], now: float) -> int:
        """Return the index of the replica that accepts ``request``.

        ``replicas`` is the list of *routable* (active) replicas; the returned
        index refers into that list.
        """


class RoundRobinRouter(ReplicaRouter):
    """Cycle through replicas in arrival order."""

    name = "round-robin"

    def __init__(self) -> None:
        super().__init__()
        self._next = 0

    def select(self, request: Request, replicas: Sequence[ServingSystem], now: float) -> int:
        idx = self._next % len(replicas)
        self._next += 1
        return idx


class LeastKVLoadRouter(ReplicaRouter):
    """Send each arrival to the replica with the lowest KV-cache utilisation."""

    name = "least-kv"

    def select(self, request: Request, replicas: Sequence[ServingSystem], now: float) -> int:
        best_idx = 0
        best_load = self.kv_load(replicas[0], now)
        for idx in range(1, len(replicas)):
            load = self.kv_load(replicas[idx], now)
            if load < best_load:
                best_idx, best_load = idx, load
        return best_idx


class PowerOfTwoChoicesRouter(ReplicaRouter):
    """Sample two distinct replicas, pick the lower-KV-utilisation one.

    Deterministic under a fixed ``seed``: the sampled pair sequence is a pure
    function of the seed and the arrival order.
    """

    name = "power-of-two"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._rng = make_rng(seed)

    def select(self, request: Request, replicas: Sequence[ServingSystem], now: float) -> int:
        n = len(replicas)
        if n == 1:
            return 0
        first, second = (int(i) for i in self._rng.choice(n, size=2, replace=False))
        if self.kv_load(replicas[second], now) < self.kv_load(replicas[first], now):
            return second
        return first


class WeightedRoundRobinRouter(ReplicaRouter):
    """Smooth weighted round-robin over replica KV capacities.

    The nginx-style interleaving: every replica accumulates credit equal to
    its capacity weight per arrival, the highest-credit replica wins and pays
    the total weight back.  Over any window the share each replica receives is
    proportional to its capacity, and the winners interleave smoothly instead
    of bunching.  Credit is keyed by replica identity, so replicas drained by
    an autoscaler simply stop accumulating until reactivated.
    """

    name = "weighted-round-robin"

    def __init__(self) -> None:
        super().__init__()
        self._credit: Dict[int, float] = {}

    def select(self, request: Request, replicas: Sequence[ServingSystem], now: float) -> int:
        weights = [self.capacity(r) for r in replicas]
        total = sum(weights)
        if total <= 0:
            weights = [1.0] * len(replicas)
            total = float(len(replicas))
        best_idx = 0
        best_credit = -float("inf")
        for idx, replica in enumerate(replicas):
            key = id(replica)
            credit = self._credit.get(key, 0.0) + weights[idx]
            self._credit[key] = credit
            if credit > best_credit:
                best_idx, best_credit = idx, credit
        self._credit[id(replicas[best_idx])] -= total
        return best_idx


class WeightedLeastKVRouter(ReplicaRouter):
    """Lowest utilisation, ties broken toward the larger-capacity replica.

    Utilisation is already capacity-normalised (a fraction of each replica's
    own cache), so comparing it across heterogeneous replicas equalises
    *relative* load; the capacity tie-break sends cold-start bursts (all
    replicas at 0.0) to the big replicas first instead of index order.
    """

    name = "weighted-least-kv"

    def select(self, request: Request, replicas: Sequence[ServingSystem], now: float) -> int:
        best_idx = 0
        best = (self.kv_load(replicas[0], now), -self.capacity(replicas[0]))
        for idx in range(1, len(replicas)):
            score = (self.kv_load(replicas[idx], now), -self.capacity(replicas[idx]))
            if score < best:
                best_idx, best = idx, score
        return best_idx


class WeightedPowerOfTwoRouter(ReplicaRouter):
    """Power-of-two choices with capacity-proportional candidate sampling.

    Large replicas are sampled (and therefore loaded) more often, which is
    exactly the behaviour plain power-of-two lacks on heterogeneous mixes:
    with uniform sampling a T4 replica would see as much traffic as an A100
    replica.  Deterministic under a fixed seed.
    """

    name = "weighted-power-of-two"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._rng = make_rng(seed)

    def select(self, request: Request, replicas: Sequence[ServingSystem], now: float) -> int:
        n = len(replicas)
        if n == 1:
            return 0
        weights = [self.capacity(r) for r in replicas]
        total = sum(weights)
        probs = [w / total for w in weights] if total > 0 else None
        first, second = (int(i) for i in self._rng.choice(n, size=2, replace=False, p=probs))
        load_first = self.kv_load(replicas[first], now)
        load_second = self.kv_load(replicas[second], now)
        if load_second < load_first:
            return second
        if load_second == load_first and self.capacity(replicas[second]) > self.capacity(
            replicas[first]
        ):
            return second
        return first


#: Router plugin registry.  Factories take the run seed (routers that do not
#: sample simply ignore it) and return a fresh :class:`ReplicaRouter`.
#: Third-party routers join with ``@ROUTERS.register("my-router", help="...")``.
ROUTERS: Registry = Registry("router")
ROUTERS.register(
    "round-robin", lambda seed: RoundRobinRouter(),
    help="cycle through replicas in arrival order",
)
ROUTERS.register(
    "least-kv", lambda seed: LeastKVLoadRouter(),
    help="send each arrival to the replica with the lowest KV-cache utilisation",
)
ROUTERS.register(
    "power-of-two", lambda seed: PowerOfTwoChoicesRouter(seed),
    help="sample two replicas with a seeded RNG, pick the less loaded one",
)
ROUTERS.register(
    "weighted-round-robin", lambda seed: WeightedRoundRobinRouter(),
    help="smooth round-robin in proportion to replica KV capacity",
)
ROUTERS.register(
    "weighted-least-kv", lambda seed: WeightedLeastKVRouter(),
    help="lowest utilisation, ties broken toward the larger replica",
)
ROUTERS.register(
    "weighted-power-of-two", lambda seed: WeightedPowerOfTwoRouter(seed),
    help="power-of-two with capacity-proportional candidate sampling",
)


def make_router(router: "str | ReplicaRouter", seed: int = 0) -> ReplicaRouter:
    """Resolve a router name (or pass through an instance)."""
    if isinstance(router, ReplicaRouter):
        return router
    return ROUTERS.create(router, seed)


class ClusterServingSystem(ServingSystem):
    """N replicas of any serving system behind a pluggable request router.

    Each replica must be a complete, independent deployment (its own cluster
    object / device pool): the composition only shares the event clock, which
    is exactly the data-parallel scale-out setting.

    Parameters
    ----------
    replicas:
        The member deployments.  They may be heterogeneous (built from
        different cluster blueprints); the ``weighted-*`` routers account for
        the capacity differences.
    router:
        Router name or instance (see :data:`ROUTERS`).
    autoscaler:
        Optional :class:`~repro.core.elasticity.AutoscalerPolicy` (or factory
        name) that activates/drains replicas on its decision interval.  When
        set, the run starts with ``autoscaler.initial_active`` replicas
        active; without one, every replica is always active and no control
        ticks are scheduled -- the pre-elasticity event path, bit-for-bit.
    admission:
        Optional :class:`~repro.core.elasticity.AdmissionController` (or
        factory name) consulted before each arrival is routed.
    migration:
        When true, a draining or failed replica's queued/preempted requests
        are evicted and re-routed to surviving replicas; each move is priced
        by the :class:`~repro.kvcache.migration.ReplicaMigrationPlanner` and
        arrives at its target after the transfer delay.  Off by default (the
        historical finish-in-place behavior, bit-for-bit).
    migration_bandwidth_gbps:
        Effective inter-replica link bandwidth in gigabits/s for pricing
        whole-request KV moves.
    failure_schedule:
        Deterministic spot-churn schedule: ``(time, replica_index)`` pairs,
        each preempting that replica at the first control tick at or after
        ``time``.  Usually produced by
        :meth:`repro.config.FailureSpec.build_schedule`.
    failure_recovery_time:
        Seconds a failed replica stays out of the fleet before it may rejoin
        (automatically without an autoscaler, as a scale-up candidate with
        one).
    failure_check_interval:
        Control-tick period used when failures are injected without an
        autoscaler (which would otherwise schedule no ticks at all).
    """

    def __init__(
        self,
        replicas: Sequence[ServingSystem],
        router: "str | ReplicaRouter" = "round-robin",
        seed: int = 0,
        name: Optional[str] = None,
        autoscaler: "str | AutoscalerPolicy | None" = None,
        admission: "str | AdmissionController | None" = None,
        migration: bool = False,
        migration_bandwidth_gbps: float = 100.0,
        failure_schedule: Optional[Sequence[Tuple[float, int]]] = None,
        failure_recovery_time: float = 30.0,
        failure_check_interval: float = 1.0,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one replica")
        self.replicas: List[ServingSystem] = list(replicas)
        self.router = make_router(router, seed)
        self.autoscaler = make_autoscaler(autoscaler)
        self.admission = make_admission(admission)
        # Policy instances may be reused across simulations; their per-run
        # state (hysteresis, defer budgets) belongs to this system's run.
        if self.autoscaler is not None:
            self.autoscaler.reset()
        if self.admission is not None:
            self.admission.reset()
        self.name = name or f"cluster[{len(self.replicas)}x{self.replicas[0].name}]"
        # Flattened unit set and the unit -> owning replica map.  Unit lists
        # are fixed after construction (the engine relies on this), so both
        # are computed once.
        self._units: List[ExecutionUnit] = []
        self._owner_of: Dict[int, Tuple[int, ServingSystem]] = {}
        self.requests_per_replica: List[int] = [0] * len(self.replicas)
        self._recorder_views: List[Optional[PrefixedRecorderView]] = [None] * len(self.replicas)
        for replica_idx, replica in enumerate(self.replicas):
            for unit in replica.units:
                self._units.append(unit)
                self._owner_of[id(unit)] = (replica_idx, replica)
        self._capacities = [float(r.available_cache_bytes()) for r in self.replicas]
        # Activation state: without an autoscaler everything is always active;
        # with one, the first ``initial_active`` replicas start active and the
        # rest wait to be scaled in.
        n_initial = len(self.replicas)
        if self.autoscaler is not None:
            n_initial = max(1, min(self.autoscaler.initial_active, len(self.replicas)))
        self.active: List[bool] = [i < n_initial for i in range(len(self.replicas))]
        self.scale_events: List[Tuple[float, int]] = []
        # Per-timestamp ReplicaState memo (same invalidation discipline as the
        # router's kv_load cache): admission consults the full snapshot on
        # every arrival, which must not rescan every unit of every replica
        # within a same-timestamp burst.
        self._state_cache: Dict[int, Tuple[float, ReplicaState]] = {}
        self._costs = [replica_cost_per_hour(r) for r in self.replicas]

        # -- live migration (drains / failures) --------------------------------
        self.migration_enabled = bool(migration)
        self._migration: Optional[ReplicaMigrationPlanner] = None
        if self.migration_enabled:
            model = next(
                (
                    getattr(u, "model", None)
                    for u in self._units
                    if getattr(u, "model", None) is not None
                ),
                None,
            )
            self._migration = ReplicaMigrationPlanner(model, migration_bandwidth_gbps)
        #: Executed migrations: ``(time, src_replica, num_requests, bytes)``.
        self.migration_events: List[Tuple[float, int, int, float]] = []
        self.num_migrated_requests = 0
        self.migrated_bytes = 0.0

        # -- failure injection -------------------------------------------------
        if failure_recovery_time < 0:
            raise ValueError("failure_recovery_time must be >= 0")
        if failure_check_interval <= 0:
            raise ValueError("failure_check_interval must be > 0")
        schedule = sorted(failure_schedule or [])
        for t, idx in schedule:
            if t < 0:
                raise ValueError(f"failure time must be >= 0, got {t!r}")
            if not 0 <= idx < len(self.replicas):
                raise ValueError(
                    f"failure targets replica {idx}, but the cluster has "
                    f"{len(self.replicas)} replicas"
                )
        self._failure_schedule: List[Tuple[float, int]] = schedule
        self._failure_cursor = 0
        self.failure_recovery_time = failure_recovery_time
        self.failure_check_interval = failure_check_interval
        # Wall-clock time until which each replica is down (0.0 = never failed
        # or fully recovered); a down replica cannot be (re)activated.
        self._down_until: List[float] = [0.0] * len(self.replicas)
        #: Executed failures: ``(time, replica_index)``.
        self.failure_events: List[Tuple[float, int]] = []

        # -- degraded routing (satellite: empty active set) --------------------
        self.num_drained_routes = 0
        # route() has no recorder handle, so drained-route events buffer here
        # and flush on the next control tick.
        self._drained_route_buffer: List[Tuple[float, int]] = []

    @property
    def units(self) -> List[ExecutionUnit]:
        return self._units

    @property
    def num_active(self) -> int:
        return sum(self.active)

    def active_replicas(self) -> List[ServingSystem]:
        return [r for r, a in zip(self.replicas, self.active) if a]

    def _invalidate(self, idx: int) -> None:
        """One replica's state changed within the current timestamp."""
        self._state_cache.pop(idx, None)
        self.router.invalidate(self.replicas[idx])

    def replica_states(self, now: float) -> List[ReplicaState]:
        """Load snapshot of every replica (policies and tests read this).

        Memoised per (replica, timestamp) and invalidated per replica when an
        arrival is routed to it or one of its units completes an iteration --
        same-timestamp bursts therefore rescan only the replicas that changed.
        """
        states: List[ReplicaState] = []
        for idx, replica in enumerate(self.replicas):
            cached = self._state_cache.get(idx)
            if cached is not None and cached[0] == now and cached[1].active == self.active[idx]:
                states.append(cached[1])
                continue
            state = ReplicaState(
                index=idx,
                active=self.active[idx],
                kv_utilization=self.router.kv_load(replica, now),
                queue_depth=replica_queue_depth(replica),
                num_running=sum(u.num_running for u in replica.units),
                capacity_bytes=self._capacities[idx],
                cost_per_hour=self._costs[idx],
            )
            self._state_cache[idx] = (now, state)
            states.append(state)
        return states

    # -- engine hooks: admission, routing, control ----------------------------------

    def admit(self, request: Request, now: float) -> AdmissionDecision:
        if self.admission is None:
            return ADMIT
        return self.admission.decide(request, self.replica_states(now), now)

    def _is_down(self, idx: int, now: float) -> bool:
        return self._down_until[idx] > now

    def route(self, request: Request, now: float) -> ExecutionUnit:
        candidates = [idx for idx, a in enumerate(self.active) if a]
        if not candidates:
            # Degraded mode, reachable under failure injection: every replica
            # is drained or down.  Route to the least-loaded drained replica
            # (lowest KV utilisation, ties to the lower index) explicitly and
            # surface the decision as a recorder event instead of silently
            # borrowing whatever the router picks over the full fleet.
            idx = min(
                range(len(self.replicas)),
                key=lambda i: (self.router.kv_load(self.replicas[i], now), i),
            )
            self.num_drained_routes += 1
            self._drained_route_buffer.append((now, idx))
            self.requests_per_replica[idx] += 1
            self._invalidate(idx)
            return self.replicas[idx].route(request, now)
        pool = [self.replicas[idx] for idx in candidates]
        local = self.router.select(request, pool, now)
        if not 0 <= local < len(pool):
            raise ValueError(f"router {self.router.name} chose invalid replica {local}")
        idx = candidates[local]
        self.requests_per_replica[idx] += 1
        # The accepted arrival is about to enqueue (and possibly allocate KV)
        # on this replica: later same-timestamp decisions must see fresh load.
        self._invalidate(idx)
        return self.replicas[idx].route(request, now)

    def control_interval(self) -> Optional[float]:
        if self.autoscaler is not None:
            return self.autoscaler.interval
        if self._failure_schedule:
            # Failure-only runs still need the control clock: failures fire,
            # and recovered replicas rejoin, on control ticks.
            return self.failure_check_interval
        return None

    def on_run_start(self, recorder: TimeSeriesRecorder) -> None:
        if self.autoscaler is None and not self._failure_schedule:
            # Pre-elasticity path: no control state exists, keep the series
            # empty exactly as before.
            return
        current = self.num_active
        recorder.record("active_replicas", "cluster", 0.0, float(current))
        self.scale_events.append((0.0, current))

    def on_control_tick(
        self, now: float, recorder: TimeSeriesRecorder
    ) -> Optional[List[Tuple[ExecutionUnit, Request, float]]]:
        transfers: List[Tuple[ExecutionUnit, Request, float]] = []
        if self._failure_schedule:
            self._recover_replicas(now)
            self._process_failures(now, recorder, transfers)
        if self.autoscaler is not None:
            states = self.replica_states(now)
            desired = self.autoscaler.desired_active(states, now)
            desired = max(1, min(desired, len(self.replicas)))
            current = self.num_active
            if desired > current:
                # Blueprint choice: the policy ranks inactive replicas (index
                # order by default, cheapest-that-clears-the-deficit when
                # cost-aware).  Down replicas are not offered as candidates.
                eligible = [
                    s for s in states if s.active or not self._is_down(s.index, now)
                ]
                chosen = self.autoscaler.choose_scale_up(eligible, desired - current, now)
                for idx in chosen:
                    if current == desired:
                        break
                    if (
                        0 <= idx < len(self.active)
                        and not self.active[idx]
                        and not self._is_down(idx, now)
                    ):
                        self.active[idx] = True
                        current += 1
                # Index-order fallback: a hook returning too few (or invalid)
                # picks must not stall scale-up below the desired count.
                for idx, a in enumerate(self.active):
                    if current == desired:
                        break
                    if not a and not self._is_down(idx, now):
                        self.active[idx] = True
                        current += 1
            elif desired < current:
                # Drain from the top: highest-index active replicas first.
                # Without migration the drained replica keeps finishing its
                # in-flight requests; with it, movable queued/preempted work
                # transfers to surviving replicas immediately.
                for idx in range(len(self.active) - 1, -1, -1):
                    if current == desired:
                        break
                    if self.active[idx]:
                        self.active[idx] = False
                        current -= 1
                        if self._migration is not None:
                            transfers.extend(self._migrate_off(idx, now, recorder))
            recorder.record("active_replicas", "cluster", now, float(current))
            if not self.scale_events or self.scale_events[-1][1] != current:
                self.scale_events.append((now, current))
        elif self._failure_schedule:
            # No autoscaler: keep the activation series honest across
            # failures/recoveries so churn runs still plot fleet size.
            current = self.num_active
            recorder.record("active_replicas", "cluster", now, float(current))
            if not self.scale_events or self.scale_events[-1][1] != current:
                self.scale_events.append((now, current))
        if self._drained_route_buffer:
            for t, idx in self._drained_route_buffer:
                recorder.record("drained_routes", "cluster", t, float(idx))
            self._drained_route_buffer.clear()
        if self._failure_schedule:
            # Churn runs always request the engine's restart sweep: a replica
            # whose pause just elapsed has stalled queued work that no event
            # of its own will ever restart.
            return transfers
        return transfers or None

    # -- failure injection and migration ---------------------------------------

    def _recover_replicas(self, now: float) -> None:
        """Re-admit replicas whose recovery window has elapsed.

        Without an autoscaler the fleet is fixed-size, so a recovered replica
        rejoins the routable set automatically.  With one, recovery only ends
        the down window -- the autoscaler decides whether (and when) the
        replica is worth reactivating via its scale-up hook.
        """
        if self.autoscaler is not None:
            return
        for idx in range(len(self.active)):
            if not self.active[idx] and 0.0 < self._down_until[idx] <= now:
                self.active[idx] = True
                self._down_until[idx] = 0.0

    def _process_failures(
        self,
        now: float,
        recorder: TimeSeriesRecorder,
        transfers: List[Tuple[ExecutionUnit, Request, float]],
    ) -> None:
        while self._failure_cursor < len(self._failure_schedule):
            t, idx = self._failure_schedule[self._failure_cursor]
            if t > now:
                break
            self._failure_cursor += 1
            self._fail_replica(idx, now, recorder, transfers)

    def _fail_replica(
        self,
        idx: int,
        now: float,
        recorder: TimeSeriesRecorder,
        transfers: List[Tuple[ExecutionUnit, Request, float]],
    ) -> None:
        """Spot-reclaim one replica: preempt its work and take it offline.

        Running requests lose their KV cache (recompute-on-restart) and land
        back in the replica's queue.  With migration on, everything queued --
        including the just-preempted work -- transfers to surviving replicas;
        with migration off it rides out the outage in place, which is the
        SLO damage the churn experiment measures.
        """
        replica = self.replicas[idx]
        self.active[idx] = False
        self._down_until[idx] = now + self.failure_recovery_time
        self.failure_events.append((now, idx))
        recorder.record("failures", "cluster", now, float(idx))
        for unit in replica.units:
            unit.preempt_running(now)
            # The outage is real: the engine will not start iterations on
            # this unit until the recovery window elapses.
            unit.paused_until = self._down_until[idx]
        self._invalidate(idx)
        if self._migration is not None:
            transfers.extend(self._migrate_off(idx, now, recorder))

    def _migrate_off(
        self, src_idx: int, now: float, recorder: TimeSeriesRecorder
    ) -> List[Tuple[ExecutionUnit, Request, float]]:
        """Evict movable work from one replica and price its transfers."""
        assert self._migration is not None
        replica = self.replicas[src_idx]
        evicted: List[Request] = []
        for unit in replica.units:
            evicted.extend(unit.evict_queued(now))
        if not evicted:
            return []
        self._invalidate(src_idx)
        moves: List[Tuple[int, int, int, int]] = []
        targets: List[Tuple[ExecutionUnit, Request]] = []
        for req in evicted:
            dst_idx, dst_unit = self._route_transfer(req, now)
            moves.append((req.request_id, req.context_length, src_idx, dst_idx))
            targets.append((dst_unit, req))
        plan = self._migration.plan(moves)
        self.num_migrated_requests += plan.num_requests
        self.migrated_bytes += plan.total_bytes
        self.migration_events.append((now, src_idx, plan.num_requests, plan.total_bytes))
        recorder.record("migrations", "cluster", now, float(plan.num_requests))
        recorder.record("migrated_bytes", "cluster", now, float(plan.total_bytes))
        return [
            (dst_unit, req, now + step.transfer_seconds)
            for step, (dst_unit, req) in zip(plan.steps, targets)
        ]

    def _route_transfer(self, request: Request, now: float) -> Tuple[int, ExecutionUnit]:
        """Pick the replica that receives one migrated request.

        Active replicas via the normal router; when none are active (e.g. the
        last replica just failed), any replica that is not down; as a final
        resort, the full fleet.  ``requests_per_replica`` is *not* bumped --
        the request was already counted when it originally routed.
        """
        candidates = [i for i, a in enumerate(self.active) if a]
        if not candidates:
            candidates = [
                i for i in range(len(self.replicas)) if not self._is_down(i, now)
            ]
        if not candidates:
            candidates = list(range(len(self.replicas)))
        pool = [self.replicas[i] for i in candidates]
        local = self.router.select(request, pool, now)
        if not 0 <= local < len(pool):
            raise ValueError(f"router {self.router.name} chose invalid replica {local}")
        idx = candidates[local]
        self._invalidate(idx)
        return idx, self.replicas[idx].route(request, now)

    def on_iteration(
        self,
        unit: ExecutionUnit,
        iteration: Iteration,
        outcome: IterationOutcome,
        now: float,
        recorder: TimeSeriesRecorder,
    ) -> List[Tuple[ExecutionUnit, Request, float]]:
        replica_idx, owner = self._owner_of[id(unit)]
        # A completed iteration frees/advances KV and drains queues: drop the
        # replica's cached load so same-timestamp routing sees the new state.
        self._invalidate(replica_idx)
        view = self._recorder_views[replica_idx]
        if view is None or view._inner is not recorder:
            view = PrefixedRecorderView(recorder, f"r{replica_idx}/")
            self._recorder_views[replica_idx] = view
        return owner.on_iteration(unit, iteration, outcome, now, view)

    def available_cache_bytes(self) -> float:
        return float(sum(self._capacities))

    def describe(self) -> str:
        inner = " || ".join(r.describe() for r in self.replicas)
        extras = []
        if self.autoscaler is not None:
            extras.append(f"autoscaler={self.autoscaler.name}@{self.autoscaler.interval:g}s")
        if self.admission is not None:
            extras.append(f"admission={self.admission.name}[{self.admission.mode}]")
        if self._migration is not None:
            extras.append(f"migration@{self._migration.bandwidth_gbps:g}Gbps")
        if self._failure_schedule:
            extras.append(
                f"failures={len(self._failure_schedule)}"
                f"(recovery {self.failure_recovery_time:g}s)"
            )
        suffix = f" ({', '.join(extras)})" if extras else ""
        return f"{self.name} via {self.router.name}{suffix}: {inner}"
