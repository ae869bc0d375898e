"""The discrete-event engine and the serving-system abstraction.

A :class:`ServingSystem` is a named collection of execution units plus the
routing and hand-off logic between them (data-parallel routing, Splitwise's
prefill -> decode migration, Hetis' dispatcher hooks).  The :class:`Engine`
replays a workload trace against a system: it maintains a global event queue
of request arrivals, iteration completions, and deferred hand-offs, and
collects metrics and time-series traces as the simulation advances.
"""

from __future__ import annotations

import abc
import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.sim.iteration import Iteration, IterationOutcome
from repro.sim.metrics import MetricsCollector, SLOSpec, SummaryStats
from repro.sim.recorder import TimeSeriesRecorder
from repro.sim.request import Request
from repro.sim.units import ExecutionUnit
from repro.workloads.trace import StreamingTrace, Trace, TraceEntry


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of a system's admission check for one arrival.

    ``action`` is one of ``"admit"``, ``"reject"``, or ``"defer"``; a deferred
    arrival is re-presented to the system ``retry_delay`` seconds later as a
    fresh arrival event (same request object, so the system can bound retries).
    """

    action: str = "admit"
    retry_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ("admit", "reject", "defer"):
            raise ValueError(f"invalid admission action {self.action!r}")
        if self.action == "defer" and self.retry_delay <= 0:
            raise ValueError("defer requires retry_delay > 0")


ADMIT = AdmissionDecision("admit")


class ServingSystem(abc.ABC):
    """A complete serving deployment: units plus routing/hand-off policy."""

    name: str = "system"

    @property
    @abc.abstractmethod
    def units(self) -> List[ExecutionUnit]:
        """All execution units of the system, each clocked independently."""

    @abc.abstractmethod
    def route(self, request: Request, now: float) -> ExecutionUnit:
        """Choose the unit that accepts a fresh arrival."""

    def admit(self, request: Request, now: float) -> AdmissionDecision:
        """Admission check run before :meth:`route` sees an arrival.

        The default admits everything, which keeps legacy systems (and any
        system without an admission controller) on the exact pre-admission
        event path.
        """
        return ADMIT

    def control_interval(self) -> Optional[float]:
        """Period (seconds) of the engine's control-plane tick, or ``None``.

        Systems with time-based control policies (replica autoscalers) return
        the decision interval here; the engine then calls
        :meth:`on_control_tick` on that grid while the run is live.  ``None``
        (the default) schedules no control events at all.
        """
        return None

    def on_run_start(self, recorder: TimeSeriesRecorder) -> None:
        """Hook invoked once at t=0, before the first event is processed.

        Systems with recorded control state (e.g. the replica activation
        series) use this to capture the initial fleet state so short runs do
        not plot an empty/late series.  Default: nothing to record.
        """

    def on_control_tick(
        self, now: float, recorder: TimeSeriesRecorder
    ) -> Optional[List[Tuple[ExecutionUnit, Request, float]]]:
        """Control-plane hook invoked every :meth:`control_interval` seconds.

        May return deferred enqueues as ``(target_unit, request, ready_time)``
        triples -- this is how drain/failure-driven KV migration expresses its
        transfer latency: the request rematerializes on the target unit once
        its cache lands.  An empty list schedules nothing but still triggers a
        unit restart sweep (failure recovery un-pauses stalled queues);
        ``None`` (the default) does neither.
        """
        return None

    def on_iteration(
        self,
        unit: ExecutionUnit,
        iteration: Iteration,
        outcome: IterationOutcome,
        now: float,
        recorder: TimeSeriesRecorder,
    ) -> List[Tuple[ExecutionUnit, Request, float]]:
        """Hook called after each iteration completes.

        Returns deferred enqueues as ``(target_unit, request, ready_time)``
        triples -- this is how Splitwise expresses its KV-cache migration
        latency.  The default keeps everything local and lets the unit write
        its per-device series (:meth:`ExecutionUnit.observe`), which is the
        one per-iteration observation path: a unit writes a sample only when
        its value moved, so an iteration that changed no KV state costs one
        call and a compare.
        """
        unit.observe(now, recorder)
        return []

    def available_cache_bytes(self) -> float:
        """Total KV-cache capacity of the deployment (Fig. 11 metric)."""
        return float(sum(u.available_kv_bytes() for u in self.units))

    def describe(self) -> str:
        """Human-readable configuration summary for logs and reports."""
        return f"{self.name}: " + "; ".join(u.name for u in self.units)


@dataclass
class SimulationResult:
    """Everything an experiment needs from one simulation run."""

    system_name: str
    summary: SummaryStats
    metrics: MetricsCollector
    recorder: TimeSeriesRecorder
    available_cache_bytes: float
    num_dropped: int = 0
    wall_clock_events: int = 0
    # A run that hits an engine safety limit is *partial*: whatever finished
    # before the cutoff is reported, but callers must be able to tell.
    truncated: bool = False
    truncation_reason: Optional[str] = None
    # Requests a unit still held after a drained, non-truncated run: they will
    # never finish, and nothing else counts them.
    stranded: int = 0

    @property
    def normalized_latency(self) -> float:
        return self.summary.mean_normalized_latency

    @property
    def p95_ttft(self) -> float:
        return self.summary.p95_ttft

    @property
    def p95_tpot(self) -> float:
        return self.summary.p95_tpot


# Event kinds, ordered so ties at identical timestamps resolve deterministically:
# hand-offs land before arrivals, arrivals before iteration completions, and
# control-plane ticks observe the fully settled state of their timestamp.
_KIND_ENQUEUE = 0
_KIND_ARRIVAL = 1
_KIND_UNIT_DONE = 2
_KIND_CONTROL = 3


class Engine:
    """Replays a trace against a serving system.

    Parameters
    ----------
    system:
        The deployment under test.
    max_simulated_time:
        Safety limit (seconds of simulated time) after which the run stops and
        whatever finished so far is reported.
    max_events:
        Hard cap on processed events to guarantee termination even for
        pathological configurations.
    slo:
        TTFT/TPOT objectives the SLO-attainment/goodput metrics are scored
        against; ``None`` keeps the loose interactive-chat defaults.
    collector:
        Pre-built :class:`MetricsCollector` (e.g. a ``bounded_memory`` one);
        ``None`` builds the default exact collector from ``slo``.
    recorder:
        Pre-built :class:`TimeSeriesRecorder` (e.g. with a
        ``max_samples_per_key`` cap); ``None`` builds an unbounded one.
    """

    def __init__(
        self,
        system: ServingSystem,
        max_simulated_time: float = 24 * 3600.0,
        max_events: int = 2_000_000,
        slo: Optional[SLOSpec] = None,
        collector: Optional[MetricsCollector] = None,
        recorder: Optional[TimeSeriesRecorder] = None,
    ) -> None:
        self.system = system
        self.max_simulated_time = max_simulated_time
        self.max_events = max_events
        self.metrics = collector if collector is not None else MetricsCollector(slo=slo)
        self.recorder = recorder if recorder is not None else TimeSeriesRecorder()

    def run(
        self, trace: Union[Trace, StreamingTrace, Iterable[TraceEntry]]
    ) -> SimulationResult:
        """Simulate the full trace and return aggregated results.

        ``trace`` may be any iterable of :class:`TraceEntry` sorted by arrival
        time -- a materialized :class:`Trace` or a lazy
        :class:`StreamingTrace`.  Arrivals are pulled from it incrementally
        (only when the event heap's frontier reaches them), so a streaming
        trace replays in O(in-flight) memory regardless of its length.
        """
        # Event tie-breaker: a plain monotonically increasing int.  Only the
        # relative order of the values matters for heap ties, and incrementing
        # a local is measurably cheaper than next(itertools.count()) on this
        # hot path (one bump per pushed event).
        seq = 0
        events: List[Tuple[float, int, int, object]] = []
        heappush, heappop = heapq.heappush, heapq.heappop
        # Lazy arrival feeding: instead of pre-pushing all N trace arrivals
        # (O(N) heap residency before the first event pops), hold one
        # lookahead entry and push arrivals only once the heap frontier
        # reaches them.  The invariant kept by the feed step below -- every
        # trace arrival with timestamp <= the heap top is in the heap before
        # a pop -- makes the pop order identical to the pre-push version,
        # while the heap holds only in-flight work plus one pending arrival.
        entries_iter = iter(trace)
        next_entry: Optional[TraceEntry] = next(entries_iter, None)
        next_request_id = 0

        # A system's unit set is fixed for the lifetime of a run, so snapshot
        # it once: several ``units`` properties build a fresh list per access,
        # which used to happen once per processed event.  Per-unit engine state
        # lives in flat arrays indexed by position instead of name-keyed dicts.
        units: List[ExecutionUnit] = list(self.system.units)
        unit_index: Dict[int, int] = {id(u): i for i, u in enumerate(units)}
        n_units = len(units)
        busy: List[bool] = [False] * n_units
        in_flight: List[Optional[Iteration]] = [None] * n_units
        processed = 0
        now = 0.0

        def maybe_start(unit: ExecutionUnit, at: float) -> None:
            nonlocal seq
            i = unit_index[id(unit)]
            if busy[i] or unit.paused_until > at or not unit.has_work():
                return
            iteration = unit.next_iteration(at)
            if iteration is None:
                return
            busy[i] = True
            in_flight[i] = iteration
            seq += 1
            heappush(events, (at + iteration.duration, _KIND_UNIT_DONE, seq, unit))

        # Completions can free capacity other units were waiting on, so each
        # completion schedules a restart sweep over the idle units.  The sweep
        # is deferred until every event of the current timestamp has been
        # handled: one sweep drains a whole tick, instead of one sweep per
        # same-timestamp completion.
        sweep_pending = False

        # Control-plane clock: systems that autoscale (or run any other
        # periodic policy) get a tick every ``control_interval`` seconds.  The
        # tick re-arms itself only while other events remain, so an idle run
        # still terminates.
        control_interval = self.system.control_interval()
        if control_interval is not None and control_interval > 0 and next_entry is not None:
            seq += 1
            heappush(events, (control_interval, _KIND_CONTROL, seq, None))

        self.system.on_run_start(self.recorder)
        # Units count preemptions as they make them; the run books its share.
        preempted_before = sum(u.num_preemptions for u in units)

        # Requests with a defer-retry arrival event currently in the heap,
        # keyed by request id.  If the run is truncated while a retry is still
        # pending, that request would otherwise vanish from the books entirely
        # (neither finished, rejected, nor visibly truncated) and skew the
        # rejection-rate denominator.
        deferred_pending: Dict[int, Request] = {}

        truncated = False
        truncation_reason: Optional[str] = None
        while True:
            # Feed step: push every trace arrival due at or before the heap
            # top.  With an empty heap the first push establishes the top to
            # compare against, and equal-time arrivals chain through the <=
            # check in trace order (seq preserves their relative order).
            while next_entry is not None and (
                not events or next_entry.arrival_time <= events[0][0]
            ):
                request = Request(
                    request_id=next_request_id,
                    arrival_time=next_entry.arrival_time,
                    prompt_tokens=next_entry.prompt_tokens,
                    output_tokens=next_entry.output_tokens,
                )
                next_request_id += 1
                seq += 1
                heappush(events, (next_entry.arrival_time, _KIND_ARRIVAL, seq, request))
                next_entry = next(entries_iter, None)
            if not events:
                break
            # Both cutoffs leave the offending event *unprocessed* and count
            # only fully handled events in ``processed``; historically the
            # max_simulated_time break counted its popped-but-dropped event
            # while the max_events break did not.
            if processed >= self.max_events:
                truncated = True
                truncation_reason = "max_events"
                break
            time, kind, _, payload = heappop(events)
            now = time
            if now > self.max_simulated_time:
                truncated = True
                truncation_reason = "max_simulated_time"
                break
            processed += 1

            if kind == _KIND_ARRIVAL:
                request = payload  # type: ignore[assignment]
                deferred_pending.pop(request.request_id, None)
                decision = self.system.admit(request, now)
                if decision.action == "reject":
                    self.metrics.observe_rejection(request, now)
                elif decision.action == "defer":
                    self.metrics.observe_deferral(request, now)
                    deferred_pending[request.request_id] = request
                    seq += 1
                    heappush(
                        events,
                        (now + decision.retry_delay, _KIND_ARRIVAL, seq, request),
                    )
                else:
                    self.metrics.observe_arrival(now)
                    unit = self.system.route(request, now)
                    unit.enqueue(request, now)
                    maybe_start(unit, now)

            elif kind == _KIND_ENQUEUE:
                unit, request = payload  # type: ignore[misc]
                status = request.status.value
                if status in ("queued", "preempted"):
                    # Drain/failure migration: the request's KV (if any) was
                    # dropped at the source, so it re-enters the target's
                    # prefill queue rather than the decode path.
                    unit.enqueue(request, now)
                else:
                    if status == "migrating":
                        request.end_migration()
                    unit.enqueue_prefilled(request, now)
                maybe_start(unit, now)

            elif kind == _KIND_UNIT_DONE:
                unit = payload  # type: ignore[assignment]
                i = unit_index[id(unit)]
                iteration = in_flight[i]
                in_flight[i] = None
                busy[i] = False
                outcome = unit.complete_iteration(iteration, now)
                if iteration.has_decode and not iteration.has_prefill:
                    self.metrics.observe_module_times(iteration.module_times)
                for req in outcome.finished:
                    self.metrics.observe_finish(req)
                deferred = self.system.on_iteration(unit, iteration, outcome, now, self.recorder)
                for target, req, ready_time in deferred:
                    seq += 1
                    heappush(
                        events, (max(ready_time, now), _KIND_ENQUEUE, seq, (target, req))
                    )
                maybe_start(unit, now)
                sweep_pending = True

            elif kind == _KIND_CONTROL:
                transfers = self.system.on_control_tick(now, self.recorder)
                if transfers is not None:
                    # Drain/failure migration: each evicted request lands on
                    # its target unit once the (low-priority, overlapped) KV
                    # transfer completes.  An *empty* list still requests a
                    # restart sweep -- that is how a replica recovering from a
                    # failure gets its stalled queue moving again.
                    for target, req, ready_time in transfers:
                        seq += 1
                        heappush(
                            events,
                            (max(ready_time, now), _KIND_ENQUEUE, seq, (target, req)),
                        )
                    sweep_pending = True
                # Re-arm while anything can still make progress.  The unit
                # scan matters for failure runs: a paused replica's queued
                # work generates no events of its own, and without the tick
                # clock its recovery would never be observed.
                if (
                    events
                    or next_entry is not None
                    or any(u.has_work() for u in units)
                ):
                    seq += 1
                    heappush(
                        events, (now + control_interval, _KIND_CONTROL, seq, None)
                    )

            if sweep_pending and (not events or events[0][0] > now):
                sweep_pending = False
                for j, other in enumerate(units):
                    if not busy[j] and other.has_work():
                        maybe_start(other, now)

        if truncated and deferred_pending:
            # Retry arrivals still in the heap when the run was cut off (plus,
            # for the max_simulated_time cutoff, the popped-but-unprocessed
            # event itself) would otherwise vanish uncounted.  Each one is a
            # request the deployment was offered and never served, so it is
            # booked as a rejection -- keeping rejection_rate's denominator
            # equal to the offered load.
            leftovers = list(events)
            if truncation_reason == "max_simulated_time":
                leftovers.append((time, kind, 0, payload))
            for _, ev_kind, _, ev_payload in leftovers:
                if ev_kind != _KIND_ARRIVAL or not isinstance(ev_payload, Request):
                    continue
                if deferred_pending.pop(ev_payload.request_id, None) is not None:
                    self.metrics.observe_dropped_retry(ev_payload, now)

        # The engine's unit set is fixed for the lifetime of a run (the
        # snapshot above is the complete set that ever executed work), so the
        # drop count comes from the snapshot -- re-reading ``system.units``
        # here would rebuild the per-access lists one more time for nothing.
        num_dropped = sum(len(getattr(u, "dropped", [])) for u in units)
        stranded = 0 if truncated else sum(u.load for u in units)
        self.metrics.observe_preemptions(sum(u.num_preemptions for u in units) - preempted_before)
        return SimulationResult(
            system_name=self.system.name,
            summary=self.metrics.summary(),
            metrics=self.metrics,
            recorder=self.recorder,
            available_cache_bytes=self.system.available_cache_bytes(),
            num_dropped=num_dropped,
            wall_clock_events=processed,
            truncated=truncated,
            truncation_reason=truncation_reason,
            stranded=stranded,
        )
