"""The continuous-batching core shared by every execution unit.

An :class:`ExecutionUnit` is one independently clocked iteration loop of a
serving system.  :class:`ContinuousBatchingUnit` is the vLLM-style loop both
concrete units run (https://arxiv.org/abs/2309.06180): a FIFO waiting queue, an
admission-ordered running set, a decode-plan step that keeps every running
request appendable, prefill admission through
:class:`~repro.sim.scheduler.ContinuousBatchingPolicy`, and a commit step that
turns a finished iteration into tokens.  Subclasses supply the KV bookkeeping,
the preemption policy and the timing model through the hooks below.
"""

from __future__ import annotations

import abc
import math
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.models.spec import ModelSpec
from repro.sim.iteration import Handoff, Iteration, IterationOutcome
from repro.sim.recorder import TimeSeriesRecorder
from repro.sim.request import DecodeClock, Request, RequestStatus
from repro.sim.scheduler import ContinuousBatchingPolicy, PrefillChunk, SchedulerLimits

DECODING, PREFILLING = RequestStatus.DECODING, RequestStatus.PREFILLING
QUEUED, PREEMPTED = RequestStatus.QUEUED, RequestStatus.PREEMPTED

MAX_ROOM_ROUNDS = 64
"""Preemption-hook rounds before a request that still cannot append is preempted itself."""


def _discard(heap: List[Any], request: Request) -> None:
    """Remove ``request``'s entries from ``heap``, whose entries end with their request."""
    kept = [entry for entry in heap if entry[-1] is not request]
    if len(kept) < len(heap):
        heap[:] = kept
        heapify(heap)


class ExecutionUnit(abc.ABC):
    """One independently clocked iteration loop of a serving system."""

    def __init__(self, name: str) -> None:
        self.name = name
        # Failure injection: while ``now < paused_until`` the engine will not
        # start iterations on this unit (the replica is down); queued work
        # stays put and resumes after recovery.  0.0 = never paused.
        self.paused_until: float = 0.0
        # Preemptions this unit has made, of requests finished or not; the
        # engine books each run's share in its metrics.
        self.num_preemptions = 0

    # -- request ingress ---------------------------------------------------------

    @abc.abstractmethod
    def enqueue(self, request: Request, now: float) -> None:
        """Accept a fresh request that still needs its prefill."""

    def enqueue_prefilled(self, request: Request, now: float) -> None:
        """Accept a request whose prefill ran elsewhere (Splitwise hand-off)."""
        raise NotImplementedError(f"{self.name} does not accept prefilled requests")

    # -- request egress (drains / failures) ---------------------------------------

    @abc.abstractmethod
    def evict_queued(self, now: float) -> List[Request]:
        """Remove and return requests that can move to another unit.

        Only requests with no live KV on this unit -- freshly queued or
        preempted (recompute-on-preempt drops their cache) -- are movable;
        requests mid-prefill hold blocks and stay.
        """

    @abc.abstractmethod
    def preempt_running(self, now: float) -> List[Request]:
        """Preempt every in-flight request (failure injection).

        Preempted requests lose their KV cache and land back in the waiting
        queue with recompute-on-restart semantics; the returned list is what
        was preempted.
        """

    # -- iteration protocol --------------------------------------------------------

    @abc.abstractmethod
    def has_work(self) -> bool:
        """Whether the unit could make progress if stepped now."""

    @abc.abstractmethod
    def next_iteration(self, now: float) -> Optional[Iteration]:
        """Plan the next iteration (batch selection + timing), or ``None`` if idle."""

    @abc.abstractmethod
    def complete_iteration(self, iteration: Iteration, now: float) -> IterationOutcome:
        """Apply the effects of a finished iteration at time ``now``."""

    # -- introspection ---------------------------------------------------------------

    @abc.abstractmethod
    def kv_utilization(self) -> Dict[str, float]:
        """Per-device KV-cache utilization in [0, 1]."""

    @abc.abstractmethod
    def observe(self, now: float, recorder: TimeSeriesRecorder) -> None:
        """Write this unit's per-device series (Fig. 14) to ``recorder`` after an iteration."""

    @abc.abstractmethod
    def available_kv_bytes(self) -> float:
        """Total KV-cache bytes this unit can ever host (capacity, not free space)."""

    @property
    @abc.abstractmethod
    def num_waiting(self) -> int:
        ...

    @property
    @abc.abstractmethod
    def num_running(self) -> int:
        ...

    @property
    def load(self) -> int:
        """Routing heuristic: requests currently owned by this unit."""
        return self.num_waiting + self.num_running


class ContinuousBatchingUnit(ExecutionUnit):
    """Waiting queue, running set, and the plan/commit loops of one unit.

    ``running`` holds, in admission order, every request whose KV cache lives
    on the unit, mapped to its cached token count less its context length (0
    or -1, constant while it decodes; see :meth:`cached_tokens`).

    Decoding requests advance on the unit's decode epoch, ``clock.epoch``: the
    number of iterations it has committed.  Each committed iteration adds a
    token to every decoding request without touching it.  Only three kinds of
    token need work: one that starts a KV block (the KV stores need room, and
    a block), a request's last token (it finishes) and a hand-off's first
    token (it stamps TTFT).  Every decoding request has one *due event* on
    ``_events``, a heap of ``(epoch, admission position, request)``: the epoch
    of its next such token.  Plan and commit visit only the events due this
    iteration, in admission order, so every decision is the one a walk over
    every request on every token would make.  The commit moves
    ``clock.cursor`` along as it goes, so a request it has passed already
    counts the iteration's token and every count stays exact mid-commit.  A
    re-dispatch re-allocates a request's cache at its full context, which
    moves its next block start, possibly onto this iteration (:meth:`_recache`).

    The iteration cost needs the decode batch's context sum.  A decoding
    request's ``context_length`` less the epoch (``decode_base``) never
    changes, so ``_decode_sums`` keeps Σ ``decode_base`` and the count of
    decoding requests, touched only when a request joins or leaves decode
    (:meth:`_regroup`); :meth:`_decode_context` adds the epoch back.
    """

    hands_off = False
    """Whether completed prefills leave the unit (a Splitwise prefill unit)."""

    def __init__(self, name: str, model: ModelSpec, limits: Optional[SchedulerLimits], block_size: int) -> None:
        super().__init__(name)
        self.model = model
        self.policy = ContinuousBatchingPolicy(limits)
        self.block_size = block_size
        self.waiting: Deque[Request] = deque()
        self.running: Dict[Request, int] = {}
        self.dropped: List[Request] = []
        self.clock = DecodeClock()
        self._events: List[Tuple[int, int, Request]] = []
        # This iteration's due events, ``(position, request)``, as a heap: the
        # plan collects them, the commit pops them.
        self._due: List[Tuple[int, Request]] = []
        # Position through which this iteration's events have left ``_events``
        # (None between iterations), and the request whose event is in hand.
        self._taken: Optional[float] = None
        self._current: Optional[Request] = None
        self._admissions = 0
        self._decode_sums = [0, 0]  # Σ decode_base and count of the decoding requests
        # Observation (see observe): the recorder last written to, the value
        # written there per (series, key), and whether a KV hook moved the
        # KV state since.
        self._observed: Optional[TimeSeriesRecorder] = None
        self._written: Dict[Tuple[str, str], float] = {}
        self._dirty = False

    # -- hooks ---------------------------------------------------------------------------

    @abc.abstractmethod
    def _admit(self, decode_requests: List[Request]) -> List[PrefillChunk]:
        """Select this iteration's prefill chunks and allocate their KV.

        A first chunk allocates its request's full context and starts its
        prefill.  A request admitted straight into decoding (a hand-off) joins
        (:meth:`_join`) and is appended to ``decode_requests`` here.
        """

    @abc.abstractmethod
    def _fits(self, request: Request) -> bool:
        """Whether ``request``'s whole context fits the free KV cache right now."""

    @abc.abstractmethod
    def _exhausted(self, request: Request) -> Any:
        """The KV store with no room for ``request``'s next token, or ``None``."""

    @abc.abstractmethod
    def _make_room(self, request: Request, exhausted: Any) -> bool:
        """Preemption hook: free room on ``exhausted`` for ``request``'s next token.

        Returns False when nothing but ``request`` itself is left to preempt.
        """

    @abc.abstractmethod
    def _append(self, request: Request) -> None:
        """Cache ``request``'s next token, which starts a KV block (:meth:`cached_tokens` excludes it)."""

    @abc.abstractmethod
    def _release(self, request: Request) -> None:
        """Free ``request``'s KV cache and per-request state (finish, hand-off or preemption)."""

    @abc.abstractmethod
    def _iteration_time(
        self, chunks: List[PrefillChunk], decode_requests: List[Request]
    ) -> Tuple[float, Dict[str, float]]:
        """Duration and module-latency metrics of an iteration running ``chunks`` and ``decode_requests``."""

    def _on_iteration_complete(self) -> None:
        """Runs after every completed iteration's effects are applied."""

    # -- observation ------------------------------------------------------------------------

    def observed_series(self) -> Dict[str, Dict[str, float]]:
        """This unit's per-device series (Fig. 14) now: series name -> key -> value."""
        return {"cache_usage": self.kv_utilization()}

    def observe(self, now: float, recorder: TimeSeriesRecorder) -> None:
        """Write the samples whose value moved since the last one written to ``recorder``.

        The series are read only after a KV hook set ``_dirty``.  The first
        call against a recorder writes every key.  Dropping a sample equal to
        its key's previous one leaves the recorder's last and max values and
        its resampled series unchanged.
        """
        if recorder is not self._observed:
            self._observed, self._written = recorder, {}
        elif not self._dirty:
            return
        self._dirty = False
        written = self._written
        for series, values in self.observed_series().items():
            for key, value in values.items():
                if written.get((series, key)) != value:
                    written[series, key] = value
                    recorder.record(series, key, now, value)

    # -- ingress and state ------------------------------------------------------------------

    def enqueue(self, request: Request, now: float) -> None:
        self.waiting.append(request)

    def has_work(self) -> bool:
        return bool(self.running or self.waiting)

    @property
    def num_waiting(self) -> int:
        return len(self.waiting)

    @property
    def num_running(self) -> int:
        return len(self.running)

    def cached_tokens(self, request: Request) -> int:
        """Tokens of running ``request``'s context that its KV cache on this unit holds."""
        return request.context_length + self.running[request]

    def _decode_context(self) -> int:
        """Σ ``context_length`` of the decoding requests, read outside a commit."""
        base, count = self._decode_sums
        return base + count * self.clock.epoch

    # -- egress (drains / failures) ----------------------------------------------------------

    def evict_queued(self, now: float) -> List[Request]:
        movable = [r for r in self.waiting if r.status in (QUEUED, PREEMPTED)]
        for req in movable:
            self.waiting.remove(req)
        return movable

    def preempt_running(self, now: float) -> List[Request]:
        # Partially-prefilled requests sit in the waiting queue but hold KV
        # blocks for their full prefill target; a failure drops those too.
        # They go first, so the running victims queue up ahead of them.
        victims = [r for r in self.waiting if r.status is PREFILLING]
        victims += [r for r in self.running if not r.is_finished]
        for req in victims:
            self._preempt(req)
        return victims

    # -- decode membership ---------------------------------------------------------------------

    def _join(self, request: Request, cached: int) -> None:
        """Start decoding running ``request``, whose KV cache holds ``cached`` tokens."""
        request.join_decode(self.clock, self._admissions)
        self._admissions += 1
        self.running[request] = cached - request.context_length
        self._regroup(request, 1)
        self._schedule(request)

    def _regroup(self, request: Request, sign: int) -> None:
        """Add (``sign`` 1) or remove (-1) decoding ``request`` in the decode sums."""
        if request.decode_clock is not self.clock:
            return
        sums = self._decode_sums
        sums[0] += sign * request.decode_base
        sums[1] += sign

    def _schedule(self, request: Request) -> None:
        """Queue decoding ``request``'s next due event where the loop that must visit it looks."""
        clock = self.clock
        # The epoch whose iteration makes the next token: this one, unless the
        # commit has already given the request this iteration's token.
        epoch = clock.epoch + (request.decode_position < clock.cursor)
        if request.prefill_completion_time is not None:
            ahead = min(-self.cached_tokens(request) % self.block_size,
                        request.output_tokens - request.generated_tokens - 1)
            epoch += ahead
        position = request.decode_position
        if epoch == clock.epoch and self._taken is not None and position < self._taken:
            heappush(self._due, (position, request))
        else:
            heappush(self._events, (epoch, position, request))

    def _recache(self, request: Request) -> None:
        """``request``'s KV was re-allocated with its whole context cached (a re-dispatch).

        That moves its next block boundary, possibly onto this iteration's token.
        """
        if request not in self.running:
            return
        self.running[request] = 0
        if request.decode_clock is not self.clock or request is self._current:
            return  # not decoding yet, or the loop visiting it reschedules it
        _discard(self._events, request)
        _discard(self._due, request)
        self._schedule(request)

    # -- preemption -----------------------------------------------------------------------------

    def _room_for_new_block(self, request: Request) -> bool:
        """Make room for the block running ``request``'s next token starts, preempting if needed.

        Called only when the cached count is a multiple of ``block_size``.
        Returns False when ``request`` itself had to be preempted.
        """
        for _ in range(MAX_ROOM_ROUNDS):
            exhausted = self._exhausted(request)
            if exhausted is None:
                return True
            if not self._make_room(request, exhausted):
                break
            if request not in self.running:
                return False
        self._preempt(request)
        return False

    def _preempt(self, victim: Request) -> None:
        """Drop ``victim``'s cache and queue it for a fresh prefill (recompute-on-preempt)."""
        self._regroup(victim, -1)
        self._release(victim)
        victim.preempt()
        self.num_preemptions += 1
        if self.running.pop(victim, None) is None and victim in self.waiting:
            return  # a partially-prefilled victim keeps its place at the queue head
        # Ahead of fresh work, but behind an in-flight partial prefill: that
        # one holds blocks, and the head of the queue must be able to use them.
        head_holds_blocks = bool(self.waiting) and self.waiting[0].status is PREFILLING
        self.waiting.insert(1 if head_holds_blocks else 0, victim)

    def _retire(self, request: Request) -> None:
        self._regroup(request, -1)
        self._release(request)
        del self.running[request]

    # -- iteration protocol -------------------------------------------------------------------------

    def next_iteration(self, now: float) -> Optional[Iteration]:
        running, clock, events, block_size = self.running, self.clock, self._events, self.block_size
        epoch = clock.epoch
        due = self._due = []
        while events and events[0][0] == epoch:
            _, position, req = heappop(events)
            if req.decode_clock is not clock or req.decode_position != position:
                continue  # left the unit after the event was queued
            self._taken, self._current = position, req
            if self.cached_tokens(req) % block_size or self._room_for_new_block(req):
                due.append((position, req))
        self._taken, self._current = math.inf, None
        # Room made for one request may have preempted others: the rest decode.
        decode_requests = list(running)
        chunks = self._admit(decode_requests)
        if not chunks and not decode_requests:
            self._taken = None
            waiting = self.waiting
            if waiting and not running and waiting[0].prefilled_tokens == 0 and not self._fits(waiting[0]):
                # Nothing runs and no partial prefill holds blocks, so a head
                # that does not fit now never will: shed it instead of deadlocking.
                self.dropped.append(waiting.popleft())
            return None

        prefill_requests: List[Request] = []
        partial_prefills: List[PrefillChunk] = []
        for chunk in chunks:
            if chunk.completes_prefill:
                running[chunk.request] = 0  # the whole context is cached
                prefill_requests.append(chunk.request)
            else:
                partial_prefills.append(chunk)
        duration, module_times = self._iteration_time(chunks, decode_requests)
        return Iteration(
            duration=duration,
            prefill_requests=prefill_requests,
            decode_requests=decode_requests,
            partial_prefills=partial_prefills,
            module_times=module_times,
        )

    def complete_iteration(self, iteration: Iteration, now: float) -> IterationOutcome:
        outcome = IterationOutcome()
        running, clock, due, block_size = self.running, self.clock, self._due, self.block_size
        while due:
            position, req = heappop(due)
            if req.decode_clock is not clock or req.decode_position != position:
                continue  # preempted since planning
            self._current = req
            clock.cursor = position
            # Appends committed earlier in this loop may have taken the last
            # free blocks, so a token that starts a block needs room again.
            if self.cached_tokens(req) % block_size == 0:
                if not self._room_for_new_block(req):
                    continue
                self._append(req)
            if req.prefill_completion_time is None:
                # Disaggregated hand-off: the first token only exists once the
                # migrated cache lands on the decode workers, so the migration
                # delay is part of TTFT (Splitwise's prefill-latency penalty).
                req.first_token(now)
            clock.cursor = position + 1
            if req.generated_tokens >= req.output_tokens:
                self._retire(req)
                req.finish(now)
                outcome.finished.append(req)
            else:
                self._schedule(req)
        # Every decoding request now holds this iteration's token.
        clock.epoch += 1
        clock.cursor = 0
        self._taken = self._current = None
        for chunk in iteration.partial_prefills:
            # A non-final chunk only advances prefill progress; a request
            # preempted mid-iteration restarted from scratch, voiding it.
            if chunk.request.status is PREFILLING:
                chunk.request.advance_prefill(chunk.new_tokens)
        for req in iteration.prefill_requests:
            if req not in running:
                continue
            if self.hands_off:
                self._retire(req)
                req.begin_migration()
                outcome.handoffs.append(Handoff(req, req.context_length * self.model.kv_bytes_per_token()))
                continue
            cached = self.cached_tokens(req)
            req.complete_prefill(now)
            if req.is_finished:
                self._retire(req)
                outcome.finished.append(req)
            else:
                self._join(req, cached)
        self._on_iteration_complete()
        return outcome
