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
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.models.flops import BatchProfile
from repro.models.spec import ModelSpec
from repro.sim.iteration import Handoff, Iteration, IterationOutcome
from repro.sim.request import Request, RequestStatus
from repro.sim.scheduler import ContinuousBatchingPolicy, PrefillChunk, SchedulerLimits

DECODING, PREFILLING = RequestStatus.DECODING, RequestStatus.PREFILLING

MAX_ROOM_ROUNDS = 64
"""Preemption-hook rounds before a request that still cannot append is preempted itself."""


class ExecutionUnit(abc.ABC):
    """One independently clocked iteration loop of a serving system."""

    def __init__(self, name: str) -> None:
        self.name = name
        # Failure injection: while ``now < paused_until`` the engine will not
        # start iterations on this unit (the replica is down); queued work
        # stays put and resumes after recovery.  0.0 = never paused.
        self.paused_until: float = 0.0

    # -- request ingress ---------------------------------------------------------

    @abc.abstractmethod
    def enqueue(self, request: Request, now: float) -> None:
        """Accept a fresh request that still needs its prefill."""

    def enqueue_prefilled(self, request: Request, now: float) -> None:
        """Accept a request whose prefill ran elsewhere (Splitwise hand-off)."""
        raise NotImplementedError(f"{self.name} does not accept prefilled requests")

    # -- request egress (drains / failures) ---------------------------------------

    def evict_queued(self, now: float) -> List[Request]:
        """Remove and return requests that can move to another unit.

        Only requests with no live KV on this unit -- freshly queued or
        preempted (recompute-on-preempt drops their cache) -- are movable;
        requests mid-prefill hold blocks and stay.  The base implementation
        moves nothing, so units without an eviction story (e.g. Hetis
        instance units with head-sliced placements) simply keep their work.
        """
        return []

    def preempt_running(self, now: float) -> List[Request]:
        """Preempt every in-flight request (failure injection).

        Preempted requests lose their KV cache and land back in the waiting
        queue with recompute-on-restart semantics; the returned list is what
        was preempted.  Base implementation: nothing to preempt.
        """
        return []

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

    ``running`` maps each running request, in admission order, to the number
    of tokens its KV cache holds.  A cache grows by a block only when that
    count is a multiple of ``block_size``; every other token lands in the
    request's last, partly filled block.  So the plan and commit loops ask the
    KV stores for room only at those boundaries, which keeps every decision
    identical to asking on every token.
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

    # -- hooks ---------------------------------------------------------------------------

    @abc.abstractmethod
    def _admit(self, decode_requests: List[Request]) -> List[PrefillChunk]:
        """Select this iteration's prefill chunks and allocate their KV.

        A first chunk allocates its request's full context and starts its
        prefill.  A request admitted straight into decoding (a hand-off) joins
        ``running`` and ``decode_requests`` here.
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
        """Cache one more token of ``request`` (``running[request]`` still counts the old total)."""

    @abc.abstractmethod
    def _release(self, request: Request) -> None:
        """Free ``request``'s KV cache and per-request state (finish, hand-off or preemption)."""

    @abc.abstractmethod
    def _iteration_time(
        self, batch: BatchProfile, decode_requests: List[Request]
    ) -> Tuple[float, Dict[str, float]]:
        """Duration and module-latency metrics of a planned iteration."""

    def _on_iteration_complete(self) -> None:
        """Runs after every completed iteration's effects are applied."""

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
        self._release(victim)
        victim.preempt()
        if self.running.pop(victim, None) is None and victim in self.waiting:
            return  # a partially-prefilled victim keeps its place at the queue head
        # Ahead of fresh work, but behind an in-flight partial prefill: that
        # one holds blocks, and the head of the queue must be able to use them.
        head_holds_blocks = bool(self.waiting) and self.waiting[0].status is PREFILLING
        self.waiting.insert(1 if head_holds_blocks else 0, victim)

    def _retire(self, request: Request) -> None:
        self._release(request)
        del self.running[request]

    # -- iteration protocol -------------------------------------------------------------------------

    def next_iteration(self, now: float) -> Optional[Iteration]:
        running, block_size = self.running, self.block_size
        decode_requests: List[Request] = []
        for req in list(running):
            if req.status is DECODING and (running[req] % block_size or self._room_for_new_block(req)):
                decode_requests.append(req)
        # Room made for a later request may have preempted an earlier one.
        decode_requests = [r for r in decode_requests if r in running]
        chunks = self._admit(decode_requests)
        if not chunks and not decode_requests:
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
                running[chunk.request] = chunk.request.context_length
                prefill_requests.append(chunk.request)
            else:
                partial_prefills.append(chunk)
        batch = BatchProfile(
            prefill_lengths=[c.new_tokens for c in chunks],
            decode_contexts=[r.context_length for r in decode_requests],
            prefill_cached=[c.cached_tokens for c in chunks] if any(c.cached_tokens for c in chunks) else (),
        )
        duration, module_times = self._iteration_time(batch, decode_requests)
        return Iteration(
            duration=duration,
            prefill_requests=prefill_requests,
            decode_requests=decode_requests,
            partial_prefills=partial_prefills,
            module_times=module_times,
        )

    def complete_iteration(self, iteration: Iteration, now: float) -> IterationOutcome:
        outcome = IterationOutcome()
        running, block_size = self.running, self.block_size
        for req in iteration.decode_requests:
            if req not in running or req.status is not DECODING:
                continue
            # Appends committed earlier in this loop may have taken the last
            # free blocks, so a token that starts a block needs room again.
            if running[req] % block_size == 0 and not self._room_for_new_block(req):
                continue
            self._append(req)
            running[req] += 1
            if req.prefill_completion_time is None:
                # Disaggregated hand-off: the first token only exists once the
                # migrated cache lands on the decode workers, so the migration
                # delay is part of TTFT (Splitwise's prefill-latency penalty).
                req.status = PREFILLING
                req.complete_prefill(now)
            else:
                req.add_decode_token(now)
            if req.is_finished:
                self._retire(req)
                outcome.finished.append(req)
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
            req.complete_prefill(now)
            if req.is_finished:
                self._retire(req)
                outcome.finished.append(req)
        self._on_iteration_complete()
        return outcome
