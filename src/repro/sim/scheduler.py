"""Continuous-batching admission policy shared by all execution units.

An execution unit keeps a FIFO waiting queue of requests needing prefill and a
set of running (decoding) requests.  At every iteration boundary the policy
decides which waiting requests to admit, subject to:

* a per-iteration prefill token budget (avoids head-of-line blocking of decode
  by huge prompts, mirroring vLLM's ``max_num_batched_tokens``),
* a maximum number of concurrently running requests, and
* a caller-supplied admission check (typically "does the KV cache have room"),

which is exactly the Orca/vLLM continuous-batching behaviour the paper builds
upon.

With ``prefill_chunk_tokens`` set, admission additionally follows the
Sarathi-style *chunked prefill* model: a prompt larger than the chunk size is
prefilled in several iterations, each processing at most that many new tokens
against the already-cached context.  The partially-prefilled request stays at
the head of the queue between chunks (no request can overtake it), and the
per-iteration token budget becomes a hard cap instead of the legacy
admit-the-first-big-prompt-whole behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from repro.sim.request import Request, RequestStatus
from repro.utils.validation import is_integer


@dataclass(frozen=True)
class SchedulerLimits:
    """Static limits of the continuous-batching policy.

    ``prefill_chunk_tokens`` enables chunked prefill: at most that many new
    prompt tokens of any single request enter one iteration, and the iteration
    budget is hard-enforced.  ``None`` (the default) preserves the legacy
    monolithic-prefill behaviour bit-for-bit.
    """

    max_running_requests: int = 256
    max_prefill_tokens_per_iteration: int = 8192
    max_prefills_per_iteration: int = 16
    prefill_chunk_tokens: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_running_requests", "max_prefill_tokens_per_iteration", "max_prefills_per_iteration"):
            value = getattr(self, name)
            if not is_integer(value) or value <= 0:
                raise ValueError(f"{name} must be an integer > 0, got {value!r}")
        chunk = self.prefill_chunk_tokens
        if chunk is not None and (not is_integer(chunk) or chunk <= 0):
            raise ValueError(f"prefill_chunk_tokens must be an integer > 0 (or None to disable chunking), got {chunk!r}")


@dataclass(frozen=True)
class PrefillChunk:
    """One iteration's slice of a request's prefill.

    ``new_tokens`` prompt tokens are processed this iteration against
    ``cached_tokens`` tokens already resident in the KV cache from earlier
    chunks.  Unchunked admission degenerates to a single chunk covering the
    whole prefill target (``cached_tokens == 0``).
    """

    request: Request
    new_tokens: int
    cached_tokens: int

    def __post_init__(self) -> None:
        if self.new_tokens <= 0:
            raise ValueError("new_tokens must be > 0")
        if self.cached_tokens < 0:
            raise ValueError("cached_tokens must be >= 0")

    @property
    def is_first(self) -> bool:
        """Whether this chunk starts the request's prefill (needs allocation)."""
        return self.cached_tokens == 0

    @property
    def completes_prefill(self) -> bool:
        """Whether the prefill target is fully covered after this chunk."""
        return self.cached_tokens + self.new_tokens >= self.request.prefill_target


class ContinuousBatchingPolicy:
    """Selects which waiting requests join the next iteration."""

    def __init__(self, limits: SchedulerLimits | None = None) -> None:
        self.limits = limits or SchedulerLimits()

    @property
    def chunking_enabled(self) -> bool:
        return self.limits.prefill_chunk_tokens is not None

    def select_prefills(
        self,
        waiting: Deque[Request],
        num_running: int,
        can_admit: Callable[[Request], bool],
    ) -> List[Request]:
        """Pop admissible requests off ``waiting`` (FIFO, no reordering).

        Admission stops at the first request that does not fit, preserving
        FIFO fairness; the caller is responsible for actually reserving cache
        space inside ``can_admit`` or immediately afterwards.

        This is the legacy monolithic-prefill path: a request's whole prefill
        runs in one iteration, and a prompt larger than the iteration budget is
        admitted whole (alone) rather than split -- the behaviour existing
        metric snapshots were taken under.  Chunk-aware callers should use
        :meth:`select_prefill_chunks`, which hard-enforces the budget.
        """
        admitted: List[Request] = []
        budget = self.limits.max_prefill_tokens_per_iteration
        slots = self.limits.max_running_requests - num_running
        while waiting and slots > 0 and len(admitted) < self.limits.max_prefills_per_iteration:
            candidate = waiting[0]
            needed = candidate.context_length
            if needed > budget and admitted:
                break  # keep the big prompt for its own iteration
            if not can_admit(candidate):
                break  # FIFO: do not skip ahead of a blocked request
            waiting.popleft()
            admitted.append(candidate)
            budget -= needed
            slots -= 1
            if budget <= 0:
                break
        return admitted

    def select_prefill_chunks(
        self,
        waiting: Deque[Request],
        num_running: int,
        can_admit: Callable[[Request], bool],
    ) -> List[PrefillChunk]:
        """Select the prefill work of the next iteration as chunks.

        With chunking disabled this is exactly :meth:`select_prefills` (every
        admitted request becomes one whole-prefill chunk).  With chunking
        enabled, at most ``prefill_chunk_tokens`` new tokens of any request and
        at most ``max_prefill_tokens_per_iteration`` new tokens in total are
        admitted; a request whose prefill is only partially covered stays at
        the head of ``waiting`` (FIFO: nothing overtakes it) and resumes next
        iteration.  Only a request's *first* chunk goes through ``can_admit``
        -- its KV cache for the full context is reserved then, so later chunks
        need no new capacity.
        """
        if not self.chunking_enabled:
            return [
                PrefillChunk(request=r, new_tokens=r.prefill_target, cached_tokens=0)
                for r in self.select_prefills(waiting, num_running, can_admit)
            ]
        chunks: List[PrefillChunk] = []
        budget = self.limits.max_prefill_tokens_per_iteration
        chunk_cap = self.limits.prefill_chunk_tokens
        slots = self.limits.max_running_requests - num_running
        while waiting and slots > 0 and len(chunks) < self.limits.max_prefills_per_iteration:
            candidate = waiting[0]
            resuming = candidate.status == RequestStatus.PREFILLING
            if not resuming and not can_admit(candidate):
                break  # FIFO: do not skip ahead of a blocked request
            take = min(candidate.remaining_prefill_tokens, budget, chunk_cap)
            if take <= 0:
                break
            chunk = PrefillChunk(
                request=candidate,
                new_tokens=take,
                cached_tokens=candidate.prefilled_tokens,
            )
            chunks.append(chunk)
            budget -= take
            if not chunk.completes_prefill:
                break  # partial chunk: the request stays at the queue head
            waiting.popleft()
            slots -= 1
            if budget <= 0:
                break
        return chunks
