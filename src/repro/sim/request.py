"""The request object tracked through the serving simulation."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class DecodeClock:
    """The decode epoch of one execution unit: how many iterations it has committed.

    While a commit walks its due events, ``cursor`` is the admission position
    it has reached: requests admitted before it already hold the iteration's
    token.  Outside that walk ``cursor`` is 0, and no request is ahead of it.
    """

    __slots__ = ("epoch", "cursor")

    def __init__(self) -> None:
        self.epoch = 0
        self.cursor = 0


class RequestStatus(str, enum.Enum):
    """Lifecycle states of a request inside a serving system."""

    QUEUED = "queued"          # waiting for prefill admission
    PREFILLING = "prefilling"  # prefill iteration in flight
    MIGRATING = "migrating"    # KV cache being moved (Splitwise hand-off)
    DECODING = "decoding"      # generating tokens
    PREEMPTED = "preempted"    # evicted; must re-run prefill
    FINISHED = "finished"


@dataclass(eq=False)
class Request:
    """A single inference request and its runtime bookkeeping.

    The target ``output_tokens`` plays the role of the (unknown to the
    system, known to the simulator) generation length: the system only
    discovers a request is finished when the last token is produced,
    mirroring the EOS-termination uncertainty the paper highlights.

    ``eq=False``: requests are unique mutable entities tracked by identity.
    Identity comparison keeps ``req in running_list`` membership checks (a
    simulator hot path) at pointer-comparison cost and makes requests
    hashable for set-based bookkeeping.

    While the request decodes on a unit it holds that unit's
    :class:`DecodeClock` in ``decode_clock``, and every iteration the unit
    commits adds one generated token without touching the request:
    :attr:`generated_tokens` is computed from the clock when read, and is
    exact at every point, the middle of a commit included.
    """

    request_id: int
    arrival_time: float
    prompt_tokens: int
    output_tokens: int

    status: RequestStatus = RequestStatus.QUEUED
    prefilled_tokens: int = 0
    prefill_completion_time: Optional[float] = None
    finish_time: Optional[float] = None
    num_preemptions: int = 0
    num_redispatches: int = 0
    decode_clock: Optional[DecodeClock] = field(default=None, init=False, repr=False)
    decode_position: int = field(default=-1, init=False, repr=False)
    """Admission position on the unit of ``decode_clock`` (unique per admission)."""
    # Generated tokens; while decoding, less the clock's epoch at the join.
    _generated: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.prompt_tokens <= 0:
            raise ValueError("prompt_tokens must be > 0")
        if self.output_tokens <= 0:
            raise ValueError("output_tokens must be > 0")
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be >= 0")

    # -- derived state ----------------------------------------------------------

    @property
    def generated_tokens(self) -> int:
        """Output tokens produced so far."""
        clock = self.decode_clock
        if clock is None:
            return self._generated
        return self._generated + clock.epoch + (self.decode_position < clock.cursor)

    @property
    def decode_base(self) -> int:
        """``context_length`` less the decode epoch, read outside a commit.

        Constant while the request decodes, so a unit keeps its batch context
        sums from it without a per-token update.
        """
        return self.prompt_tokens + self._generated

    @property
    def context_length(self) -> int:
        """Tokens currently in the request's context (prompt + generated)."""
        return self.prompt_tokens + self.generated_tokens

    @property
    def is_finished(self) -> bool:
        return self.status == RequestStatus.FINISHED

    @property
    def remaining_tokens(self) -> int:
        return max(0, self.output_tokens - self.generated_tokens)

    @property
    def prefill_target(self) -> int:
        """Tokens the prefill must cover: the prompt, plus (after a preemption)
        every token generated so far, matching vLLM's recompute-on-preempt."""
        return self.prompt_tokens + self.generated_tokens

    @property
    def remaining_prefill_tokens(self) -> int:
        """Prefill tokens not yet processed (the whole target when unchunked)."""
        return max(0, self.prefill_target - self.prefilled_tokens)

    @property
    def is_partially_prefilled(self) -> bool:
        """True while a chunked prefill is in flight but not yet complete."""
        return self.status == RequestStatus.PREFILLING and 0 < self.prefilled_tokens < self.prefill_target

    # -- lifecycle transitions ----------------------------------------------------

    def start_prefill(self) -> None:
        if self.status not in (RequestStatus.QUEUED, RequestStatus.PREEMPTED):
            raise RuntimeError(f"cannot start prefill from status {self.status}")
        self.status = RequestStatus.PREFILLING

    def advance_prefill(self, num_tokens: int) -> None:
        """Record ``num_tokens`` of chunked-prefill progress (not the last chunk).

        TTFT is *not* stamped here: under chunked prefill the first output token
        only exists once the final chunk completes (see :meth:`complete_prefill`).
        """
        if self.status != RequestStatus.PREFILLING:
            raise RuntimeError(f"cannot advance prefill in status {self.status}")
        if num_tokens <= 0:
            raise ValueError("num_tokens must be > 0")
        if self.prefilled_tokens + num_tokens >= self.prefill_target:
            raise ValueError("the final prefill chunk must use complete_prefill")
        self.prefilled_tokens += num_tokens

    def complete_prefill(self, now: float) -> None:
        """The last prefill chunk produced the first output token at ``now``."""
        if self.status != RequestStatus.PREFILLING:
            raise RuntimeError(f"cannot complete prefill from status {self.status}")
        self.first_token(now)
        self._generated += 1
        if self._generated >= self.output_tokens:
            self.finish(now)
        else:
            self.status = RequestStatus.DECODING

    def first_token(self, now: float) -> None:
        """The prefill is complete, and its first output token comes out at ``now``.

        Stamps TTFT.  A Splitwise hand-off calls this on the decode unit, for
        the token its first decode iteration there produces.
        """
        self.prefilled_tokens = self.prefill_target
        if self.prefill_completion_time is None:
            self.prefill_completion_time = now

    def join_decode(self, clock: DecodeClock, position: int) -> None:
        """Start decoding on the unit of ``clock``: one token per iteration it commits."""
        if self.status != RequestStatus.DECODING:
            raise RuntimeError(f"cannot decode in status {self.status}")
        self._generated -= clock.epoch
        self.decode_clock = clock
        self.decode_position = position

    def leave_decode(self) -> None:
        """Stop decoding: ``generated_tokens`` keeps its current value."""
        self._generated = self.generated_tokens
        self.decode_clock = None

    def finish(self, now: float) -> None:
        """The request produced its last token at ``now``."""
        self.leave_decode()
        self.status = RequestStatus.FINISHED
        self.finish_time = now

    def preempt(self) -> None:
        """Evict the request; its cache is dropped and prefill must be redone.

        Generated tokens are retained logically (the recomputed prefill covers
        prompt + generated tokens), matching vLLM's recompute-on-preempt.
        """
        if self.is_finished:
            raise RuntimeError("cannot preempt a finished request")
        self.leave_decode()
        self.status = RequestStatus.PREEMPTED
        self.prefilled_tokens = 0
        self.num_preemptions += 1

    def begin_migration(self) -> None:
        if self.status not in (RequestStatus.PREFILLING, RequestStatus.DECODING):
            raise RuntimeError(f"cannot migrate from status {self.status}")
        self.status = RequestStatus.MIGRATING

    def end_migration(self) -> None:
        if self.status != RequestStatus.MIGRATING:
            raise RuntimeError("request is not migrating")
        self.status = RequestStatus.DECODING

    # -- metrics ----------------------------------------------------------------------

    @property
    def ttft(self) -> Optional[float]:
        """Time to first token."""
        if self.prefill_completion_time is None:
            return None
        return self.prefill_completion_time - self.arrival_time

    @property
    def tpot(self) -> Optional[float]:
        """Mean time per output token after the first one."""
        if self.finish_time is None or self.prefill_completion_time is None:
            return None
        if self.generated_tokens <= 1:
            return 0.0
        return (self.finish_time - self.prefill_completion_time) / (self.generated_tokens - 1)

    @property
    def normalized_latency(self) -> Optional[float]:
        """End-to-end latency divided by output length (the paper's s/token metric)."""
        if self.finish_time is None or self.generated_tokens == 0:
            return None
        return (self.finish_time - self.arrival_time) / self.generated_tokens

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request({self.request_id}, {self.status.value}, "
            f"prompt={self.prompt_tokens}, out={self.generated_tokens}/{self.output_tokens})"
        )
