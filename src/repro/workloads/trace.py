"""Traces: request samples joined with arrival timestamps.

Two trace flavours feed the simulator:

* :class:`Trace` -- the classic fully materialized, sorted list of
  :class:`TraceEntry`.  Everything small (paper figures, snapshots) uses it.
* :class:`StreamingTrace` -- a re-iterable *lazy* trace that yields entries in
  arrival order without ever holding the full request list.
  :func:`generate_trace_stream` builds one from the same dataset/arrival
  machinery as :func:`generate_trace`, drawing arrivals gap-by-gap and request
  lengths in bounded chunks, so a day of production-scale traffic replays in
  O(chunk) memory instead of O(N).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from repro.utils.rng import spawn_rngs
from repro.workloads.arrivals import (
    RatePhase,
    piecewise_rate_arrival_stream,
    poisson_arrival_stream,
    poisson_arrivals,
)
from repro.workloads.datasets import get_dataset_spec


@dataclass(frozen=True)
class TraceEntry:
    """A single arrival: timestamp plus the request's prompt/output lengths."""

    arrival_time: float
    prompt_tokens: int
    output_tokens: int

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be >= 0")
        if self.prompt_tokens <= 0 or self.output_tokens <= 0:
            raise ValueError("token counts must be positive")


@dataclass
class Trace:
    """An ordered list of request arrivals fed to the serving simulator."""

    entries: List[TraceEntry] = field(default_factory=list)
    dataset: str = ""
    request_rate: float = 0.0

    def __post_init__(self) -> None:
        self.entries = sorted(self.entries, key=lambda e: e.arrival_time)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def duration(self) -> float:
        return self.entries[-1].arrival_time if self.entries else 0.0

    @property
    def total_prompt_tokens(self) -> int:
        return sum(e.prompt_tokens for e in self.entries)

    @property
    def total_output_tokens(self) -> int:
        return sum(e.output_tokens for e in self.entries)

    @property
    def mean_context_tokens(self) -> float:
        """Mean final context length (prompt + output), used for planning."""
        if not self.entries:
            return 0.0
        return sum(e.prompt_tokens + e.output_tokens for e in self.entries) / len(self.entries)


@dataclass
class StreamingTrace:
    """A lazy, re-iterable trace: entries are produced in arrival order.

    ``factory`` returns a *fresh* iterator of :class:`TraceEntry` each time it
    is called, so the trace can be replayed (engine run, then inspection)
    without caching entries.  Iteration validates arrival-order monotonicity
    -- the engine's lazy arrival feeding relies on it -- and raises
    ``ValueError`` on the first out-of-order entry.

    ``length_hint`` is the expected entry count when known (``None`` for
    schedule-bounded streams); it is advisory only -- ``len()`` is
    deliberately not implemented, because counting would force the stream.
    """

    factory: Callable[[], Iterator[TraceEntry]]
    dataset: str = ""
    request_rate: float = 0.0
    length_hint: Optional[int] = None

    def __iter__(self) -> Iterator[TraceEntry]:
        last = float("-inf")
        for entry in self.factory():
            if entry.arrival_time < last:
                raise ValueError(
                    "streaming trace entries must be sorted by arrival time: "
                    f"got {entry.arrival_time} after {last}"
                )
            last = entry.arrival_time
            yield entry

    @classmethod
    def from_entries(
        cls,
        entries: Iterable[TraceEntry],
        dataset: str = "",
        request_rate: float = 0.0,
    ) -> "StreamingTrace":
        """Wrap an in-memory entry sequence (tests, parity checks).

        The entries are snapshotted once so the result is re-iterable even
        when given a one-shot iterator.
        """
        snapshot = tuple(entries)
        return cls(
            factory=lambda: iter(snapshot),
            dataset=dataset,
            request_rate=request_rate,
            length_hint=len(snapshot),
        )

    def materialize(self, limit: Optional[int] = None) -> Trace:
        """Realize the stream as a classic :class:`Trace` (small N only)."""
        entries = []
        for entry in self:
            if limit is not None and len(entries) >= limit:
                break
            entries.append(entry)
        return Trace(entries=entries, dataset=self.dataset, request_rate=self.request_rate)

    def describe(self) -> str:
        size = f"~{self.length_hint}" if self.length_hint else "schedule-bounded"
        return f"streaming {self.dataset or 'trace'} ({size} requests)"


def generate_trace(
    dataset: str,
    request_rate: float,
    num_requests: int,
    seed: int = 0,
    phases: Sequence[RatePhase] | None = None,
) -> Trace:
    """Build a trace for a named dataset.

    Either a constant Poisson ``request_rate`` is used for ``num_requests``
    arrivals, or, when ``phases`` is given, a piecewise schedule (in which case
    ``num_requests`` caps the number of entries kept and ``request_rate`` is
    recorded for bookkeeping only).
    """
    arrival_rng, length_rng = spawn_rngs(seed, 2)
    if phases is not None:
        times = list(piecewise_rate_arrival_stream(phases, seed=arrival_rng))
        if num_requests:
            times = times[:num_requests]
    else:
        times = poisson_arrivals(request_rate, num_requests, seed=arrival_rng)
    samples = get_dataset_spec(dataset).sample(length_rng, len(times))
    entries = [
        TraceEntry(arrival_time=t, prompt_tokens=s.prompt_tokens, output_tokens=s.output_tokens)
        for t, s in zip(times, samples)
    ]
    return Trace(entries=entries, dataset=dataset, request_rate=request_rate)


def generate_trace_stream(
    dataset: str,
    request_rate: float,
    num_requests: int,
    seed: int = 0,
    phases: Sequence[RatePhase] | None = None,
    chunk_size: int = 4096,
) -> StreamingTrace:
    """Build a lazy trace for a named dataset in O(``chunk_size``) memory.

    The streaming counterpart of :func:`generate_trace`: arrivals come from
    the same seeded generators (gap-by-gap -- bit-identical timestamps for
    the piecewise-schedule path), while request lengths are drawn in chunks
    of ``chunk_size`` so the length sampler stays vectorized without ever
    materializing all N samples.  Because the chunked draw order differs
    from the one-shot draw :func:`generate_trace` uses, the *lengths* of the
    two paths are statistically identical but not bit-identical; a stream is
    deterministic given ``(seed, chunk_size)``.

    With ``phases`` set, the stream ends when the schedule does (and
    ``num_requests`` caps it when positive); otherwise ``num_requests`` must
    be positive, since a bare Poisson process never ends on its own.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be > 0")
    if phases is None and num_requests <= 0:
        raise ValueError(
            "num_requests must be > 0 for a Poisson streaming trace "
            "(without phases, the arrival process never terminates)"
        )
    spec = get_dataset_spec(dataset)

    def _entries() -> Iterator[TraceEntry]:
        arrival_rng, length_rng = spawn_rngs(seed, 2)
        if phases is not None:
            times: Iterator[float] = piecewise_rate_arrival_stream(phases, seed=arrival_rng)
        else:
            times = poisson_arrival_stream(request_rate, seed=arrival_rng)
        prompts: List[int] = []
        outputs: List[int] = []
        produced = 0
        for t in times:
            if num_requests and produced >= num_requests:
                break
            k = produced % chunk_size
            if k == 0:
                prompts, outputs = spec.lengths(length_rng, chunk_size)
            produced += 1
            yield TraceEntry(arrival_time=t, prompt_tokens=prompts[k], output_tokens=outputs[k])

    return StreamingTrace(
        factory=_entries,
        dataset=dataset,
        request_rate=request_rate,
        length_hint=num_requests if num_requests else None,
    )
