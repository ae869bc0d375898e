"""Metrics collection and summary statistics for serving experiments.

The collector accumulates per-request records and per-iteration module-time
samples; :class:`SummaryStats` exposes the aggregates the paper reports
(mean / P95 of normalized latency, TTFT, TPOT, and decode-phase module
latencies) plus throughput.

Two collection modes:

* **exact** (the default) keeps every :class:`RequestRecord` and module-time
  sample, so summaries are bit-identical to the historical path and
  per-request data stays available for snapshots and figures.  Memory grows
  O(N) with the trace.
* **bounded** (``MetricsCollector(bounded_memory=True)``) keeps only running
  aggregates: exact counts/means/sums plus :class:`GKQuantileSketch`
  (Greenwald-Khanna) sketches for the P95s.  Memory is O((1/eps) * log(eps*N))
  per tracked metric regardless of trace length, and every reported quantile
  carries the sketch's documented rank-error bound.  ``records`` stays empty
  in this mode -- production-scale replays opt in via the deployment spec's
  ``metrics.mode = "bounded"``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.sim.request import Request
from repro.utils.validation import ConfigError, is_number


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile helper that tolerates empty input (returns 0.0).

    ``np.percentile`` raises IndexError on empty arrays, so the empty case is
    short-circuited before NumPy sees it.  Arrays pass through without a
    copy; lists/generators are materialised exactly once via ``np.fromiter``
    (the old ``list() -> np.asarray`` path built every input twice).
    """
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    if isinstance(values, np.ndarray):
        arr = np.asarray(values, dtype=float)
    else:
        arr = np.fromiter(values, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, q))


class GKQuantileSketch:
    """Greenwald-Khanna streaming quantile sketch with a hard rank-error bound.

    After ``n`` inserts, ``query(q)`` returns a value whose rank in the sorted
    stream is within ``epsilon * n`` of ``q * n`` -- a deterministic guarantee,
    not a probabilistic one.  Memory is O((1/epsilon) * log(epsilon * n)),
    independent of the stream length for practical purposes: at the default
    ``epsilon=0.005`` a million-sample stream keeps a few hundred tuples
    instead of a million floats.

    This is the quantile engine behind the collector's ``bounded_memory``
    mode; the exact mode never touches it.
    """

    def __init__(self, epsilon: float = 0.005) -> None:
        if not 0 < epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon!r}")
        self.epsilon = epsilon
        # Sorted tuples (value, g, delta): g = rank gap to the previous tuple,
        # delta = uncertainty of this tuple's rank.  _values mirrors the tuple
        # values so inserts can bisect without a key function.
        self._tuples: List[List[float]] = []
        self._values: List[float] = []
        self._n = 0
        self._since_compress = 0
        self._compress_every = max(int(1.0 / (2.0 * epsilon)), 1)

    def __len__(self) -> int:
        return self._n

    @property
    def num_tuples(self) -> int:
        """Current sketch size (for memory accounting and tests)."""
        return len(self._tuples)

    def add(self, value: float) -> None:
        self.add_many((float(value),))

    def add_many(self, values: Iterable[float]) -> None:
        """Insert each of ``values`` (floats) in order, compressing every ``1/(2 epsilon)`` inserts.

        Splitting a stream across calls changes nothing: the tuples depend
        only on the values and their order.
        """
        tuples, keys = self._tuples, self._values
        two_eps = 2.0 * self.epsilon
        every = self._compress_every
        n, since = self._n, self._since_compress
        bisect_left = bisect.bisect_left
        for value in values:
            idx = bisect_left(keys, value)
            if idx == 0 or idx == len(tuples):
                delta = 0.0  # new minimum or maximum: rank is known exactly
            else:
                delta = float(int(two_eps * n))
            tuples.insert(idx, [value, 1.0, delta])
            keys.insert(idx, value)
            n += 1
            since += 1
            if since >= every:
                self._n = n
                self._compress()
                since = 0
        self._n, self._since_compress = n, since

    def _compress(self) -> None:
        """Merge adjacent tuples whose combined uncertainty stays in bound."""
        if len(self._tuples) < 3:
            return
        threshold = 2.0 * self.epsilon * self._n
        tuples = self._tuples
        # Sweep right-to-left so a merge never disturbs unvisited indices;
        # endpoints (min/max) are never merged away.
        i = len(tuples) - 2
        while i >= 1:
            v, g, d = tuples[i]
            nv, ng, nd = tuples[i + 1]
            if g + ng + nd < threshold:
                tuples[i + 1][1] = g + ng
                del tuples[i]
                del self._values[i]
            i -= 1

    def query(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], within ``epsilon * n`` ranks."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q!r}")
        if not self._tuples:
            return 0.0
        target = q * self._n
        margin = self.epsilon * self._n
        rank = 0.0
        for i in range(len(self._tuples) - 1):
            rank += self._tuples[i][1]
            if rank + self._tuples[i + 1][1] + self._tuples[i + 1][2] > target + margin:
                return self._tuples[i][0]
        return self._tuples[-1][0]


class StreamingStats:
    """Bounded-memory accumulator: exact count/mean, sketched quantiles."""

    __slots__ = ("count", "total", "sketch")

    def __init__(self, epsilon: float = 0.005) -> None:
        self.count = 0
        self.total = 0.0
        self.sketch = GKQuantileSketch(epsilon)

    def add(self, value: float) -> None:
        self.add_many((float(value),))

    def add_many(self, values: Sequence[float]) -> None:
        """Add each of ``values`` (floats) in order; the sum runs in that order too."""
        total = self.total
        for value in values:
            total += value
        self.total = total
        self.count += len(values)
        self.sketch.add_many(values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        return self.sketch.query(q)


@dataclass(frozen=True)
class RequestRecord:
    """Frozen per-request metrics extracted once a request finishes."""

    request_id: int
    arrival_time: float
    finish_time: float
    prompt_tokens: int
    output_tokens: int
    ttft: float
    tpot: float
    normalized_latency: float
    num_preemptions: int
    num_redispatches: int

    @staticmethod
    def from_request(req: Request) -> "RequestRecord":
        if not req.is_finished:
            raise ValueError(f"request {req.request_id} has not finished")
        # Defensive defaults: a request shed or force-finished with zero output
        # tokens has no well-defined per-token metrics (``normalized_latency``
        # would divide by zero, ``ttft``/``tpot`` are None); record 0.0 rather
        # than poisoning the whole summary with a TypeError/ZeroDivisionError.
        ttft = req.ttft
        tpot = req.tpot
        normalized = req.normalized_latency
        return RequestRecord(
            request_id=req.request_id,
            arrival_time=req.arrival_time,
            finish_time=float(req.finish_time),
            prompt_tokens=req.prompt_tokens,
            output_tokens=req.generated_tokens,
            ttft=float(ttft) if ttft is not None else 0.0,
            tpot=float(tpot) if tpot is not None else 0.0,
            normalized_latency=float(normalized) if normalized is not None else 0.0,
            num_preemptions=req.num_preemptions,
            num_redispatches=req.num_redispatches,
        )


@dataclass(frozen=True)
class SLOSpec:
    """Per-request latency objectives used for goodput accounting.

    A finished request *attains* the SLO when its TTFT and TPOT are both at or
    below the respective bounds; goodput is the throughput of attaining
    requests only.  The defaults are deliberately loose (interactive-chat
    scale) so that unconfigured runs report near-1.0 attainment.
    """

    ttft_s: float = 10.0
    tpot_s: float = 0.5

    def __post_init__(self) -> None:
        for name in ("ttft_s", "tpot_s"):
            value = getattr(self, name)
            if not is_number(value):
                raise ConfigError(f"slo.{name} must be a number, got {value!r}")
            if not value > 0:
                raise ConfigError(f"slo.{name} must be > 0, got {value!r}")
            object.__setattr__(self, name, float(value))

    def attained(self, ttft: float, tpot: float) -> bool:
        return ttft <= self.ttft_s and tpot <= self.tpot_s


@dataclass
class SummaryStats:
    """Aggregate statistics over a completed simulation."""

    num_finished: int
    duration: float
    mean_normalized_latency: float
    p95_normalized_latency: float
    mean_ttft: float
    p95_ttft: float
    mean_tpot: float
    p95_tpot: float
    throughput_rps: float
    throughput_tokens_per_s: float
    total_preemptions: int
    p95_module_latency: Dict[str, float] = field(default_factory=dict)
    mean_module_latency: Dict[str, float] = field(default_factory=dict)
    # SLO-attainment / goodput block (admission control & elasticity runs).
    num_rejected: int = 0
    num_deferrals: int = 0
    # Deferred arrivals whose retry fell past the truncation horizon; a
    # subset of num_rejected (they count as rejections of offered load).
    num_dropped_retries: int = 0
    slo_attainment: float = 1.0
    goodput_rps: float = 0.0
    rejection_rate: float = 0.0

    @property
    def normalized_latency(self) -> float:
        """Alias used by the end-to-end figures (mean s/token)."""
        return self.mean_normalized_latency


MODULE_BATCH = 256
"""Decode iterations whose module times a bounded collector buffers before feeding its sketches."""


class MetricsCollector:
    """Accumulates request records and module-time samples during a run.

    ``bounded_memory=True`` switches every per-request and per-module store
    to streaming aggregates (exact counts/means, GK-sketched P95s with
    ``quantile_epsilon`` rank error) so memory stays flat over million-request
    replays.  The default exact mode is bit-identical to the historical
    collector -- the snapshot gates depend on that.

    Module times arrive once per decode-only iteration.  Bounded mode keeps
    them in a buffer of at most :data:`MODULE_BATCH` samples per module,
    which feeds the module's sketch in one call when full and before any
    summary: in arrival order, so every mean and quantile is bit-identical
    to one insert per sample.

    Preemptions are counted where they happen, by the units, and booked by
    the engine at run end (:meth:`observe_preemptions`), so a request
    preempted and never finished counts too.
    """

    def __init__(
        self,
        slo: Optional[SLOSpec] = None,
        bounded_memory: bool = False,
        quantile_epsilon: float = 0.005,
    ) -> None:
        self.records: List[RequestRecord] = []
        self.module_samples: Dict[str, List[float]] = {}
        self.slo = slo or SLOSpec()
        self.bounded_memory = bool(bounded_memory)
        self.quantile_epsilon = quantile_epsilon
        self.num_rejected = 0
        self.num_deferrals = 0
        self.num_dropped_retries = 0
        self.num_arrivals = 0
        self._start_time: Optional[float] = None
        self._end_time: float = 0.0
        self._preemptions = 0
        # Bounded-mode aggregates (unused -- and empty -- in exact mode).
        self._num_finished = 0
        self._tokens = 0
        self._attained = 0
        self._lat = StreamingStats(quantile_epsilon)
        self._ttft = StreamingStats(quantile_epsilon)
        self._tpot = StreamingStats(quantile_epsilon)
        self._module_stats: Dict[str, StreamingStats] = {}
        self._module_buffers: Dict[str, List[float]] = {}
        self._buffered = 0  # decode iterations in the bounded-mode buffers
        # Memoized summary: every observe_* invalidates, so repeated summary()
        # calls (CLI + figures + tests on one result) pay O(N) exactly once.
        self._cached_summary: Optional[SummaryStats] = None

    # -- recording ------------------------------------------------------------------

    def observe_arrival(self, now: float) -> None:
        self.num_arrivals += 1
        self._cached_summary = None
        if self._start_time is None or now < self._start_time:
            self._start_time = now
        self._end_time = max(self._end_time, now)

    def observe_rejection(self, request: Request, now: float) -> None:
        """An arrival turned away by admission control (never served)."""
        self.num_rejected += 1
        self._cached_summary = None
        if self._start_time is None or now < self._start_time:
            self._start_time = now
        self._end_time = max(self._end_time, now)

    def observe_deferral(self, request: Request, now: float) -> None:
        """An arrival pushed back for a later admission retry.

        The deferral still marks load offered at ``now``: without widening the
        observation window here, a run that opens saturated (first arrivals
        all deferred) would start its duration clock at the first *retry* and
        over-report throughput/goodput.
        """
        self.num_deferrals += 1
        self._cached_summary = None
        if self._start_time is None or now < self._start_time:
            self._start_time = now
        self._end_time = max(self._end_time, now)

    def observe_dropped_retry(self, request: Request, now: float) -> None:
        """A deferred arrival whose retry fell past the simulation horizon.

        The request was offered to the deployment and never served, so it is
        booked as a rejection (keeping ``rejection_rate``'s denominator equal
        to the offered load) and counted separately for truncation reports.
        ``now`` is the truncation time, not the retry's scheduled time --
        using the latter would stretch the observation window past the cutoff
        and deflate every rate metric.
        """
        self.num_dropped_retries += 1
        self.observe_rejection(request, now)

    def observe_finish(self, request: Request) -> None:
        record = RequestRecord.from_request(request)
        self._cached_summary = None
        if self.bounded_memory:
            self._num_finished += 1
            self._tokens += record.output_tokens
            if self.slo.attained(record.ttft, record.tpot):
                self._attained += 1
            self._lat.add(record.normalized_latency)
            self._ttft.add(record.ttft)
            self._tpot.add(record.tpot)
        else:
            self.records.append(record)
        self._end_time = max(self._end_time, float(request.finish_time))

    def observe_module_times(self, module_times: Dict[str, float]) -> None:
        """Record one decode iteration's per-module latencies."""
        self._cached_summary = None
        if self.bounded_memory:
            buffers = self._module_buffers
            for name, value in module_times.items():
                buffer = buffers.get(name)
                if buffer is None:
                    self._module_stats[name] = StreamingStats(self.quantile_epsilon)
                    buffer = buffers[name] = []
                buffer.append(float(value))
            self._buffered += 1
            if self._buffered >= MODULE_BATCH:
                self._flush_modules()
        else:
            for name, value in module_times.items():
                self.module_samples.setdefault(name, []).append(float(value))

    def observe_preemptions(self, count: int) -> None:
        """Book ``count`` preemptions, of requests finished or not."""
        self._cached_summary = None
        self._preemptions += count

    def _flush_modules(self) -> None:
        """Feed every buffered module time to its module's sketch."""
        self._buffered = 0
        for name, buffer in self._module_buffers.items():
            self._module_stats[name].add_many(buffer)
            buffer.clear()

    # -- aggregation -----------------------------------------------------------------

    @property
    def num_finished(self) -> int:
        return self._num_finished if self.bounded_memory else len(self.records)

    def summary(self) -> SummaryStats:
        if self._cached_summary is None:
            self._cached_summary = (
                self._bounded_summary() if self.bounded_memory else self._exact_summary()
            )
        return self._cached_summary

    def _duration(self) -> float:
        start = self._start_time or 0.0
        return max(self._end_time - start, 1e-9)

    def _exact_summary(self) -> SummaryStats:
        duration = self._duration()
        # One pass over the records fills the three metric arrays and the
        # scalar accumulators together; the old path built three throwaway
        # Python lists (plus two generator sweeps) on every call.
        n = len(self.records)
        lat = np.empty(n)
        ttft = np.empty(n)
        tpot = np.empty(n)
        tokens = 0
        num_attained = 0
        slo = self.slo
        for i, r in enumerate(self.records):
            lat[i] = r.normalized_latency
            ttft[i] = r.ttft
            tpot[i] = r.tpot
            tokens += r.output_tokens
            if slo.attained(r.ttft, r.tpot):
                num_attained += 1
        # Offered load = every admitted arrival (finished or not) plus every
        # rejection; using finished counts alone would overstate the rate on
        # runs truncated by max_simulated_time/max_events.
        num_offered = self.num_arrivals + self.num_rejected
        return SummaryStats(
            num_finished=n,
            duration=duration,
            mean_normalized_latency=float(np.mean(lat)) if n else 0.0,
            p95_normalized_latency=percentile(lat, 95),
            mean_ttft=float(np.mean(ttft)) if n else 0.0,
            p95_ttft=percentile(ttft, 95),
            mean_tpot=float(np.mean(tpot)) if n else 0.0,
            p95_tpot=percentile(tpot, 95),
            throughput_rps=n / duration,
            throughput_tokens_per_s=tokens / duration,
            total_preemptions=self._preemptions,
            p95_module_latency={k: percentile(v, 95) for k, v in self.module_samples.items()},
            mean_module_latency={
                k: float(np.mean(v)) if v else 0.0 for k, v in self.module_samples.items()
            },
            num_rejected=self.num_rejected,
            num_deferrals=self.num_deferrals,
            num_dropped_retries=self.num_dropped_retries,
            slo_attainment=num_attained / n if n else 1.0,
            goodput_rps=num_attained / duration,
            rejection_rate=self.num_rejected / num_offered if num_offered else 0.0,
        )

    def _bounded_summary(self) -> SummaryStats:
        self._flush_modules()
        duration = self._duration()
        n = self._num_finished
        num_offered = self.num_arrivals + self.num_rejected
        return SummaryStats(
            num_finished=n,
            duration=duration,
            mean_normalized_latency=self._lat.mean,
            p95_normalized_latency=self._lat.quantile(0.95),
            mean_ttft=self._ttft.mean,
            p95_ttft=self._ttft.quantile(0.95),
            mean_tpot=self._tpot.mean,
            p95_tpot=self._tpot.quantile(0.95),
            throughput_rps=n / duration,
            throughput_tokens_per_s=self._tokens / duration,
            total_preemptions=self._preemptions,
            p95_module_latency={
                k: v.quantile(0.95) for k, v in sorted(self._module_stats.items())
            },
            mean_module_latency={
                k: v.mean for k, v in sorted(self._module_stats.items())
            },
            num_rejected=self.num_rejected,
            num_deferrals=self.num_deferrals,
            num_dropped_retries=self.num_dropped_retries,
            slo_attainment=self._attained / n if n else 1.0,
            goodput_rps=self._attained / duration,
            rejection_rate=self.num_rejected / num_offered if num_offered else 0.0,
        )
