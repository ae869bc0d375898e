"""Arrival processes: Poisson and piecewise (bursty) rates.

The end-to-end experiments (Figs. 8--10, 12) use Poisson arrivals at a range
of rates; the dynamic-behaviour study (Fig. 14) uses a piecewise rate schedule
(5 req/s, then idle, then 2.5 req/s, then idle).  :func:`diurnal_phases` and
:func:`spike_phases` build common piecewise schedules -- a day/night load
curve and a flash-crowd pattern -- used to exercise replica autoscaling and
admission control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.utils.rng import make_rng


def poisson_arrivals(rate: float, n: int, seed: int | np.random.Generator = 0, start: float = 0.0) -> List[float]:
    """``n`` arrival timestamps of a Poisson process with ``rate`` requests/s."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = make_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=n)
    return list(start + np.cumsum(gaps))


def poisson_arrival_stream(
    rate: float, seed: int | np.random.Generator = 0, start: float = 0.0
) -> Iterator[float]:
    """Endless stream of Poisson arrival timestamps at ``rate`` requests/s.

    The lazy counterpart of :func:`poisson_arrivals`: gaps are drawn one at a
    time from the same generator type, so the stream is deterministic given a
    seed and never materializes more than the timestamp being yielded.  The
    caller bounds consumption (``itertools.islice`` or a request cap).
    """
    if rate <= 0:
        raise ValueError("rate must be > 0")
    rng = make_rng(seed)
    t = start
    while True:
        t += rng.exponential(1.0 / rate)
        yield t


@dataclass(frozen=True)
class RatePhase:
    """One segment of a piecewise-constant arrival schedule."""

    rate: float       # requests per second; 0 means an idle gap
    duration: float   # seconds

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")


def piecewise_rate_arrival_stream(
    phases: Sequence[RatePhase],
    seed: int | np.random.Generator = 0,
    start: float = 0.0,
) -> Iterator[float]:
    """Poisson arrivals whose rate follows a piecewise-constant schedule.

    Used to reproduce the Fig.-14 scenario (rps 5 -> 0 -> 2.5 -> 0).  Phases
    with rate 0 simply advance time.  Gaps are drawn one at a time, so the
    schedule's arrivals are never held in memory; the stream ends when the
    last phase does.  An empty schedule raises ``ValueError`` on the first
    iteration.
    """
    if not phases:
        raise ValueError("need at least one phase")
    rng = make_rng(seed)
    t = start
    for phase in phases:
        end = t + phase.duration
        if phase.rate > 0:
            cur = t
            while True:
                cur += rng.exponential(1.0 / phase.rate)
                if cur >= end:
                    break
                yield cur
        t = end


def diurnal_phases(
    base_rate: float,
    peak_rate: float,
    period: float = 600.0,
    num_segments: int = 12,
    cycles: int = 1,
) -> List[RatePhase]:
    """Piecewise-constant approximation of a day/night (sinusoidal) load curve.

    One cycle ramps from ``base_rate`` (midnight) up to ``peak_rate`` (midday)
    and back, following ``base + (peak - base) * (1 - cos(2*pi*x)) / 2``
    sampled at the midpoint of each of ``num_segments`` equal segments.  The
    default period is compressed to 10 simulated minutes so autoscaling
    experiments stay cheap; pass ``period=86400`` for a literal day.
    """
    if peak_rate < base_rate:
        raise ValueError("peak_rate must be >= base_rate")
    if base_rate < 0:
        raise ValueError("base_rate must be >= 0")
    if num_segments < 2:
        raise ValueError("num_segments must be >= 2")
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    seg_duration = period / num_segments
    one_cycle = [
        RatePhase(
            rate=base_rate
            + (peak_rate - base_rate) * 0.5 * (1.0 - np.cos(2.0 * np.pi * (i + 0.5) / num_segments)),
            duration=seg_duration,
        )
        for i in range(num_segments)
    ]
    return one_cycle * cycles


def spike_phases(
    base_rate: float,
    spike_rate: float,
    base_duration: float = 60.0,
    spike_duration: float = 20.0,
    num_spikes: int = 2,
) -> List[RatePhase]:
    """A flash-crowd schedule: quiet baseline with ``num_spikes`` bursts.

    The schedule is ``base, spike, base, spike, ..., base`` -- it always ends
    on a baseline phase so the tail of the last burst drains inside the
    schedule (the shape autoscaler scale-down needs to be observable).
    """
    if base_rate < 0 or spike_rate <= 0:
        raise ValueError("rates must be >= 0 (spike_rate > 0)")
    if num_spikes < 1:
        raise ValueError("num_spikes must be >= 1")
    phases: List[RatePhase] = []
    for _ in range(num_spikes):
        phases.append(RatePhase(rate=base_rate, duration=base_duration))
        phases.append(RatePhase(rate=spike_rate, duration=spike_duration))
    phases.append(RatePhase(rate=base_rate, duration=base_duration))
    return phases
