"""Tests for arrival processes."""

from itertools import islice

import numpy as np
import pytest

from repro.workloads.arrivals import (
    RatePhase,
    piecewise_rate_arrival_stream,
    poisson_arrival_stream,
    poisson_arrivals,
)


def test_poisson_count_and_monotonicity():
    times = poisson_arrivals(rate=10.0, n=200, seed=0)
    assert len(times) == 200
    assert all(b > a for a, b in zip(times, times[1:]))


def test_poisson_mean_gap_matches_rate():
    times = poisson_arrivals(rate=5.0, n=5000, seed=1)
    gaps = np.diff([0.0] + times)
    assert np.mean(gaps) == pytest.approx(0.2, rel=0.1)


def test_poisson_deterministic_given_seed():
    assert poisson_arrivals(3.0, 20, seed=9) == poisson_arrivals(3.0, 20, seed=9)


def test_poisson_invalid_rate():
    with pytest.raises(ValueError):
        poisson_arrivals(0.0, 10)


def test_poisson_stream_yields_the_list_timestamps():
    assert list(islice(poisson_arrival_stream(3.0, seed=9), 20)) == poisson_arrivals(3.0, 20, seed=9)


def test_poisson_stream_invalid_rate():
    with pytest.raises(ValueError):
        next(poisson_arrival_stream(0.0))

def test_rate_phase_validation():
    with pytest.raises(ValueError):
        RatePhase(rate=-1.0, duration=5.0)
    with pytest.raises(ValueError):
        RatePhase(rate=1.0, duration=0.0)


def test_piecewise_respects_idle_phases():
    phases = [
        RatePhase(rate=10.0, duration=10.0),
        RatePhase(rate=1e-9, duration=10.0),
        RatePhase(rate=10.0, duration=10.0),
    ]
    times = list(piecewise_rate_arrival_stream(phases, seed=0))
    in_gap = [t for t in times if 10.0 <= t < 20.0]
    assert len(in_gap) == 0
    assert any(t < 10.0 for t in times)
    assert any(t >= 20.0 for t in times)


def test_piecewise_all_arrivals_within_schedule():
    phases = [RatePhase(rate=5.0, duration=4.0), RatePhase(rate=2.0, duration=6.0)]
    times = list(piecewise_rate_arrival_stream(phases, seed=3))
    assert all(0.0 <= t < 10.0 for t in times)


def test_piecewise_empty_phases_rejected():
    with pytest.raises(ValueError):
        list(piecewise_rate_arrival_stream([]))


def test_piecewise_start_offset():
    phases = [RatePhase(rate=5.0, duration=4.0), RatePhase(rate=2.0, duration=6.0)]
    shifted = list(piecewise_rate_arrival_stream(phases, seed=3, start=10.0))
    assert all(10.0 <= t < 20.0 for t in shifted)
    assert shifted == pytest.approx([t + 10.0 for t in piecewise_rate_arrival_stream(phases, seed=3)])
