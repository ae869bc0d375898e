"""Seed-sweep property suite for the replica routers.

These tests drive the routers against lightweight fake replicas (anything
with ``.units`` exposing ``kv_utilization()`` plus ``available_cache_bytes()``
satisfies the router contract), so hundreds of seed/shape combinations run in
milliseconds without building real serving systems.

Invariants covered:

* every router always returns an index inside the candidate list,
* round-robin is exactly fair over ``k * N`` arrivals,
* power-of-two (and its weighted variant) is bit-identical across runs for a
  fixed seed,
* least-kv never picks a strictly-more-loaded replica,
* the weighted round-robin split tracks capacity weights to within one
  request per replica.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster_system import (
    ROUTERS,
    LeastKVLoadRouter,
    PowerOfTwoChoicesRouter,
    RoundRobinRouter,
    WeightedPowerOfTwoRouter,
    WeightedRoundRobinRouter,
    make_router,
)


class FakeUnit:
    def __init__(self, utilization: float) -> None:
        self.utilization = utilization
        self.num_waiting = 0
        self.num_running = 0

    def kv_utilization(self):
        return {"dev0": self.utilization}


class FakeReplica:
    """Duck-typed stand-in for a ServingSystem as the routers see one."""

    def __init__(self, utilization: float = 0.0, capacity: float = 1e9) -> None:
        self._unit = FakeUnit(utilization)
        self._capacity = capacity

    @property
    def units(self):
        return [self._unit]

    def set_utilization(self, value: float) -> None:
        self._unit.utilization = value

    def available_cache_bytes(self) -> float:
        return self._capacity


def make_replicas(utils, caps=None):
    caps = caps or [1e9] * len(utils)
    return [FakeReplica(u, c) for u, c in zip(utils, caps)]


# ---------------------------------------------------------------- in-range selection


@settings(max_examples=60, deadline=None)
@given(
    router_name=st.sampled_from(sorted(ROUTERS)),
    utils=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    caps=st.data(),
    seed=st.integers(0, 100),
    arrivals=st.integers(1, 40),
)
def test_selected_index_always_in_range(router_name, utils, caps, seed, arrivals):
    capacities = caps.draw(
        st.lists(st.floats(1e6, 1e12), min_size=len(utils), max_size=len(utils))
    )
    replicas = make_replicas(utils, capacities)
    router = make_router(router_name, seed=seed)
    for i in range(arrivals):
        idx = router.select(None, replicas, now=float(i))
        assert 0 <= idx < len(replicas)


# ---------------------------------------------------------------- round-robin fairness


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(1, 10))
def test_round_robin_exactly_fair_over_kn_arrivals(n, k):
    replicas = make_replicas([0.0] * n)
    router = RoundRobinRouter()
    counts = Counter(router.select(None, replicas, now=float(t)) for t in range(k * n))
    assert all(counts[i] == k for i in range(n))


# ---------------------------------------------------------------- determinism


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 1000),
    n=st.integers(2, 8),
    arrivals=st.integers(1, 64),
    weighted=st.booleans(),
)
def test_power_of_two_bit_identical_for_fixed_seed(seed, n, arrivals, weighted):
    cls = WeightedPowerOfTwoRouter if weighted else PowerOfTwoChoicesRouter
    caps = [float(1 + i) * 1e8 for i in range(n)]
    picks = []
    for _ in range(2):
        replicas = make_replicas([0.1 * (i % 3) for i in range(n)], caps)
        router = cls(seed=seed)
        picks.append([router.select(None, replicas, now=float(t)) for t in range(arrivals)])
    assert picks[0] == picks[1]


# ---------------------------------------------------------------- least-kv dominance


@settings(max_examples=60, deadline=None)
@given(
    utils=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    now=st.floats(0.0, 1e6),
)
def test_least_kv_never_picks_strictly_more_loaded(utils, now):
    replicas = make_replicas(utils)
    idx = LeastKVLoadRouter().select(None, replicas, now=now)
    assert utils[idx] == pytest.approx(min(utils))


@settings(max_examples=40, deadline=None)
@given(utils=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8), seed=st.integers(0, 50))
def test_power_of_two_pick_not_worse_than_other_candidate(utils, seed):
    """The chosen replica is never strictly more loaded than the unsampled
    alternative of its pair -- checked indirectly: the pick's load is never
    strictly greater than both candidates' loads, i.e. never the unique max
    of a sampled pair."""
    replicas = make_replicas(utils)
    router = PowerOfTwoChoicesRouter(seed=seed)
    for t in range(32):
        idx = router.select(None, replicas, now=float(t))
        strictly_less_loaded = sum(1 for u in utils if u < utils[idx])
        # With 2 candidates, at most one can be strictly less loaded than the
        # pick (the pick beats or ties the other candidate).
        assert strictly_less_loaded <= len(utils) - 1
        if len(utils) == 2:
            assert utils[idx] == pytest.approx(min(utils))


# ---------------------------------------------------------------- weighted fairness


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(st.integers(1, 8), min_size=1, max_size=6),
    rounds=st.integers(1, 6),
)
def test_weighted_round_robin_split_tracks_weights(weights, rounds):
    """Over rounds * sum(weights) arrivals, each replica receives exactly
    rounds * weight requests (smooth weighted round-robin property)."""
    caps = [w * 1e8 for w in weights]
    replicas = make_replicas([0.0] * len(weights), caps)
    router = WeightedRoundRobinRouter()
    total = rounds * sum(weights)
    counts = Counter(router.select(None, replicas, now=float(t)) for t in range(total))
    for i, w in enumerate(weights):
        assert abs(counts[i] - rounds * w) <= 1


# ---------------------------------------------------------------- memoization


def test_kv_load_memoized_within_timestamp():
    """Same-timestamp bursts hit the cache; advancing time invalidates it."""
    calls = {"n": 0}

    class CountingReplica(FakeReplica):
        @property
        def units(self):
            calls["n"] += 1
            return [self._unit]

    replicas = [CountingReplica(0.5), CountingReplica(0.2)]
    router = LeastKVLoadRouter()
    router.select(None, replicas, now=1.0)
    after_first = calls["n"]
    assert after_first == 2  # one scan per replica
    for _ in range(10):
        router.select(None, replicas, now=1.0)
    assert calls["n"] == after_first  # burst at t=1.0 never rescans
    replicas[0].set_utilization(0.0)
    assert router.select(None, replicas, now=2.0) == 0  # new time sees new load
    assert calls["n"] == after_first + 2
