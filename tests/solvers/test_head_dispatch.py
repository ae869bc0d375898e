"""Tests for the min-max head-dispatching solvers."""

import math
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers.head_dispatch import (
    HeadDispatchProblem,
    HeadDispatchSolution,
    _envelope_sum,
    round_to_groups,
    solve_greedy,
    solve_lp,
    summarize_contexts,
    summary_lower_bound,
)


def make_problem(
    n_devices=3,
    n_requests=4,
    total_heads=64,
    group_size=8,
    capacity_scale=1e6,
    head_cost=None,
    contexts=None,
):
    head_cost = np.array(head_cost if head_cost is not None else [1e-5, 3e-5, 3e-5])[:n_devices]
    return HeadDispatchProblem(
        head_cost=head_cost,
        cache_cost=np.full(n_devices, 1e-9),
        base_cost=np.zeros(n_devices),
        capacity=np.full(n_devices, capacity_scale),
        contexts=np.array(contexts if contexts is not None else [500, 1000, 1500, 2000])[:n_requests],
        total_heads=total_heads,
        group_size=group_size,
    )


class TestProblem:
    def test_objective_computes_max_load(self):
        p = make_problem(n_devices=2, n_requests=1, head_cost=[1.0, 2.0], contexts=[100])
        x = np.array([[32.0], [32.0]])
        # device0: 32, device1: 64 (+ tiny cache term)
        assert p.objective(x) == pytest.approx(64.0, rel=0.01)

    def test_is_feasible_checks_integrity(self):
        p = make_problem()
        x = np.zeros((3, 4))
        assert not p.is_feasible(x)
        x[0, :] = 64
        assert p.is_feasible(x)

    def test_is_feasible_checks_capacity(self):
        p = make_problem(capacity_scale=100.0)
        x = np.zeros((3, 4))
        x[0, :] = 64
        assert not p.is_feasible(x)

    def test_total_capacity_check(self):
        assert make_problem().total_capacity_sufficient()
        assert not make_problem(capacity_scale=10.0).total_capacity_sufficient()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_problem(total_heads=65, group_size=8)
        with pytest.raises(ValueError):
            HeadDispatchProblem(
                head_cost=np.ones(2),
                cache_cost=np.ones(3),
                base_cost=np.zeros(2),
                capacity=np.ones(2),
                contexts=np.ones(1),
                total_heads=8,
            )


class TestLPSolver:
    def test_solution_feasible_and_integral(self):
        p = make_problem()
        sol = solve_lp(p)
        assert sol.feasible
        assert p.is_feasible(sol.allocation)
        assert np.all(sol.allocation % p.group_size == 0)

    def test_prefers_cheap_device_under_light_load(self):
        p = make_problem(n_requests=1, contexts=[100], head_cost=[1e-6, 1e-3, 1e-3])
        sol = solve_lp(p)
        assert sol.allocation[0, 0] == p.total_heads

    def test_balances_under_heavy_load(self):
        # Equal devices, many long requests: no single device should take everything.
        p = HeadDispatchProblem(
            head_cost=np.full(3, 1e-5),
            cache_cost=np.full(3, 1e-9),
            base_cost=np.zeros(3),
            capacity=np.full(3, 1e7),
            contexts=np.full(12, 2000.0),
            total_heads=64,
            group_size=8,
        )
        sol = solve_lp(p)
        per_device = sol.allocation.sum(axis=1)
        assert per_device.max() < 64 * 12  # not all on one device
        assert sol.objective <= solve_greedy(p).objective * 1.05

    def test_infeasible_when_no_capacity(self):
        p = make_problem(capacity_scale=10.0)
        sol = solve_lp(p)
        assert not sol.feasible

    def test_respects_per_device_capacity(self):
        # Device 0 is cheap but tiny; overflow must land elsewhere.
        p = HeadDispatchProblem(
            head_cost=np.array([1e-6, 1e-4]),
            cache_cost=np.array([1e-9, 1e-9]),
            base_cost=np.zeros(2),
            capacity=np.array([64 * 500.0, 1e9]),
            contexts=np.array([500.0, 500.0]),
            total_heads=64,
            group_size=8,
        )
        sol = solve_lp(p)
        assert sol.feasible
        used0 = float((sol.allocation[0] * p.contexts).sum())
        assert used0 <= p.capacity[0] + 1e-6

    def test_lp_objective_reported(self):
        sol = solve_lp(make_problem())
        assert sol.lp_objective is not None
        assert sol.objective >= sol.lp_objective - 1e-9

    def test_integrity_row_excludes_objective_variable(self):
        """Request 0's integrity row is sum_i x_i0 = H, with no t term: two
        equal targets at base 1.0 split 8 heads at 0.1 each, so t* = 1.4."""
        p = HeadDispatchProblem(
            head_cost=np.array([0.1, 0.1]),
            cache_cost=np.zeros(2),
            base_cost=np.ones(2),
            capacity=np.full(2, 1e9),
            contexts=np.array([100.0]),
            total_heads=8,
        )
        assert solve_lp(p).lp_objective == pytest.approx(1.4, rel=1e-12)


class TestGreedySolver:
    def test_feasible_and_integral(self):
        p = make_problem()
        sol = solve_greedy(p)
        assert sol.feasible
        assert p.is_feasible(sol.allocation)
        assert np.all(sol.allocation % p.group_size == 0)

    def test_infeasible_without_capacity(self):
        assert not solve_greedy(make_problem(capacity_scale=1.0)).feasible

    def test_greedy_close_to_lp(self):
        p = make_problem(n_requests=4)
        lp = solve_lp(p)
        greedy = solve_greedy(p)
        assert greedy.objective <= lp.objective * 2.0 + 1e-9


class TestRounding:
    def test_round_preserves_totals(self):
        p = make_problem()
        frac = np.full((3, 4), p.total_heads / 3.0)
        rounded = round_to_groups(p, frac)
        assert rounded is not None
        assert np.allclose(rounded.sum(axis=0), p.total_heads)

    def test_round_handles_exact_input(self):
        p = make_problem(n_devices=2, n_requests=1, head_cost=[1.0, 1.0], contexts=[10])
        frac = np.array([[32.0], [32.0]])
        rounded = round_to_groups(p, frac)
        assert np.allclose(rounded, frac)


def random_problem(seed, n_requests=None, slack=None):
    """A seeded random problem: 2-6 devices, 1-12 requests, zero or nonzero
    bases, and either slack capacity or capacity within 1-1.5x of demand."""
    rng = np.random.default_rng(seed)
    n_dev = int(rng.integers(2, 7))
    n_req = int(rng.integers(1, 13)) if n_requests is None else n_requests
    group = int(rng.choice([1, 2, 4, 8]))
    heads = group * int(rng.integers(1, 9))
    contexts = rng.integers(16, 16_000, n_req).astype(float)
    demand = float(contexts.sum()) * heads
    if slack is None:
        slack = rng.random() < 0.5
    if slack:
        capacity = np.full(n_dev, 10.0 * demand)
    else:
        capacity = rng.dirichlet(np.ones(n_dev)) * demand * rng.uniform(1.0, 1.5)
    return HeadDispatchProblem(
        head_cost=rng.uniform(1e-6, 5e-5, n_dev),
        cache_cost=rng.uniform(1e-10, 5e-9, n_dev),
        base_cost=np.zeros(n_dev) if rng.random() < 0.5 else rng.uniform(0.0, 5e-3, n_dev),
        capacity=capacity,
        contexts=contexts,
        total_heads=heads,
        group_size=group,
    )


def water_level(problem):
    """Exact LP optimum of a one-request problem without capacity rows: the
    level t >= max base at which sum_i max(0, (t - base_i) / cost_i) = H."""
    cost = problem.head_cost + problem.cache_cost * problem.contexts[0]
    base = problem.base_cost
    lo = float(base.max())
    if np.sum(np.maximum(0.0, (lo - base) / cost)) >= problem.total_heads:
        return lo
    hi = lo + problem.total_heads * float(cost.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sum(np.maximum(0.0, (mid - base) / cost)) >= problem.total_heads:
            hi = mid
        else:
            lo = mid
    return hi


def numpy_lower_bounds(problem, base_cost, usable):
    """The oracle: the bound's array formula, one row per variant of ``problem``.

    Row ``k`` of the (variants x devices) arrays replaces the bases with
    ``base_cost[k]`` and bounds only the allocations that place heads on
    ``usable[k]`` devices.
    """
    contexts = problem.contexts
    if contexts.shape[0] <= 4:
        reps = contexts
    else:
        reps = np.array([contexts.mean(), contexts.min(), contexts.max()])
    bound = base_cost.max(axis=1)
    per_head = problem.head_cost[None, :] + problem.cache_cost[None, :] * reps[:, None]
    if not np.all(per_head > 0):
        return bound
    weights = usable[:, None, :] / per_head[None, :, :]
    weights /= weights.sum(axis=2, keepdims=True)
    unit = problem.head_cost[:, None] + problem.cache_cost[:, None] * contexts[None, :]
    weighted = np.where(usable[:, None, :, None], weights[..., None] * unit, np.inf)
    spread = weighted.min(axis=2).sum(axis=2)
    value = (weights * base_cost[:, None, :]).sum(axis=2) + problem.total_heads * spread
    return np.maximum(bound, value.max(axis=1))


def lower_bound(problem, base_cost=None, usable=None):
    """:func:`summary_lower_bound` of ``problem``, with its bases and every
    device usable unless given."""
    base_cost = problem.base_cost if base_cost is None else base_cost
    usable = np.ones(problem.n_devices, dtype=bool) if usable is None else usable
    summary = summarize_contexts(problem.head_cost.tolist(), problem.cache_cost.tolist(), problem.contexts.tolist())
    return summary_lower_bound(summary, base_cost.tolist(), usable.tolist(), problem.total_heads)


# HiGHS's reported LP optimum matches the exact water level of the one-request
# problems to ~2e-16, and no bound of the random problems exceeds it; 1e-9
# leaves room for simplex round-off only.  Integral objectives are evaluated
# exactly.
HIGHS_RTOL = 1e-9
EXACT_RTOL = 1e-12
# The plain-float bound and the array oracle evaluate one formula, differing
# only in summation order; 1e-12 allows a few thousand ulps.
ORACLE_RTOL = 1e-12


class TestObjectiveLowerBound:
    @pytest.mark.parametrize("seed", range(60))
    def test_never_exceeds_any_solver_objective(self, seed):
        p = random_problem(seed)
        bound = lower_bound(p)
        lp = solve_lp(p)
        greedy = solve_greedy(p)
        if lp.lp_objective is not None:
            assert bound <= lp.lp_objective * (1 + HIGHS_RTOL)
        # solve_lp returns min(rounded LP, greedy), so this also bounds the
        # rounded-LP objective.
        if lp.feasible:
            assert bound <= lp.objective * (1 + EXACT_RTOL)
        if greedy.feasible:
            assert bound <= greedy.objective * (1 + EXACT_RTOL)

    def test_covers_tight_capacity_and_nonzero_bases(self):
        tight = nonzero = 0
        for seed in range(60):
            p = random_problem(seed)
            tight += bool(p.capacity.max() < p.contexts.sum() * p.total_heads)
            nonzero += bool(p.base_cost.any())
        assert tight >= 10 and nonzero >= 10

    @pytest.mark.parametrize("seed", range(30))
    def test_equals_lp_optimum_for_one_request_under_slack_capacity(self, seed):
        p = random_problem(seed, n_requests=1, slack=True)
        bound = lower_bound(p)
        assert bound == pytest.approx(water_level(p), rel=EXACT_RTOL)
        assert bound == pytest.approx(solve_lp(p).lp_objective, rel=HIGHS_RTOL)

    @pytest.mark.parametrize("seed", range(30))
    def test_batched_rows_bound_their_restricted_problems(self, seed):
        """A bound with usable[k] devices bounds allocations that use only
        those, with the other devices idling at their row-k base."""
        p = random_problem(seed, slack=True)
        rng = np.random.default_rng(1000 + seed)
        usable = rng.random((4, p.n_devices)) < 0.6
        usable[np.arange(4), rng.integers(0, p.n_devices, 4)] = True
        bases = p.base_cost + rng.uniform(0.0, 2e-3, (4, p.n_devices))
        for k in range(4):
            bound = lower_bound(p, bases[k], usable[k])
            keep = usable[k]
            sub = HeadDispatchProblem(
                head_cost=p.head_cost[keep],
                cache_cost=p.cache_cost[keep],
                base_cost=bases[k][keep],
                capacity=p.capacity[keep],
                contexts=p.contexts,
                total_heads=p.total_heads,
                group_size=p.group_size,
            )
            optimum = solve_lp(sub).lp_objective
            idle_base = float(bases[k][~keep].max()) if (~keep).any() else 0.0
            assert bound <= max(optimum, idle_base) * (1 + HIGHS_RTOL)
            assert bound == pytest.approx(max(lower_bound(sub), idle_base), rel=EXACT_RTOL)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_requests=st.integers(1, 40),  # both the every-context and the mean/min/max branch
        n_kinds=st.integers(1, 3),
        group_size=st.sampled_from([1, 8]),
    )
    def test_matches_array_oracle(self, seed, n_requests, n_kinds, group_size):
        """The plain-float bound equals the array formula on problems with
        1-3 kinds of identical device, nonzero bases and unusable devices."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 4, n_kinds)
        head_cost = np.repeat(rng.uniform(1e-6, 5e-5, n_kinds), counts)
        cache_cost = np.repeat(rng.uniform(1e-10, 5e-9, n_kinds), counts)
        n_dev = head_cost.shape[0]
        p = HeadDispatchProblem(
            head_cost=head_cost,
            cache_cost=cache_cost,
            base_cost=rng.uniform(0.0, 5e-3, n_dev),
            capacity=np.full(n_dev, 1e12),
            contexts=rng.integers(16, 60_000, n_requests).astype(float),
            total_heads=group_size * int(rng.integers(1, 9)),
            group_size=group_size,
        )
        usable = rng.random(n_dev) < 0.6
        usable[rng.integers(0, n_dev)] = True
        oracle = numpy_lower_bounds(p, p.base_cost[None, :], usable[None, :])[0]
        assert lower_bound(p, usable=usable) == pytest.approx(oracle, rel=ORACLE_RTOL)

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-4, 2e-4, 5e-4, 1e-3])), min_size=1, max_size=4
        ),
        contexts=st.lists(st.integers(1, 5_000), min_size=1, max_size=40),
    )
    def test_envelope_sum_is_the_pointwise_min(self, lines, contexts):
        """Parallel lines, lines that are never the lowest and ties included."""
        ordered = sorted(contexts)
        prefix = [0]
        for l in ordered:
            prefix.append(prefix[-1] + l)
        pointwise = sum(min(a + c * l for a, c in lines) for l in ordered)
        assert _envelope_sum(lines, ordered, prefix) == pytest.approx(pointwise, rel=ORACLE_RTOL, abs=1e-300)


# -- greedy by count against the one-group-at-a-time loop --------------------------------


def one_group_at_a_time(problem):
    """The oracle: greedy as a loop that places one head group per step.

    Each step scans every device with room for the group and gives it to the
    first one whose load after taking it is lowest.
    """
    if not problem.total_capacity_sufficient():
        empty = np.zeros((problem.n_devices, problem.n_requests))
        return HeadDispatchSolution(empty, float("inf"), method="greedy", feasible=False)
    r = problem.group_size
    n_dev, n_req = problem.n_devices, problem.n_requests
    allocation = np.zeros((n_dev, n_req), dtype=float)
    base_cost, head_cost = problem.base_cost.tolist(), problem.head_cost.tolist()
    cache_cost, capacity = problem.cache_cost.tolist(), problem.capacity.tolist()
    heads_on, cache_on = [0.0] * n_dev, [0.0] * n_dev
    for j in np.argsort(-problem.contexts):
        ctx_r = float(problem.contexts[j]) * r
        need = ctx_r - 1e-9
        for _ in range(problem.total_heads // r):
            best_i, best_load = -1, float("inf")
            for i in range(n_dev):
                if capacity[i] - cache_on[i] < need:
                    continue
                load = base_cost[i] + head_cost[i] * (heads_on[i] + r) + cache_cost[i] * (cache_on[i] + ctx_r)
                if load < best_load:
                    best_load, best_i = load, i
            if best_i < 0:
                empty = np.zeros((n_dev, n_req))
                return HeadDispatchSolution(empty, float("inf"), method="greedy", feasible=False)
            allocation[best_i, j] += r
            heads_on[best_i] += r
            cache_on[best_i] += ctx_r
    return HeadDispatchSolution(allocation, problem.objective(allocation), method="greedy", feasible=True)


def greedy_problem(seed, n_requests, group_size, capacity, costs):
    """A seeded problem with 1-3 kinds of identical device (equal costs, and
    equal bases unless drawn apart, so loads tie).

    ``capacity``: "slack" (10x the demand), "binding" (within 0.95-1.3x of
    the demand, so devices fill partway through a request and some problems
    cannot be placed) or "short" (below the demand).  ``costs``: "positive",
    "zero" (one kind costs nothing), "negative" (some per-head costs below
    zero, so a device's loads fall as it takes groups), "fractional"
    (contexts that are not whole numbers, so running sums round) or
    "infinite" (the last device's base is infinite, so it never takes a
    group, though it has room for all of them).
    """
    rng = np.random.default_rng(seed)
    n_kinds = int(rng.integers(1, 4))
    counts = rng.integers(1, 4, n_kinds)
    head_cost = np.repeat(rng.uniform(1e-6, 5e-5, n_kinds), counts)
    cache_cost = np.repeat(rng.uniform(1e-10, 5e-9, n_kinds), counts)
    n_dev = head_cost.shape[0]
    if costs == "zero":
        head_cost[: counts[0]] = cache_cost[: counts[0]] = 0.0
    if costs == "negative":
        head_cost *= rng.choice([-1.0, 1.0], n_dev)
    draw = rng.integers(0, 3)
    if draw == 0:
        base_cost = np.zeros(n_dev)
    elif draw == 1:
        base_cost = np.repeat(rng.uniform(0.0, 5e-3, n_kinds), counts)
    else:
        base_cost = rng.uniform(0.0, 5e-3, n_dev)
    contexts = rng.integers(16, 6_000, n_requests).astype(float)
    if costs == "fractional":
        contexts += rng.uniform(0.1, 0.9, n_requests)
    heads = group_size * int(rng.integers(1, 9))
    demand = float(contexts.sum()) * heads
    if capacity == "slack":
        cap = np.full(n_dev, 10.0 * demand)
    elif capacity == "binding":
        cap = np.floor(rng.dirichlet(np.ones(n_dev)) * demand * rng.uniform(0.95, 1.3))
    else:
        cap = rng.dirichlet(np.ones(n_dev)) * demand * 0.9
    if costs == "infinite":
        base_cost[-1] = np.inf
        cap[-1] = max(cap[-1], demand)
    return HeadDispatchProblem(head_cost, cache_cost, base_cost, cap, contexts, heads, group_size)


GREEDY_CASES = [
    (capacity, costs, group_size)
    for capacity in ("slack", "binding", "short")
    for costs in ("positive", "zero", "negative", "fractional", "infinite")
    for group_size in (1, 8)
]


class TestGreedyByCount:
    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_requests=st.integers(1, 40),
        case=st.sampled_from(GREEDY_CASES),
    )
    def test_matches_the_one_group_loop(self, seed, n_requests, case):
        capacity, costs, group_size = case
        problem = greedy_problem(seed, n_requests, group_size, capacity, costs)
        expected, got = one_group_at_a_time(problem), solve_greedy(problem)
        assert got.feasible == expected.feasible
        assert got.objective == expected.objective
        assert np.array_equal(got.allocation, expected.allocation)

    def test_sample_reaches_ties_binding_capacity_and_infeasibility(self):
        """The problems above exercise what the parity test claims to cover."""
        seen = Counter()
        for seed in range(8):
            for capacity, costs, group_size in GREEDY_CASES:
                problem = greedy_problem(seed, 1 + seed * 5, group_size, capacity, costs)
                got = solve_greedy(problem)
                if not got.feasible:
                    seen["infeasible"] += problem.total_capacity_sufficient()
                    continue
                slack = HeadDispatchProblem(
                    problem.head_cost, problem.cache_cost, problem.base_cost,
                    np.full(problem.n_devices, np.inf), problem.contexts, problem.total_heads, problem.group_size,
                )
                seen["capacity moved a placement"] += not np.array_equal(solve_greedy(slack).allocation, got.allocation)
                # Two devices of equal costs and base sharing one request's groups broke a tie.
                keys = list(zip(problem.head_cost, problem.cache_cost, problem.base_cost))
                for column in got.allocation.T:
                    placed = [keys[i] for i in np.flatnonzero(column)]
                    seen["tie"] += len(placed) > len(set(placed))
        assert seen["infeasible"] >= 5
        assert seen["capacity moved a placement"] >= 10
        assert seen["tie"] >= 10


# -- the locality certificate's shared context summary ----------------------------------


def fused_lower_bound(head_cost, cache_cost, base_cost, usable, contexts, total_heads):
    """The oracle: :func:`summary_lower_bound` computed in one pass, with no summary."""
    bound = max(base_cost)
    n = len(contexts)
    reps = contexts if n <= 4 else (sum(contexts) / n, min(contexts), max(contexts))
    kinds = {}
    for a, c, b, u in zip(head_cost, cache_cost, base_cost, usable):
        if u:
            kinds.setdefault((a, c), []).append(b)
    counts = [len(bases) for bases in kinds.values()]
    base_sums = [sum(bases) for bases in kinds.values()]
    ordered = sorted(contexts)
    prefix = list(accumulate(ordered, initial=0))
    value = -math.inf
    for l in reps:
        per_head = [a + c * l for a, c in kinds]
        if not all(p > 0 for p in per_head):
            return bound
        inverse = [1.0 / p for p in per_head]
        total = sum(v * k for v, k in zip(inverse, counts))
        weighted_base = sum(v * b for v, b in zip(inverse, base_sums)) / total
        lines = [(v / total * a, v / total * c) for v, (a, c) in zip(inverse, kinds)]
        value = max(value, weighted_base + total_heads * _envelope_sum(lines, ordered, prefix))
    return max(bound, value)


class TestContextSummary:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_requests=st.integers(1, 40),
        n_kinds=st.integers(1, 3),
    )
    def test_every_case_equals_the_one_pass_bound(self, seed, n_requests, n_kinds):
        """One summary, many (bases, usable) cases: each bound is the one-pass bound, bit for bit.

        Kinds interleave in target order, so a case's first usable target
        of each kind need not be the kind's first target.
        """
        rng = np.random.default_rng(seed)
        kind_of = rng.integers(0, n_kinds, int(rng.integers(n_kinds, 8)))
        head = rng.uniform(1e-6, 5e-5, n_kinds)[kind_of].tolist()
        cache = rng.uniform(1e-10, 5e-9, n_kinds)[kind_of].tolist()
        if rng.random() < 0.2:
            head[0], cache[0] = -1e-5, 0.0  # a kind with no positive weight
        contexts = rng.integers(16, 60_000, n_requests).tolist()
        summary = summarize_contexts(head, cache, contexts)
        for _ in range(6):
            usable = (rng.random(len(head)) < 0.6).tolist()
            usable[int(rng.integers(0, len(head)))] = True
            base = rng.uniform(0.0, 5e-3, len(head)).tolist()
            expected = fused_lower_bound(head, cache, base, usable, contexts, 40)
            assert summary_lower_bound(summary, base, usable, 40) == expected
