"""Tests for the min-max head-dispatching solvers."""

import numpy as np
import pytest

from repro.solvers.head_dispatch import (
    HeadDispatchProblem,
    objective_lower_bound,
    objective_lower_bounds,
    round_to_groups,
    solve_greedy,
    solve_lp,
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


# HiGHS meets its constraint rows to an absolute tolerance (~1e-7), which at
# objective values of 1e-5..1e-2 s leaves its reported optimum up to ~4e-5
# below the exact one; integral objectives are evaluated exactly.
HIGHS_RTOL = 1e-4
EXACT_RTOL = 1e-12


class TestObjectiveLowerBound:
    @pytest.mark.parametrize("seed", range(60))
    def test_never_exceeds_any_solver_objective(self, seed):
        p = random_problem(seed)
        bound = objective_lower_bound(p)
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
        bound = objective_lower_bound(p)
        assert bound == pytest.approx(water_level(p), rel=EXACT_RTOL)
        assert bound == pytest.approx(solve_lp(p).lp_objective, rel=HIGHS_RTOL)

    @pytest.mark.parametrize("seed", range(30))
    def test_batched_rows_bound_their_restricted_problems(self, seed):
        """Row k bounds allocations that use only usable[k] devices, with the
        other devices idling at their row-k base."""
        p = random_problem(seed, slack=True)
        rng = np.random.default_rng(1000 + seed)
        usable = rng.random((4, p.n_devices)) < 0.6
        usable[np.arange(4), rng.integers(0, p.n_devices, 4)] = True
        bases = p.base_cost + rng.uniform(0.0, 2e-3, (4, p.n_devices))
        bounds = objective_lower_bounds(p, bases, usable)
        for k in range(4):
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
            assert bounds[k] <= max(optimum, idle_base) * (1 + HIGHS_RTOL)
            assert bounds[k] == pytest.approx(max(objective_lower_bound(sub), idle_base), rel=EXACT_RTOL)
