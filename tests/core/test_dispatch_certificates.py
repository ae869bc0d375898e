"""Parity of the Dispatcher's certified decisions with the solver path.

The certificates (``Dispatcher._local_certified``, ``Dispatcher._certify_ideal``
and the f* floor's ``Dispatcher.floor_certified``) may only skip a solve
whose outcome they prove.  The reference path patches them to answer
"undecided", so every call solves exactly as before they existed; both paths
must return the same decisions, bit for bit.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.dispatcher
from repro.api import run
from repro.config import DeploymentSpec
from repro.core.attention_parallel import HeadSplit
from repro.core.dispatcher import Dispatcher, DispatchTarget
from repro.core.hetis_unit import REDISPATCH_CHECK_INTERVAL, HetisInstanceUnit
from repro.core.redispatch import RedispatchPolicy
from repro.kvcache.head_block_manager import HeadwiseBlockManager
from repro.models.spec import get_model_spec
from repro.perf.attention_model import AttentionTimeModel, DeviceAttentionModel, TransferTimeModel
from repro.solvers.head_dispatch import (
    HeadDispatchProblem,
    _solve_epigraph,
    epigraph_lp,
    solve_greedy,
    solve_lp,
    summarize_contexts,
    summary_lower_bound,
)

from tests.core.test_dispatcher import make_dispatcher
from tests.solvers.test_head_dispatch import fused_lower_bound

THETAS = (0.3, 0.4, 0.5, 0.6, 0.7)  # the Fig. 16a grid


def undecided(monkeypatch):
    monkeypatch.setattr(Dispatcher, "_local_certified", lambda *args: False)
    monkeypatch.setattr(Dispatcher, "_certify_ideal", lambda *args: None)
    monkeypatch.setattr(Dispatcher, "floor_certified", lambda *args: False)


def random_targets(model, rng, profiling_error):
    """A primary plus 1-2 kinds of identical workers.

    Capacities are drawn small enough that some batches exceed the primary's
    or the whole cluster's free cache.
    """
    scale = rng.uniform(0.5, 1.5)
    models = [DeviceAttentionModel(-1, "primary", AttentionTimeModel(a=scale * 1e-5, b=scale * 2e-9, c=1e-4))]
    for kind in range(int(rng.integers(1, 3))):
        speed = rng.uniform(1.5, 4.0)
        compute = AttentionTimeModel(a=speed * 1e-5, b=speed * 2e-9, c=1e-4)
        transfer = TransferTimeModel(gamma=rng.uniform(2e-11, 2e-10), beta=rng.uniform(1e-4, 3e-3))
        for k in range(int(rng.integers(1, 4))):
            device_id = 10 * kind + k
            models.append(DeviceAttentionModel(device_id, f"w{device_id}", compute, transfer, is_remote=True))
    if profiling_error:
        models = [m.with_error(profiling_error, rng) for m in models]
    return [
        DispatchTarget(
            target_id=m.device_id,
            name=m.device_name,
            device_model=m,
            manager=HeadwiseBlockManager(rng.uniform(2e9, 4e10) if i == 0 else rng.uniform(5e8, 1e10), model),
            is_primary=i == 0,
        )
        for i, m in enumerate(models)
    ]


def random_state(model, rng, profiling_error, min_requests=0):
    """:func:`random_targets`, some busy, some idle.

    At least ``min_requests`` resident requests are drawn (fewer may fit).
    """
    targets = random_targets(model, rng, profiling_error)

    # Resident requests on a random subset of targets (the rest stay idle),
    # spread in proportion to speed with a per-state skew: no skew lands near
    # the ideal balance, a large one far from it.
    splits, contexts = {}, {}
    busy = [t for t in targets if rng.random() < 0.7]
    speed = np.array([1.0 / t.device_model.head_coefficient(model) for t in busy])
    skew = rng.choice([0.0, 0.5, 2.0])
    for rid in range(int(rng.integers(min_requests, 12))):
        if not busy:
            break
        ctx = int(rng.integers(100, 12_000))
        groups = model.num_heads // model.gqa_ratio
        weights = speed * np.exp(skew * rng.standard_normal(len(busy)))
        hosts = rng.choice(len(busy), size=groups, p=weights / weights.sum())
        allocation = Counter()
        for h in hosts:
            allocation[busy[h].target_id] += model.gqa_ratio
        if not all(
            t.manager.can_allocate(allocation[t.target_id], ctx) for t in busy if allocation[t.target_id]
        ):
            continue
        for t in busy:
            if allocation[t.target_id]:
                t.manager.allocate(rid, allocation[t.target_id], ctx)
        splits[rid] = HeadSplit(rid, model.num_heads, model.gqa_ratio, dict(allocation))
        contexts[rid] = ctx
    return targets, splits, contexts


def near_threshold_state(model, rng, profiling_error):
    """A :func:`random_state` with two or more resident requests, imbalanced near the theta grid.

    Its current objective is 1.3-1.85x the lower bound on f*.  Between that
    bound and greedy's objective (a few percent apart for several requests)
    only a solve settles the trigger, so some theta in ``THETAS`` is
    undecided there.
    """
    for _ in range(200):
        targets, splits, contexts = random_state(model, rng, profiling_error, min_requests=2)
        if len(splits) < 2:
            continue
        dispatcher = make_dispatcher(model, targets)
        summary = summarize_contexts(dispatcher._head_cost, dispatcher._cache_cost, list(contexts.values()))
        lower = summary_lower_bound(summary, dispatcher._ideal_base, dispatcher._all_usable, model.num_heads)
        if 1.3 <= max(dispatcher.attention_times()) / lower <= 1.85:
            return targets, splits, contexts
    raise AssertionError("no near-threshold state in 200 draws")


def dispatch_key(decision):
    return (
        decision.method,
        decision.feasible,
        decision.objective,
        {rid: split.allocation for rid, split in decision.splits.items()},
    )


def balance_key(decision):
    return (
        decision.action,
        decision.request_id,
        None if decision.new_split is None else decision.new_split.allocation,
    )


@pytest.mark.parametrize("model_name", ["llama-70b", "llama-13b"])
@pytest.mark.parametrize("profiling_error", [0.0, 0.3])
@pytest.mark.parametrize("local_preference", [0.0, 0.15])
@pytest.mark.parametrize("solver", ["lp", "greedy"])
def test_certified_decisions_match_reference(monkeypatch, model_name, profiling_error, local_preference, solver):
    model = get_model_spec(model_name)
    outcomes = Counter()
    real_local, real_ideal = Dispatcher._local_certified, Dispatcher._certify_ideal
    real_floor = Dispatcher.floor_certified

    def record_local(self, *args):
        certified = real_local(self, *args)
        outcomes["local" if certified else "local undecided"] += 1
        return certified

    def record_ideal(self, *args):
        check = real_ideal(self, *args)
        outcomes["undecided" if check is None else ("over" if check.over else "within")] += 1
        return check

    def record_floor(self, *args):
        certified = real_floor(self, *args)
        outcomes["floor" if certified else "floor undecided"] += 1
        return certified

    for seed in range(12):
        rng = np.random.default_rng(seed)
        targets, splits, contexts = random_state(model, rng, profiling_error)
        dispatcher = make_dispatcher(model, targets, solver=solver, local_preference=local_preference)
        batches = [
            [(100 + j, int(rng.integers(50, 4_000))) for j in range(int(rng.integers(1, 4)))],
            [(200 + j, int(rng.integers(2_000, 60_000))) for j in range(int(rng.integers(1, 7)))],
        ]
        near_targets, near_splits, near_contexts = near_threshold_state(model, rng, profiling_error)
        states = [(targets, splits, contexts), (near_targets, near_splits, near_contexts)]

        def balance(dispatcher, splits, contexts, theta):
            return balance_key(RedispatchPolicy(model, dispatcher, theta=theta).check_compute_balance(splits, contexts))

        def decide():
            # Each state is checked at every theta twice: by a fresh Dispatcher,
            # which has no f* floor yet, and by one Dispatcher across the grid,
            # whose floor the earlier checks raised.
            checks = []
            for state_targets, state_splits, state_contexts in states:
                kept = make_dispatcher(model, state_targets, solver=solver, local_preference=local_preference)
                for theta in THETAS:
                    fresh = make_dispatcher(model, state_targets, solver=solver, local_preference=local_preference)
                    checks.append(balance(fresh, state_splits, state_contexts, theta))
                    checks.append(balance(kept, state_splits, state_contexts, theta))
            return [dispatch_key(dispatcher.dispatch_new(batch)) for batch in batches], checks

        with monkeypatch.context() as m:
            m.setattr(Dispatcher, "_local_certified", record_local)
            m.setattr(Dispatcher, "_certify_ideal", record_ideal)
            m.setattr(Dispatcher, "floor_certified", record_floor)
            certified = decide()
        with monkeypatch.context() as m:
            undecided(m)
            reference = decide()
        assert certified == reference, f"seed {seed}"
        outcomes["infeasible"] += sum(not feasible for _method, feasible, *_ in certified[0])

    # The sample must reach every certificate answer and the capacity-bound
    # path, not just the fallbacks.
    assert outcomes["local"] > 0 or local_preference == 0.0
    assert outcomes["local undecided"] > 0
    assert outcomes["within"] > 0 and outcomes["over"] > 0 and outcomes["undecided"] > 0
    assert outcomes["floor"] > 0 and outcomes["floor undecided"] > 0
    assert outcomes["infeasible"] > 0


@pytest.mark.parametrize("model_name", ["llama-70b", "llama-13b"])
def test_wake_case_bounds_equal_the_one_pass_bound(monkeypatch, model_name):
    """Each wake case's bound from the call's shared context summary is the
    one-pass bound of that case (:func:`fused_lower_bound`), bit for bit."""
    model = get_model_spec(model_name)
    cases = []
    per_case = repro.core.dispatcher.summary_lower_bound

    def spy(summary, base, usable, total_heads):
        value = per_case(summary, base, usable, total_heads)
        cases.append((list(base), list(usable), total_heads, value))
        return value

    monkeypatch.setattr(repro.core.dispatcher, "summary_lower_bound", spy)
    woken = Counter()
    for seed in range(16):
        rng = np.random.default_rng(seed)
        targets, _splits, _contexts = random_state(model, rng, 0.0)
        dispatcher = make_dispatcher(model, targets)
        batch = [(100 + j, int(rng.integers(50, 4_000))) for j in range(int(rng.integers(1, 7)))]
        contexts = [ctx for _, ctx in batch]
        idle = [h == 0 for h in dispatcher.loads()[0]]
        start = len(cases)
        dispatcher.dispatch_new(batch)
        for base, usable, total_heads, value in cases[start:]:
            assert value == fused_lower_bound(
                dispatcher._head_cost, dispatcher._cache_cost, base, usable, contexts, total_heads
            )
            woken[sum(u and off for u, off in zip(usable, idle))] += 1
    # Cases that wake none, one and several idle targets.
    assert woken[0] > 0 and woken[1] > 0 and sum(n for k, n in woken.items() if k > 1) > 0


@pytest.mark.parametrize("solver", ["lp", "greedy"])
def test_undecided_reaches_every_solve(monkeypatch, solver):
    """Under :func:`undecided`, every θ check and every batch that fits the Primary solves.

    The parity tests compare the certified path against this one, so a
    shortcut anywhere but behind the certificate seams would stay on in both
    and go unchecked.  A Hetis unit's θ checks are counted from its schedule,
    each ``REDISPATCH_CHECK_INTERVAL``-th committed epoch with requests
    holding cache, not from the calls that happen: a shortcut that skips the
    call, in ``_on_iteration_complete`` or in ``check_compute_balance``,
    fails here too.
    """
    undecided(monkeypatch)
    solved = []
    ideal_solves = [0]
    reached = Counter()
    real_solve, real_solve_ideal = Dispatcher._solve, Dispatcher._solve_ideal
    real_check, real_dispatch = Dispatcher.check_ideal, Dispatcher.dispatch_new
    real_complete = HetisInstanceUnit._on_iteration_complete

    def solve(self, problem):
        solved.append("solve")
        return real_solve(self, problem)

    def solve_ideal(self, problem):
        solved.append("ideal")
        ideal_solves[0] += 1
        return real_solve_ideal(self, problem)

    def check_ideal(self, all_requests, current, theta):
        solved.clear()
        check = real_check(self, all_requests, current, theta)
        if all_requests:
            assert "ideal" in solved
            reached["check"] += 1
        return check

    def dispatch_new(self, requests):
        demand = sum(ctx for _, ctx in requests) * self.model.num_heads
        fits = bool(requests) and demand <= self.primary.free_token_heads + 1e-9
        solved.clear()
        decision = real_dispatch(self, requests)
        if fits:
            assert "solve" in solved
            reached["dispatch"] += 1
        return decision

    def on_iteration_complete(self):
        scheduled = self.enable_redispatch and self.clock.epoch % REDISPATCH_CHECK_INTERVAL == 0 and bool(self._splits)
        before = ideal_solves[0]
        real_complete(self)
        if scheduled:
            assert ideal_solves[0] > before, f"the θ check at epoch {self.clock.epoch} did not solve"
            reached["scheduled"] += 1

    for owner, name, patched in (
        (Dispatcher, "_solve", solve),
        (Dispatcher, "_solve_ideal", solve_ideal),
        (Dispatcher, "check_ideal", check_ideal),
        (Dispatcher, "dispatch_new", dispatch_new),
        (HetisInstanceUnit, "_on_iteration_complete", on_iteration_complete),
    ):
        monkeypatch.setattr(owner, name, patched)

    model = get_model_spec("llama-13b")
    for seed in range(4):
        rng = np.random.default_rng(seed)
        targets, splits, contexts = random_state(model, rng, 0.0)
        dispatcher = make_dispatcher(model, targets, solver=solver)
        dispatcher.dispatch_new([(100 + j, int(rng.integers(50, 4_000))) for j in range(int(rng.integers(1, 4)))])
        for theta in THETAS:
            RedispatchPolicy(model, dispatcher, theta=theta).check_compute_balance(splits, contexts)
    spec = DeploymentSpec().with_overrides(
        {
            "workload.num_requests": 24,
            "workload.seed": 3,
            "workload.dataset": "longbench",
            "workload.request_rate": 4.0,
            "system.options.solver": solver,
        }
    )
    run(spec)
    assert reached["check"] > 0 and reached["dispatch"] > 0 and reached["scheduled"] > 0


@pytest.mark.parametrize("model_name", ["llama-70b", "llama-13b"])
@pytest.mark.parametrize("profiling_error", [0.0, 0.3])
def test_one_request_wake_case_bounds_are_the_one_pass_bound(monkeypatch, model_name, profiling_error):
    """Each wake case of a one-request batch is bounded in closed form.

    The bound agrees with the one-pass bound (:func:`fused_lower_bound`) to 1e-12
    and is at most the case's LP optimum: only the case's usable targets take
    heads, each within its free cache, and the others keep their base.
    """
    model = get_model_spec(model_name)
    cases = []
    closed_form = repro.core.dispatcher.one_request_lower_bound

    def spy(inverse, base, usable, total_heads):
        value = closed_form(inverse, base, usable, total_heads)
        cases.append((list(base), list(usable), value))
        return value

    monkeypatch.setattr(repro.core.dispatcher, "one_request_lower_bound", spy)
    checked = 0
    for seed in range(16):
        rng = np.random.default_rng(seed)
        targets, _splits, _contexts = random_state(model, rng, profiling_error)
        dispatcher = make_dispatcher(model, targets)
        context = int(rng.integers(16, 30_000))
        free = [t.free_token_heads for t in dispatcher.targets]
        start = len(cases)
        dispatcher.dispatch_new([(100, context)])
        for base, usable, value in cases[start:]:
            expected = fused_lower_bound(
                dispatcher._head_cost, dispatcher._cache_cost, base, usable, [context], model.num_heads
            )
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
            kept = [i for i, u in enumerate(usable) if u]
            problem = HeadDispatchProblem(
                [dispatcher._head_cost[i] for i in kept],
                [dispatcher._cache_cost[i] for i in kept],
                [base[i] for i in kept],
                [free[i] for i in kept],
                [context],
                model.num_heads,
                model.gqa_ratio,
            )
            x = _solve_epigraph(epigraph_lp(problem))
            if x is not None:
                assert value <= max(max(base), x[-1]) * (1 + 1e-12)
                checked += 1
    assert checked > 0


def test_non_positive_cost_per_head_bounds_by_the_bases(monkeypatch):
    """A target whose cost per head is 0 has no closed-form weight.

    A one-request batch still takes the closed form: the wake cases that
    leave that target idle get the weighted bound, and those that wake it
    get the largest base, as the one-pass bound does.
    """
    model = get_model_spec("llama-13b")
    rng = np.random.default_rng(0)
    targets = random_targets(model, rng, 0.0)
    free = DeviceAttentionModel(99, "free", AttentionTimeModel(a=0.0, b=0.0, c=1e-4), TransferTimeModel(0.0, 1e-3), True)
    targets.append(DispatchTarget(99, "free", free, HeadwiseBlockManager(4e9, model)))
    cases, calls = [], Counter()
    closed_form = repro.core.dispatcher.one_request_lower_bound

    def spy(inverse, base, usable, total_heads):
        value = closed_form(inverse, base, usable, total_heads)
        cases.append((list(base), list(usable), value))
        return value

    def envelope(*args):
        calls["summary_lower_bound"] += 1
        return real_envelope(*args)

    real_envelope = repro.core.dispatcher.summary_lower_bound
    monkeypatch.setattr(repro.core.dispatcher, "one_request_lower_bound", spy)
    monkeypatch.setattr(repro.core.dispatcher, "summary_lower_bound", envelope)
    dispatcher = make_dispatcher(model, targets)
    certified = dispatch_key(dispatcher.dispatch_new([(1, 500)]))
    assert calls["summary_lower_bound"] == 0
    woken = Counter()
    for base, usable, value in cases:
        expected = fused_lower_bound(dispatcher._head_cost, dispatcher._cache_cost, base, usable, [500], model.num_heads)
        if usable[-1]:
            assert value == expected == max(base)
        else:
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
        woken[usable[-1]] += 1
    assert woken[True] > 0 and woken[False] > 0
    undecided(monkeypatch)
    assert dispatch_key(dispatcher.dispatch_new([(1, 500)])) == certified


@settings(max_examples=80, deadline=None)
@given(
    model_name=st.sampled_from(["llama-13b", "llama-70b"]),  # r = 1 and 8
    profiling_error=st.sampled_from([0.0, 0.3]),
    theta=st.sampled_from(THETAS),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(st.sampled_from(["join", "leave", "grow"]), min_size=1, max_size=24),
)
def test_floor_stays_below_the_ideal_lp(model_name, profiling_error, theta, seed, steps):
    """A Dispatcher's f* floor, driven through joins, leaves and epochs of growth.

    At every step it is at most the HiGHS optimum t of the ideal LP, and
    every θ answer it gives (or, when it cannot, check_ideal gives) is the
    one a second Dispatcher's check_ideal gives, which never reads a floor.
    Once every request has left, the leaves have driven it under its
    rounding guard and it is gone.
    """
    model = get_model_spec(model_name)
    rng = np.random.default_rng(seed)
    targets = random_targets(model, rng, profiling_error)
    kept = make_dispatcher(model, targets)
    floorless = make_dispatcher(model, targets)
    contexts = {}
    for rid, step in enumerate(steps):
        if step == "join":
            contexts[rid] = int(rng.integers(16, 12_000))
        elif step == "leave" and contexts:
            kept.request_left(contexts.pop(int(rng.choice(list(contexts)))))
        elif step == "grow":
            growth = int(rng.integers(1, 500))
            contexts = {r: ctx + growth for r, ctx in contexts.items()}
        if not contexts:
            assert kept._floor is None
            continue
        requests = list(contexts.items())
        x = _solve_epigraph(epigraph_lp(kept._ideal_problem(list(contexts.values()))))
        if x is not None and kept._floor is not None:
            assert kept._floor <= x[-1]
        scale = x[-1] if x is not None else 1e-3
        current = scale * (1 + theta) * float(rng.choice([0.5, 0.9, 1 - 1e-9, 1.0, 1 + 1e-9, 1.1, 2.0]))
        over = False if kept.floor_certified(current, theta) else kept.check_ideal(requests, current, theta).over
        assert over == floorless.check_ideal(requests, current, theta).over


def test_floor_settles_checks_of_a_replay(monkeypatch):
    """In a Hetis replay the floor settles some θ checks and leaves others to check_ideal."""
    answers = Counter()
    real = Dispatcher.floor_certified

    def count(self, current, theta):
        certified = real(self, current, theta)
        answers[certified] += 1
        return certified

    monkeypatch.setattr(Dispatcher, "floor_certified", count)
    run(DeploymentSpec().with_overrides({"workload.num_requests": 24, "workload.seed": 3, "workload.dataset": "longbench"}))
    assert answers[True] > 0 and answers[False] > 0


# Checks near the trigger's threshold, as a multiplier of f* (1 + theta):
# exactly on it, within a hair of it, and well clear of it.
POSITIONS = st.sampled_from([1.0, 1 - 1e-12, 1 + 1e-12, 1 - 1e-9, 1 + 1e-9, 1 - 1e-6, 1 + 1e-6]) | st.floats(0.5, 2.5)


@settings(max_examples=150, deadline=None)
@given(
    model_name=st.sampled_from(["llama-13b", "llama-70b"]),  # r = 1 and 8
    solver=st.sampled_from(["lp", "greedy"]),
    profiling_error=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
    theta=st.sampled_from(THETAS) | st.floats(0.05, 1.0),
    position=POSITIONS,
)
def test_single_request_certificate_is_exact(model_name, solver, profiling_error, seed, theta, position):
    """For one request whose cache fits every target, greedy's objective is f*.

    So the certificate settles the trigger from greedy alone, and agrees
    with the solver, everywhere but within its slack of the threshold.
    """
    model = get_model_spec(model_name)
    rng = np.random.default_rng(seed)
    dispatcher = make_dispatcher(model, random_targets(model, rng, profiling_error), solver=solver)
    n = len(dispatcher.targets)
    context = int(rng.integers(16, 16_000))
    base = (rng.uniform(0.0, 5e-3, n) if rng.random() < 0.7 else np.zeros(n)).tolist()
    capacity = (model.num_heads * context * rng.uniform(1.0, 4.0, n)).tolist()
    problem = dispatcher._build_problem([context], base, capacity)
    assert solve_lp(problem).objective >= solve_greedy(problem).objective * (1 - 1e-12)

    ideal = dispatcher._solve_ideal(problem)
    current = ideal * (1 + theta) * position
    check = dispatcher._certify_ideal([context], base, capacity, current, theta)
    assert check is not None or abs(position - 1) < 1e-8
    assert check is None or check.over == (current > ideal * (1 + theta))


@pytest.mark.parametrize(
    "options, single_request",
    [
        ({"workload.dataset": "longbench", "workload.request_rate": 4.0, "system.options.theta": 0.3}, False),
        (
            {
                "workload.dataset": "sharegpt",
                "workload.request_rate": 8.0,
                "system.options.profiling_error": 0.3,
                "system.options.theta": 0.7,
            },
            False,
        ),
        (
            {
                "workload.dataset": "longbench",
                "workload.request_rate": 4.0,
                "system.options.solver": "greedy",
                "system.options.local_preference": 0.0,
            },
            False,
        ),
        # Checks with one request holding cache, near balance: the lower
        # bound leaves 11 of them open, greedy settles them.
        ({"workload.dataset": "sharegpt", "workload.request_rate": 0.5}, True),
    ],
)
def test_replay_is_bit_identical_to_reference(monkeypatch, options, single_request):
    """A whole Hetis replay, re-dispatches included, matches the solver path."""
    applied = []
    real_apply = HetisInstanceUnit._apply_redispatch

    def count_apply(self, request_id, new_split):
        applied.append((request_id, new_split.allocation))
        return real_apply(self, request_id, new_split)

    monkeypatch.setattr(HetisInstanceUnit, "_apply_redispatch", count_apply)
    single_within = []
    real_ideal = Dispatcher._certify_ideal

    def count_single(self, contexts, base, capacity, current, theta):
        check = real_ideal(self, contexts, base, capacity, current, theta)
        if len(contexts) == 1 and check is not None and not check.over:
            single_within.append(current)
        return check

    monkeypatch.setattr(Dispatcher, "_certify_ideal", count_single)

    def replay():
        applied.clear()
        spec = DeploymentSpec().with_overrides({"workload.num_requests": 24, "workload.seed": 3, **options})
        result = run(spec)
        records = sorted(result.metrics.records, key=lambda r: r.request_id)
        return [(r.request_id, r.finish_time, r.ttft, r.tpot) for r in records], list(applied)

    certified = replay()
    assert single_within or not single_request
    undecided(monkeypatch)
    assert replay() == certified
