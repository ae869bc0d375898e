"""Tests for the re-dispatching policy (compute balance + cache balance)."""

import pytest

from repro.core.attention_parallel import HeadSplit
from repro.core.dispatcher import DispatchDecision
from repro.core.redispatch import RedispatchAction, RedispatchPolicy
from repro.models.spec import get_model_spec

from tests.core.test_dispatcher import make_dispatcher, make_targets


@pytest.fixture
def llama70b():
    return get_model_spec("llama-70b")


def make_policy(model, theta=0.5, **target_kwargs):
    targets = make_targets(model, **target_kwargs)
    dispatcher = make_dispatcher(model, targets, local_preference=0.0)
    return RedispatchPolicy(model, dispatcher, theta=theta), targets, dispatcher


def place(targets, model, splits_spec):
    """Materialise request placements in the managers and return split objects."""
    splits = {}
    for rid, (alloc, ctx) in splits_spec.items():
        for target_id, heads in alloc.items():
            if heads > 0:
                target = next(t for t in targets if t.target_id == target_id)
                target.manager.allocate(rid, heads, ctx)
        splits[rid] = HeadSplit(
            request_id=rid, total_heads=model.num_heads, group_size=model.gqa_ratio, allocation=alloc
        )
    return splits


def test_theta_validation(llama70b):
    policy, *_ = make_policy(llama70b)
    with pytest.raises(ValueError):
        RedispatchPolicy(llama70b, policy.dispatcher, theta=0.0)


class TestComputeBalance:
    def test_no_requests_no_action(self, llama70b):
        policy, *_ = make_policy(llama70b)
        decision = policy.check_compute_balance({}, {})
        assert decision.action == RedispatchAction.NONE

    def test_balanced_state_no_action(self, llama70b):
        policy, targets, _ = make_policy(llama70b)
        splits = place(targets, llama70b, {1: ({-1: 64}, 500)})
        decision = policy.check_compute_balance(splits, {1: 500})
        assert decision.action == RedispatchAction.NONE

    def test_imbalanced_long_request_triggers_redispatch(self, llama70b):
        # Everything piled on a slow worker while the primary idles: way past theta.
        policy, targets, _ = make_policy(
            llama70b, worker_speed=5.0, transfer_beta=1e-6, worker_capacity=60e9
        )
        splits = place(
            targets,
            llama70b,
            {
                1: ({0: 64}, 20_000),
                2: ({0: 64}, 15_000),
            },
        )
        contexts = {1: 20_000, 2: 15_000}
        decision = policy.check_compute_balance(splits, contexts)
        assert decision.action == RedispatchAction.REDISPATCH
        assert decision.request_id in (1, 2)
        assert decision.new_split is not None
        # The new placement moves load off the bottleneck worker.
        assert decision.new_split.heads_on(0) < 64

    def test_victim_is_largest_contributor_on_bottleneck(self, llama70b):
        policy, targets, _ = make_policy(
            llama70b, worker_speed=5.0, transfer_beta=1e-6, worker_capacity=60e9
        )
        splits = place(
            targets,
            llama70b,
            {
                1: ({0: 64}, 25_000),   # the big one
                2: ({0: 64}, 5_000),
            },
        )
        decision = policy.check_compute_balance(splits, {1: 25_000, 2: 5_000})
        if decision.action == RedispatchAction.REDISPATCH:
            assert decision.request_id == 1


class TestCacheBalance:
    def test_no_request_on_exhausted_device(self, llama70b):
        policy, targets, _ = make_policy(llama70b)
        splits = place(targets, llama70b, {1: ({-1: 64}, 500)})
        decision = policy.handle_cache_exhaustion(0, splits, {1: 500}, [1])
        assert decision.action == RedispatchAction.NONE

    def test_redispatch_when_cluster_has_room(self, llama70b):
        policy, targets, _ = make_policy(
            llama70b, worker_capacity=2e9, primary_capacity=60e9, transfer_beta=1e-6
        )
        splits = place(targets, llama70b, {1: ({0: 64}, 2000), 2: ({0: 64}, 2500)})
        contexts = {1: 2000, 2: 2500}
        decision = policy.handle_cache_exhaustion(0, splits, contexts, [1, 2])
        assert decision.action == RedispatchAction.REDISPATCH
        # Modified LIFO: the most recently admitted request on the device.
        assert decision.request_id == 2

    def test_preempt_when_no_capacity_anywhere(self, llama70b, monkeypatch):
        # Both workers are full and the Primary is half full, so the free
        # space is half the victim's demand.  The victim's own blocks do not
        # count: a re-dispatch places it before releasing them.
        policy, targets, dispatcher = make_policy(
            llama70b, worker_capacity=1e8, primary_capacity=1e8
        )
        manager = targets[0].manager
        ctx = manager.total_blocks // (llama70b.num_heads // llama70b.gqa_ratio) * manager.block_size
        contexts = {1: ctx // 2, 2: ctx, 3: ctx}
        splits = place(
            targets, llama70b, {1: ({-1: 64}, ctx // 2), 2: ({1: 64}, ctx), 3: ({0: 64}, ctx)}
        )
        demand = llama70b.num_heads * ctx
        assert 0 < sum(t.free_token_heads for t in targets) < demand
        monkeypatch.setattr(dispatcher, "dispatch_single", lambda *_: pytest.fail("dispatched without room"))
        decision = policy.handle_cache_exhaustion(0, splits, contexts, [1, 2, 3])
        assert decision.action == RedispatchAction.PREEMPT
        assert decision.request_id == 3
        assert decision.reason == "no cluster-wide cache capacity remaining"


class TestRedispatchReasons:
    """Why a triggered re-dispatch moved nothing: no placement, or the current one."""

    def test_current_placement_is_unchanged_not_infeasible(self, llama70b):
        # The trigger's f* spreads the request over equally fast workers, but
        # waking one costs beta = 1 s, so the dispatcher keeps it local.
        policy, targets, dispatcher = make_policy(llama70b, worker_speed=1.0, transfer_beta=1.0)
        splits = place(targets, llama70b, {1: ({-1: 64}, 30_000)})
        contexts = {1: 30_000}
        current = max(dispatcher.attention_times())
        assert dispatcher.check_ideal(list(contexts.items()), current, policy.theta).over
        decision = policy.check_compute_balance(splits, contexts)
        assert decision.action == RedispatchAction.NONE
        assert decision.reason == "placement unchanged"

    def test_no_placement_is_infeasible(self, llama70b, monkeypatch):
        policy, targets, dispatcher = make_policy(
            llama70b, worker_speed=5.0, transfer_beta=1e-6, worker_capacity=60e9
        )
        splits = place(targets, llama70b, {1: ({0: 64}, 20_000), 2: ({0: 64}, 15_000)})
        contexts = {1: 20_000, 2: 15_000}
        monkeypatch.setattr(
            dispatcher, "dispatch_single", lambda *_: DispatchDecision(feasible=False, objective=float("inf"))
        )
        decision = policy.check_compute_balance(splits, contexts)
        assert decision.action == RedispatchAction.NONE
        assert decision.reason == "re-dispatch infeasible"
        decision = policy.handle_cache_exhaustion(0, splits, contexts, [1, 2])
        assert decision.action == RedispatchAction.PREEMPT
        assert decision.reason == "re-dispatch infeasible despite free capacity"
