"""Tests for the online Dispatcher."""

import pytest

from repro.core.dispatcher import Dispatcher, DispatchTarget
from repro.kvcache.head_block_manager import HeadwiseBlockManager
from repro.models.spec import get_model_spec
from repro.perf.attention_model import AttentionTimeModel, DeviceAttentionModel, TransferTimeModel


@pytest.fixture
def llama70b():
    return get_model_spec("llama-70b")


def make_targets(model, primary_capacity=40e9, worker_capacity=10e9, n_workers=2,
                 primary_speed=1.0, worker_speed=3.0, transfer_beta=1e-3):
    """A fast primary plus slower remote workers with per-head transfer cost."""
    targets = [
        DispatchTarget(
            target_id=-1,
            name="primary",
            device_model=DeviceAttentionModel(
                -1, "primary", AttentionTimeModel(a=primary_speed * 1e-5, b=primary_speed * 2e-9, c=1e-4)
            ),
            manager=HeadwiseBlockManager(primary_capacity, model),
            is_primary=True,
        )
    ]
    for i in range(n_workers):
        targets.append(
            DispatchTarget(
                target_id=i,
                name=f"worker-{i}",
                device_model=DeviceAttentionModel(
                    i,
                    f"worker-{i}",
                    AttentionTimeModel(a=worker_speed * 1e-5, b=worker_speed * 2e-9, c=1e-4),
                    TransferTimeModel(gamma=8e-11, beta=transfer_beta),
                    is_remote=True,
                ),
                manager=HeadwiseBlockManager(worker_capacity, model),
            )
        )
    return targets


def make_dispatcher(model, targets, **kwargs):
    """A Dispatcher over bare ``targets`` that reads h_i and g_i from their managers.

    These tests record every token they place, so the managers' sequences
    are the resident load.
    """

    def manager_loads():
        managers = [t.manager for t in targets]
        return (
            [m.total_query_heads() for m in managers],
            [sum(m.heads_of(s) * m.tokens_of(s) for s in m.sequences()) for m in managers],
        )

    return Dispatcher(model, targets, manager_loads, **kwargs)


class TestConstruction:
    def test_requires_exactly_one_primary(self, llama70b):
        targets = make_targets(llama70b)
        targets[0] = DispatchTarget(
            target_id=-1,
            name="primary",
            device_model=targets[0].device_model,
            manager=targets[0].manager,
            is_primary=False,
        )
        with pytest.raises(ValueError, match="is_primary"):
            make_dispatcher(llama70b, targets)

    def test_invalid_solver(self, llama70b):
        with pytest.raises(ValueError):
            make_dispatcher(llama70b, make_targets(llama70b), solver="simplex")


class TestDispatchNew:
    def test_empty_batch(self, llama70b):
        decision = make_dispatcher(llama70b, make_targets(llama70b)).dispatch_new([])
        assert decision.num_requests == 0

    def test_light_load_stays_on_primary(self, llama70b):
        """The delayed-offload behaviour behind Fig. 14: one small request stays local."""
        dispatcher = make_dispatcher(llama70b, make_targets(llama70b))
        decision = dispatcher.dispatch_new([(1, 300)])
        assert decision.feasible
        split = decision.splits[1]
        assert split.heads_on(-1) == llama70b.num_heads

    def test_splits_respect_integrity_and_group_size(self, llama70b):
        dispatcher = make_dispatcher(llama70b, make_targets(llama70b))
        decision = dispatcher.dispatch_new([(j, 1500) for j in range(8)])
        assert decision.feasible
        for split in decision.splits.values():
            total = sum(split.allocation.values())
            assert total == llama70b.num_heads
            assert all(h % llama70b.gqa_ratio == 0 for h in split.allocation.values())

    def test_offloads_when_primary_capacity_exhausted(self, llama70b):
        targets = make_targets(llama70b, primary_capacity=2e8, worker_capacity=40e9)
        dispatcher = make_dispatcher(llama70b, targets)
        decision = dispatcher.dispatch_new([(j, 4000) for j in range(6)])
        assert decision.feasible
        offloaded = sum(
            split.heads_on(i) for split in decision.splits.values() for i in (0, 1)
        )
        assert offloaded > 0

    def test_infeasible_when_cluster_full(self, llama70b):
        targets = make_targets(llama70b, primary_capacity=1e7, worker_capacity=1e7)
        dispatcher = make_dispatcher(llama70b, targets)
        decision = dispatcher.dispatch_new([(1, 100_000)])
        assert not decision.feasible

    def test_greedy_solver_also_works(self, llama70b):
        dispatcher = make_dispatcher(llama70b, make_targets(llama70b), solver="greedy")
        decision = dispatcher.dispatch_new([(j, 1000) for j in range(4)])
        assert decision.feasible
        assert decision.method in ("greedy", "local")

    def test_heavy_load_uses_workers(self, llama70b):
        """Under heavy load the min-max objective pushes heads to the workers."""
        targets = make_targets(llama70b, transfer_beta=1e-5)
        dispatcher = make_dispatcher(llama70b, targets, local_preference=0.0)
        # Pre-load the primary with lots of resident work.
        targets[0].manager.allocate(999, llama70b.num_heads, 60_000)
        decision = dispatcher.dispatch_new([(j, 3000) for j in range(6)])
        assert decision.feasible
        worker_heads = sum(split.heads_on(0) + split.heads_on(1) for split in decision.splits.values())
        assert worker_heads > 0


class TestStateAndObjectives:
    def test_current_objective_tracks_manager_state(self, llama70b):
        targets = make_targets(llama70b)
        dispatcher = make_dispatcher(llama70b, targets)
        empty = max(dispatcher.attention_times())
        targets[0].manager.allocate(1, llama70b.num_heads, 5000)
        assert max(dispatcher.attention_times()) > empty

    def test_check_ideal_no_requests_is_balanced(self, llama70b):
        check = make_dispatcher(llama70b, make_targets(llama70b)).check_ideal([], current=1.0, theta=0.1)
        assert not check.over and check.ideal == 0.0

    def test_check_ideal_positive(self, llama70b):
        dispatcher = make_dispatcher(llama70b, make_targets(llama70b))
        requests = [(1, 2000), (2, 3000)]
        over = dispatcher.check_ideal(requests, current=float("inf"), theta=0.1)
        assert over.over and over.ideal > 0.0
        assert not dispatcher.check_ideal(requests, current=0.0, theta=0.1).over

    def test_free_token_heads_accounting(self, llama70b):
        targets = make_targets(llama70b)
        dispatcher = make_dispatcher(llama70b, targets)
        target = targets[1]
        before = target.free_token_heads
        target.manager.allocate(1, 16, 1000)
        assert target.free_token_heads < before
        heads, token_heads = dispatcher.loads()
        assert heads[1] == 16
        assert token_heads[1] == pytest.approx(16 * 1000)


class TestGreedyFallback:
    """The water-filling fallback must keep serving when the LP cannot."""

    def test_lp_solver_failure_falls_back_to_greedy(self, llama70b, monkeypatch):
        """Force the LP solve to fail: dispatch_new must still produce valid splits."""
        import repro.solvers.head_dispatch as hd

        monkeypatch.setattr(hd, "_solve_epigraph", lambda lp: None)
        dispatcher = make_dispatcher(llama70b, make_targets(llama70b), solver="lp",
                                     local_preference=0.0)
        # Several large requests so the keep-local shortcut does not absorb them.
        decision = dispatcher.dispatch_new([(j, 8000) for j in range(4)])
        assert decision.feasible
        assert decision.method in ("greedy", "local")
        for split in decision.splits.values():
            split.validate()
            assert sum(split.allocation.values()) == llama70b.num_heads

    def test_water_filling_respects_tight_capacity(self, llama70b):
        """With workers too small for a full request, the split must straddle
        targets without overcommitting any single one."""
        targets = make_targets(llama70b, primary_capacity=4.0e9, worker_capacity=1.5e9)
        free_before = {t.target_id: t.free_token_heads for t in targets}
        dispatcher = make_dispatcher(llama70b, targets, solver="greedy", local_preference=0.0)
        ctx = 9000
        decision = dispatcher.dispatch_new([(1, ctx), (2, ctx)])
        assert decision.feasible
        assert decision.method in ("greedy", "local")
        used = {t.target_id: 0.0 for t in targets}
        for req_id, split in decision.splits.items():
            split.validate()
            assert sum(split.allocation.values()) == llama70b.num_heads
            for target_id, heads in split.allocation.items():
                assert heads % llama70b.gqa_ratio == 0
                used[target_id] += heads * ctx
        for t in targets:
            assert used[t.target_id] <= free_before[t.target_id] + 1e-6

    def test_greedy_reports_infeasible_when_cluster_full(self, llama70b):
        targets = make_targets(llama70b, primary_capacity=0.2e9, worker_capacity=0.1e9)
        dispatcher = make_dispatcher(llama70b, targets, solver="greedy")
        decision = dispatcher.dispatch_new([(1, 500_000)])
        assert not decision.feasible
        assert not decision.splits
