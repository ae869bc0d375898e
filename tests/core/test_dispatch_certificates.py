"""Parity of the Dispatcher's certified decisions with the solver path.

The certificates (``Dispatcher._local_certified`` and
``Dispatcher._certify_ideal``) may only skip a solve whose outcome they
prove.  The reference path patches them to answer "undecided", so every call
solves exactly as before they existed; both paths must return the same
decisions, bit for bit.
"""

from collections import Counter

import numpy as np
import pytest

from repro.api import quick_serve
from repro.core.attention_parallel import HeadSplit
from repro.core.dispatcher import Dispatcher, DispatchTarget
from repro.core.hetis_unit import HetisInstanceUnit
from repro.core.redispatch import RedispatchPolicy
from repro.kvcache.head_block_manager import HeadwiseBlockManager
from repro.models.spec import get_model_spec
from repro.perf.attention_model import AttentionTimeModel, DeviceAttentionModel, TransferTimeModel

THETAS = (0.3, 0.4, 0.5, 0.6, 0.7)  # the Fig. 16a grid


def undecided(monkeypatch):
    monkeypatch.setattr(Dispatcher, "_local_certified", lambda *args: False)
    monkeypatch.setattr(Dispatcher, "_certify_ideal", lambda *args: None)


def random_state(model, rng, profiling_error):
    """A primary plus 1-2 kinds of identical workers, some busy, some idle.

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
    targets = [
        DispatchTarget(
            target_id=m.device_id,
            name=m.device_name,
            device_model=m,
            manager=HeadwiseBlockManager(rng.uniform(2e9, 4e10) if i == 0 else rng.uniform(5e8, 1e10), model),
            is_primary=i == 0,
        )
        for i, m in enumerate(models)
    ]

    # Resident requests on a random subset of targets (the rest stay idle),
    # spread in proportion to speed with a per-state skew: no skew lands near
    # the ideal balance, a large one far from it.
    splits, contexts = {}, {}
    busy = [t for t in targets if rng.random() < 0.7]
    speed = np.array([1.0 / t.device_model.head_coefficient(model) for t in busy])
    skew = rng.choice([0.0, 0.5, 2.0])
    for rid in range(int(rng.integers(0, 12))):
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

    def record_local(self, *args):
        certified = real_local(self, *args)
        outcomes["local" if certified else "local undecided"] += 1
        return certified

    def record_ideal(self, *args):
        check = real_ideal(self, *args)
        outcomes["undecided" if check is None else ("over" if check.over else "within")] += 1
        return check

    for seed in range(12):
        rng = np.random.default_rng(seed)
        targets, splits, contexts = random_state(model, rng, profiling_error)
        dispatcher = Dispatcher(model, targets, solver=solver, local_preference=local_preference)
        batches = [
            [(100 + j, int(rng.integers(50, 4_000))) for j in range(int(rng.integers(1, 4)))],
            [(200 + j, int(rng.integers(2_000, 60_000))) for j in range(int(rng.integers(1, 7)))],
        ]
        policies = [RedispatchPolicy(model, dispatcher, theta=theta) for theta in THETAS]

        with monkeypatch.context() as m:
            m.setattr(Dispatcher, "_local_certified", record_local)
            m.setattr(Dispatcher, "_certify_ideal", record_ideal)
            certified = (
                [dispatch_key(dispatcher.dispatch_new(batch)) for batch in batches],
                [balance_key(p.check_compute_balance(splits, contexts)) for p in policies],
            )
        with monkeypatch.context() as m:
            undecided(m)
            reference = (
                [dispatch_key(dispatcher.dispatch_new(batch)) for batch in batches],
                [balance_key(p.check_compute_balance(splits, contexts)) for p in policies],
            )
        assert certified == reference, f"seed {seed}"
        outcomes["infeasible"] += sum(not feasible for _method, feasible, *_ in certified[0])

    # The sample must reach every certificate answer and the capacity-bound
    # path, not just the fallbacks.
    assert outcomes["local"] > 0 or local_preference == 0.0
    assert outcomes["local undecided"] > 0
    assert outcomes["within"] > 0 and outcomes["over"] > 0 and outcomes["undecided"] > 0
    assert outcomes["infeasible"] > 0


@pytest.mark.parametrize(
    "options",
    [
        {"dataset": "longbench", "request_rate": 4.0, "theta": 0.3},
        {"dataset": "sharegpt", "request_rate": 8.0, "profiling_error": 0.3, "theta": 0.7},
        {"dataset": "longbench", "request_rate": 4.0, "solver": "greedy", "local_preference": 0.0},
    ],
)
def test_replay_is_bit_identical_to_reference(monkeypatch, options):
    """A whole Hetis replay, re-dispatches included, matches the solver path."""
    applied = []
    real_apply = HetisInstanceUnit._apply_redispatch

    def count_apply(self, request_id, new_split):
        applied.append((request_id, new_split.allocation))
        return real_apply(self, request_id, new_split)

    monkeypatch.setattr(HetisInstanceUnit, "_apply_redispatch", count_apply)

    def replay():
        applied.clear()
        result = quick_serve(system="hetis", num_requests=24, seed=3, **options)
        records = sorted(result.metrics.records, key=lambda r: r.request_id)
        return [(r.request_id, r.finish_time, r.ttft, r.tpot) for r in records], list(applied)

    certified = replay()
    undecided(monkeypatch)
    assert replay() == certified
