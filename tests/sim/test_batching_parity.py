"""Parity of the continuous-batching core's fast path against per-token KV checks.

The core asks a unit's KV stores for room only when a request's cached token
count sits on a block boundary, and a static unit keeps one lockstep block
table sized by its smallest device.  The reference path undoes both by
monkeypatch: the boundary is every token, and the static table fans every
call out to one ``PagedBlockManager`` per device.  Seeded runs on tiny caches
must plan the same iterations and stamp the same token times either way.
"""

from typing import Dict, List

import numpy as np
import pytest

from repro.baselines.splitwise import build_splitwise_system
from repro.baselines.static_tp import StaticTPSystem
from repro.core.hetis_unit import HetisInstanceUnit
from repro.core.system import HetisSystem
from repro.hardware.cluster import ClusterBuilder
from repro.kvcache.block_manager import PagedBlockManager
from repro.models.spec import get_model_spec
from repro.parallel.config import InstanceParallelConfig, StageConfig
from repro.sim.engine import Engine
from repro.sim.request import Request
from repro.sim.scheduler import SchedulerLimits
from repro.sim.units import StaticPipelineUnit
from repro.workloads.trace import Trace, TraceEntry

CHUNKED = SchedulerLimits(max_running_requests=64, max_prefill_tokens_per_iteration=512, prefill_chunk_tokens=384)
WHOLE = SchedulerLimits(max_running_requests=64)


class PerDeviceTable:
    """Reference block table: one manager per device, every call fanned out to all."""

    def __init__(self, device_blocks: List[int], block_size: int) -> None:
        self.managers = [PagedBlockManager(n * block_size, 1.0, block_size) for n in device_blocks]
        self.block_size = block_size
        self.total_blocks = min(m.total_blocks for m in self.managers)

    @property
    def used_blocks(self) -> int:
        return self.managers[0].used_blocks

    @property
    def free_blocks(self) -> int:
        return min(m.free_blocks for m in self.managers)

    def blocks_needed(self, tokens: int) -> int:
        return self.managers[0].blocks_needed(tokens)

    def can_allocate(self, tokens: int) -> bool:
        return all(m.can_allocate(tokens) for m in self.managers)

    def can_append(self, seq_id: int, tokens: int = 1) -> bool:
        return all(m.can_append(seq_id, tokens) for m in self.managers)

    def has_sequence(self, seq_id: int) -> bool:
        return any(m.has_sequence(seq_id) for m in self.managers)

    def allocate(self, seq_id: int, tokens: int) -> None:
        for m in self.managers:
            m.allocate(seq_id, tokens)

    def append(self, seq_id: int, tokens: int = 1) -> None:
        for m in self.managers:
            m.append(seq_id, tokens)

    def free(self, seq_id: int) -> None:
        for m in self.managers:
            if m.has_sequence(seq_id):
                m.free(seq_id)


def use_reference_path(units, monkeypatch) -> None:
    for unit in units:
        monkeypatch.setattr(unit, "block_size", 1)
        if isinstance(unit, StaticPipelineUnit):
            table = PerDeviceTable(list(unit._device_blocks.values()), unit._table.block_size)
            monkeypatch.setattr(unit, "_table", table)


def cluster_of(*gpus):
    builder = ClusterBuilder()
    for gpu in gpus:
        builder.add_host(gpu)
    return builder.build()


def static_system(limits):
    # Two pipeline stages on different GPUs: the devices hold different block counts.
    cluster = cluster_of("p100", "t4")
    model = get_model_spec("llama2-7b")
    p100, t4 = cluster.devices
    config = InstanceParallelConfig(stages=[StageConfig(devices=[p100], num_layers=14),
                                            StageConfig(devices=[t4], num_layers=model.num_layers - 14)])
    return StaticTPSystem(StaticPipelineUnit("static", config, model, cluster, limits=limits))


def splitwise_system(limits):
    # The decode side pipelines a P100 and a T4 (689 vs 2308 blocks).
    return build_splitwise_system(cluster_of("v100", "p100", "t4"), get_model_spec("llama2-7b"), limits)


def hetis_system(limits, enable_redispatch):
    cluster = cluster_of("p100", "p100")
    model = get_model_spec("opt-2.7b")
    config = InstanceParallelConfig(
        stages=[StageConfig(devices=cluster.devices[:1], num_layers=model.num_layers)],
        attention_workers=cluster.devices[1:],
    )
    unit = HetisInstanceUnit("hetis", config, model, cluster, limits=limits, enable_redispatch=enable_redispatch)
    return HetisSystem([unit])


def seeded_trace(seed: int, n: int, rate: float, prompt_max: int, output_max: int) -> Trace:
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / rate, size=n))
    prompts = rng.integers(100, prompt_max, size=n)
    outputs = rng.integers(20, output_max, size=n)
    return Trace(entries=[TraceEntry(float(t), int(p), int(o)) for t, p, o in zip(times, prompts, outputs)])


def replay(system, trace):
    """Every planned iteration as (unit, prefill ids, decode ids, partial chunks, duration), plus the requests."""
    iterations: List[tuple] = []
    requests: Dict[int, Request] = {}
    for unit in system.units:
        plan = unit.next_iteration

        def recorded(now, unit=unit, plan=plan):
            it = plan(now)
            if it is not None:
                for req in it.prefill_requests + it.decode_requests + [c.request for c in it.partial_prefills]:
                    requests[req.request_id] = req
                iterations.append((
                    unit.name,
                    [r.request_id for r in it.prefill_requests],
                    [r.request_id for r in it.decode_requests],
                    [(c.request.request_id, c.new_tokens, c.cached_tokens) for c in it.partial_prefills],
                    it.duration,
                ))
            return it

        unit.next_iteration = recorded
    result = Engine(system).run(trace)
    return iterations, requests, result


CASES = {
    "static-whole": (lambda: static_system(WHOLE), (1, 60, 4.0, 1500, 400)),
    "static-chunked": (lambda: static_system(CHUNKED), (2, 60, 4.0, 1500, 400)),
    "splitwise-whole": (lambda: splitwise_system(WHOLE), (3, 60, 4.0, 1500, 400)),
    "splitwise-chunked": (lambda: splitwise_system(CHUNKED), (4, 60, 4.0, 1500, 400)),
    "hetis-redispatch": (lambda: hetis_system(CHUNKED, True), (6, 40, 10.0, 2000, 600)),
    "hetis-lifo": (lambda: hetis_system(WHOLE, False), (5, 24, 8.0, 3000, 600)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fast_path_matches_per_token_per_device_checks(case, monkeypatch):
    build, trace_args = CASES[case]
    system = build()
    trace = seeded_trace(*trace_args)
    fast_its, fast_reqs, fast = replay(system, trace)
    reference = build()
    use_reference_path(reference.units, monkeypatch)
    ref_its, ref_reqs, ref = replay(reference, trace)

    assert fast_its == ref_its
    assert sorted(fast_reqs) == sorted(ref_reqs)
    for rid, req in fast_reqs.items():
        assert req.token_times == ref_reqs[rid].token_times, rid
    assert fast.num_dropped == ref.num_dropped
    # Every run reaches the slow path: room had to be made on an exhausted cache,
    # by re-dispatching heads (Hetis with re-dispatch) or else by preempting.
    if case == "hetis-redispatch":
        assert sum(u.num_cache_redispatches for u in system.units) > 0
    else:
        assert sum(r.num_preemptions for r in fast_reqs.values()) > 0


def test_cached_counts_follow_redispatched_placements():
    # A re-dispatch re-allocates a request at its full context length, so the
    # core's cached count must move with it or the block boundaries drift.
    build, trace_args = CASES["hetis-redispatch"]
    system = build()
    (unit,) = system.units
    complete = unit.complete_iteration
    checked = []

    def checked_complete(iteration, now):
        outcome = complete(iteration, now)
        for req, cached in unit.running.items():
            for target_id in unit._splits[req.request_id].targets():
                assert unit._managers[target_id].tokens_of(req.request_id) == cached
        checked.append(len(unit.running))
        return outcome

    unit.complete_iteration = checked_complete
    Engine(system).run(seeded_trace(*trace_args))
    assert unit.num_redispatches > 0 and sum(checked) > 0
