"""Parity of the continuous-batching core's fast paths against the paths they replace.

The core asks a unit's KV stores for room only when a request's cached token
count sits on a block boundary, and a static unit keeps one lockstep block
table sized by its smallest device.  The reference path undoes both by
monkeypatch: the boundary is every token, so every token is a due event, and
the static table fans every call out to one ``PagedBlockManager`` per device.
Seeded runs on tiny caches must plan the same iterations and give every
request the same outcome either way.

Both units price an iteration through a compiled
:class:`~repro.perf.pipeline_cost.PipelineCost`: stage costs memoized by token
count and computed, like decode Attention, in closed form from per-layout
constants.  A second reference mode prices every iteration the way the units
did before, per request, from a ``BatchProfile`` and a fresh
``RooflineExecutor``; durations and module latencies must match bit for bit.
A run reaches a few hundred token counts; ``tests/perf/test_pipeline_cost.py``
checks the closed form at every one a unit can carry.
"""

from functools import partial
from typing import Dict, List, Sequence

import numpy as np
import pytest

from repro.baselines.hexgen import HexGenSystem
from repro.baselines.splitwise import build_splitwise_system
from repro.baselines.static_tp import StaticTPSystem
from repro.core.hetis_unit import PRIMARY_TARGET_ID, HetisInstanceUnit
from repro.core.system import HetisSystem
from repro.hardware.cluster import ClusterBuilder
from repro.kvcache.block_manager import PagedBlockManager
from repro.models.flops import ZERO_COST, BatchProfile, LayerCostModel, ModuleCost
from repro.models.spec import get_model_spec
from repro.parallel.config import InstanceParallelConfig, StageConfig
from repro.perf.commcost import CommModel, attention_transfer_bytes
from repro.perf.roofline import RooflineExecutor
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


def hexgen_system(limits, model_name, hosts, layers, fractions):
    """TP over mixed GPUs: one stage per host, split by ``fractions`` (``None``: evenly)."""
    builder = ClusterBuilder()
    for host in hosts:
        builder.add_host(host)
    cluster = builder.build()
    model = get_model_spec(model_name)
    devices = iter(cluster.devices)
    stages = [
        StageConfig(devices=[next(devices) for _ in host], num_layers=n, shard_fractions=fracs and list(fracs))
        for host, n, fracs in zip(hosts, layers, fractions)
    ]
    unit = StaticPipelineUnit("hexgen", InstanceParallelConfig(stages=stages), model, cluster, limits=limits)
    return HexGenSystem([unit])


def hetis_system(limits, enable_redispatch):
    cluster = cluster_of("p100", "p100")
    model = get_model_spec("opt-2.7b")
    config = InstanceParallelConfig(
        stages=[StageConfig(devices=cluster.devices[:1], num_layers=model.num_layers)],
        attention_workers=cluster.devices[1:],
    )
    unit = HetisInstanceUnit("hetis", config, model, cluster, limits=limits, enable_redispatch=enable_redispatch)
    return HetisSystem([unit])


def hetis_gqa_system(limits):
    # llama-70b (r = 8) nearly fills two A100s, so requests offload heads to
    # the P100s.  Neither shard runs a multiple of r of a request's 64 heads
    # (33 and 31 of them), so the KV groups it reads are rounded up.
    cluster = ClusterBuilder().add_host("a100", count=2).add_host("p100").add_host("p100").build()
    model = get_model_spec("llama-70b")
    config = InstanceParallelConfig(
        stages=[StageConfig(devices=cluster.devices[:2], num_layers=model.num_layers, shard_fractions=[0.51, 0.49])],
        attention_workers=cluster.devices[2:],
    )
    return HetisSystem([HetisInstanceUnit("hetis", config, model, cluster, limits=limits)])


def seeded_trace(seed: int, n: int, rate: float, prompt_max: int, output_max: int) -> Trace:
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / rate, size=n))
    prompts = rng.integers(100, prompt_max, size=n)
    outputs = rng.integers(20, output_max, size=n)
    return Trace(entries=[TraceEntry(float(t), int(p), int(o)) for t, p, o in zip(times, prompts, outputs)])


def replay(system, trace):
    """Every planned iteration as (unit, prefill ids, decode ids, partial chunks, duration, module times), plus the requests."""
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
                    it.module_times,
                ))
            return it

        unit.next_iteration = recorded
    result = Engine(system).run(trace)
    return iterations, requests, result


def outcomes(requests: Dict[int, Request]) -> Dict[int, tuple]:
    """What each request's run came to.  With the iteration lists, which fix
    every iteration's completion time and decode batch, these pin every token time."""
    return {
        rid: (r.prefill_completion_time, r.finish_time, r.generated_tokens, r.num_preemptions, r.num_redispatches)
        for rid, r in requests.items()
    }


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
    assert outcomes(fast_reqs) == outcomes(ref_reqs)
    assert fast.num_dropped == ref.num_dropped
    assert fast.stranded == 0
    # Every run reaches the slow path: room had to be made on an exhausted cache,
    # by re-dispatching heads (Hetis with re-dispatch) or else by preempting.
    if case == "hetis-redispatch":
        assert sum(u.num_cache_redispatches for u in system.units) > 0
    else:
        assert sum(r.num_preemptions for r in fast_reqs.values()) > 0


# -- the per-request pricing the compiled iteration cost replaced ---------------------


def parent_batch(chunks, decode_requests) -> BatchProfile:
    return BatchProfile(
        prefill_lengths=[c.new_tokens for c in chunks],
        decode_contexts=[r.context_length for r in decode_requests],
        prefill_cached=[c.cached_tokens for c in chunks] if any(c.cached_tokens for c in chunks) else (),
    )


def per_request_prefill_attention(cost_model: LayerCostModel, batch: BatchProfile, heads: int) -> ModuleCost:
    """Sum of ``prefill_attention_cost`` over the batch's prefill slices."""
    costs = (cost_model.prefill_attention_cost(n, heads, batch.cached_for(i)) for i, n in enumerate(batch.prefill_lengths))
    return sum(costs, ZERO_COST)


def per_request_decode_attention(cost_model: LayerCostModel, contexts: Sequence[int], heads: Sequence[int]) -> ModuleCost:
    """Sum of ``decode_attention_cost`` over the requests, in one PagedAttention launch."""
    costs = [cost_model.decode_attention_cost(ctx, h) for ctx, h in zip(contexts, heads) if h > 0]
    if not costs:
        return ZERO_COST
    total = sum(costs, ZERO_COST)
    return ModuleCost(total.flops, 0.0, total.activation_bytes, kernels=1)


def parent_pipeline(unit, executor, comm, batch, decode_in_stages):
    """The dense-pipeline stage loop: duration, MLP and Attention module latency."""
    model, stages = unit.model, unit.config.stages
    cost_model = executor.cost_model
    tokens = batch.total_tokens
    stage_totals: List[float] = []
    max_mlp = max_attn = 0.0
    for stage in stages:
        dense_t = mlp_t = attn_t = 0.0
        for spec, frac in stage.unique_shards():
            heads = max(model.gqa_ratio, int(round(model.num_heads * frac)))
            dense_t = max(dense_t, executor.module_time(cost_model.dense_cost(batch).scaled(frac), spec, tokens))
            mlp_t = max(mlp_t, executor.module_time(cost_model.mlp_cost(tokens).scaled(frac), spec, tokens))
            attn = executor.attention_module_time(per_request_prefill_attention(cost_model, batch, heads), spec)
            if decode_in_stages:
                heads_per_request = [heads] * len(batch.decode_contexts)
                dec = per_request_decode_attention(cost_model, batch.decode_contexts, heads_per_request)
                attn = attn + executor.attention_module_time(dec, spec)
            attn_t = max(attn_t, attn)
        comm_t = 2.0 * comm.tp_allreduce_time(stage.devices, tokens) if stage.tp_degree > 1 else 0.0
        stage_totals.append(stage.num_layers * (dense_t + attn_t + comm_t))
        max_mlp = max(max_mlp, stage.num_layers * mlp_t)
        max_attn = max(max_attn, stage.num_layers * attn_t)
    last = stages[-1]
    lm_head = executor.lm_head_time(last.devices[0].spec, tokens, tp_degree=last.tp_degree)
    handoff = 0.0
    for prev, nxt in zip(stages[:-1], stages[1:]):
        handoff += comm.pipeline_handoff_time(prev.devices[-1], nxt.devices[0], tokens)
    return sum(stage_totals) + lm_head + handoff, max_mlp * len(stages), max_attn * len(stages)


def parent_static_time(unit, executor, comm, chunks, decode_requests):
    duration, mlp, attention = parent_pipeline(unit, executor, comm, parent_batch(chunks, decode_requests), True)
    return duration, {"mlp": mlp, "attention": attention, "iteration": duration}


def parent_hetis_decode_time(unit, executor, decode_requests):
    """Max over dispatch targets of decode Attention (+ transfer), priced per request."""
    if not decode_requests:
        return 0.0
    model, cost_model = unit.model, executor.cost_model
    contexts = [r.context_length for r in decode_requests]
    splits = [unit._splits[r.request_id] for r in decode_requests]
    primary_heads = [s.heads_on(PRIMARY_TARGET_ID) for s in splits]
    primary = 0.0
    if sum(primary_heads):
        for stage in unit.config.stages:
            per_layer = 0.0
            for spec, frac in stage.unique_shards():
                dev_heads = [max(0, int(round(h * frac))) for h in primary_heads]
                cost = per_request_decode_attention(cost_model, contexts, dev_heads)
                per_layer = max(per_layer, executor.attention_module_time(cost, spec))
            primary += stage.num_layers * per_layer
    times = [primary]
    for worker in unit.config.attention_workers:
        heads = [s.heads_on(worker.device_id) for s in splits]
        if sum(heads) == 0:
            continue
        cost = per_request_decode_attention(cost_model, contexts, heads)
        compute = executor.attention_module_time(cost, worker.spec) * model.num_layers
        transfer = model.num_layers * unit.cluster.p2p_time(
            attention_transfer_bytes(model, float(sum(heads)), per_layer=True), unit.config.stages[0].devices[0], worker
        )
        times.append(compute + transfer)
    return max(times)


def parent_hetis_time(unit, executor, comm, chunks, decode_requests):
    dense, mlp, _ = parent_pipeline(unit, executor, comm, parent_batch(chunks, decode_requests), False)
    decode_attn = parent_hetis_decode_time(unit, executor, decode_requests)
    duration = dense + decode_attn
    penalty, unit._pending_penalty = unit._pending_penalty, 0.0
    return duration + penalty, {"mlp": mlp, "attention": decode_attn, "iteration": duration}


def use_parent_pricing(units, monkeypatch) -> None:
    for unit in units:
        executor, comm = RooflineExecutor(unit.model), CommModel(unit.cluster, unit.model)
        price = parent_hetis_time if isinstance(unit, HetisInstanceUnit) else parent_static_time
        monkeypatch.setattr(unit, "_iteration_time", partial(price, unit, executor, comm))


PRICING_CASES = dict(
    CASES,
    **{
        # Four distinct shard fractions; small caches force preemptions.
        "hexgen-asymmetric": (
            lambda: hexgen_system(CHUNKED, "llama2-7b", [["v100", "p100"], ["t4", "p100"]], [18, 14], [(0.6, 0.4), (0.7, 0.3)]),
            (7, 80, 20.0, 3000, 600),
        ),
        # llama-70b (r = 8): the shards run 33, 31, 38 and 26 of a request's 64
        # heads, none a multiple of r, so the KV groups they read round up.
        "hexgen-gqa": (
            lambda: hexgen_system(WHOLE, "llama-70b", [["a100", "a100"], ["a6000", "rtx3090"]], [60, 20], [(0.51, 0.49), (0.6, 0.4)]),
            (9, 40, 8.0, 2000, 400),
        ),
        "hetis-gqa-offload": (lambda: hetis_gqa_system(CHUNKED), (8, 40, 10.0, 2000, 600)),
        # The last stage splits every layer three ways: its shard fraction and
        # the LM head's 1 / TP degree are both 1/3, which no float holds exactly.
        "three-device-last-stage": (
            lambda: hexgen_system(CHUNKED, "llama2-7b", [["v100"], ["rtx3090"] * 3], [14, 18], [None, None]),
            (10, 60, 6.0, 2000, 400),
        ),
    },
)


@pytest.mark.parametrize("case", sorted(PRICING_CASES))
def test_compiled_cost_matches_per_request_pricing(case, monkeypatch):
    build, trace_args = PRICING_CASES[case]
    trace = seeded_trace(*trace_args)
    system = build()
    fast_its, fast_reqs, _ = replay(system, trace)
    reference = build()
    use_parent_pricing(reference.units, monkeypatch)
    ref_its, ref_reqs, _ = replay(reference, trace)

    # Durations and module latencies compare with ==: the compiled cost is exact.
    assert fast_its == ref_its
    assert outcomes(fast_reqs) == outcomes(ref_reqs)
    unit = system.units[0]
    if case == "hexgen-asymmetric":
        assert len(unit.pipeline.fractions) == 4
        assert sum(r.num_preemptions for r in fast_reqs.values()) > 0
    if case == "hexgen-gqa":
        assert all(shard.heads % unit.model.gqa_ratio for shards in unit.pipeline.shards for shard in shards)
    if case == "three-device-last-stage":
        assert unit.config.stages[-1].tp_degree == 3
    if case == "hetis-gqa-offload":
        shares = [share for shares in unit._head_shares_memo.values() for share in shares]
        assert any(slot >= len(unit.pipeline.fractions) for slot, _, _ in shares), "no request offloaded heads"
        assert any(heads % unit.model.gqa_ratio for _, heads, _ in shares), "every share was a multiple of r"
        assert unit.num_redispatches > 0


def recounted_loads(unit: HetisInstanceUnit):
    """h_i and g_i of every dispatch target, recounted from the requests holding cache.

    A running request holds ``cached_tokens`` tokens on each of its targets; a
    partial prefill holds its allocation, which its managers recorded and
    never grew.
    """
    heads = dict.fromkeys(unit._managers, 0)
    token_heads = dict.fromkeys(unit._managers, 0)
    for rid, split in unit._splits.items():
        request = unit._requests[rid]
        for target_id, h in split.allocation.items():
            if request in unit.running:
                cached = unit.cached_tokens(request)
            else:
                cached = unit._managers[target_id].tokens_of(rid)
            heads[target_id] += h
            token_heads[target_id] += h * cached
    return list(heads.values()), list(token_heads.values())


def test_cached_counts_follow_redispatched_placements():
    # A re-dispatch re-allocates a request at its full context length, so the
    # core's cached count must move with it or the block boundaries drift.
    # The managers see tokens only at block starts; the load ledger the
    # dispatcher reads must hold exactly the core's count on every target.
    build, trace_args = CASES["hetis-redispatch"]
    system = build()
    (unit,) = system.units
    complete = unit.complete_iteration
    checked = []

    def checked_complete(iteration, now):
        outcome = complete(iteration, now)
        assert unit.dispatcher.loads() == recounted_loads(unit)
        for req in unit.running:
            cached = unit.cached_tokens(req)
            for target_id in unit._splits[req.request_id].targets():
                assert unit._managers[target_id].tokens_of(req.request_id) <= cached
        checked.append(len(unit.running))
        return outcome

    unit.complete_iteration = checked_complete
    Engine(system).run(seeded_trace(*trace_args))
    assert unit.num_redispatches > 0 and sum(checked) > 0
