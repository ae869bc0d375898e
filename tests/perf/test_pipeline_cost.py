"""The compiled iteration cost's closed form against the cost-model call chain it replaced.

:class:`~repro.perf.pipeline_cost.PipelineCost` prices a token count, a
prefill chunk list and decode Attention by arithmetic on constants its layout
fixes.  The references below are the call chains it replaced, built from
public calls: ``LayerCostModel`` module costs through
``RooflineExecutor.module_time`` / ``attention_module_time``, and
``CommModel``'s all-reduce and hand-off times.  Prices compare with ``==`` at
every token count a unit can carry.

The layouts cover what the closed form must get bit for bit: the benchmark's
layouts, a three-device stage (its shard fraction and 1 / TP degree, 1/3, are
inexact), asymmetric fractions on a model with an ungated MLP and a TP ring
across hosts, and GQA shards whose head counts are not multiples of r.
"""

from typing import Callable, Dict, Tuple

import numpy as np
import pytest

from repro import api
from repro.config import DeploymentSpec
from repro.hardware.cluster import ClusterBuilder
from repro.hardware.gpu import get_gpu_spec
from repro.models.flops import LayerCostModel
from repro.models.spec import MODEL_CATALOG, get_model_spec
from repro.parallel.config import InstanceParallelConfig, StageConfig
from repro.perf.commcost import CommModel, hidden_state_bytes
from repro.perf.pipeline_cost import PipelineCost, TokenTerms
from repro.perf.roofline import RooflineExecutor
from repro.sim.scheduler import SchedulerLimits

# Scaling a per-token coefficient by the token count is exact while the
# product stays below 2**53; twice the default iteration cap, 8,448 tokens.
EXACT_TOKENS = 16_384


def built(system: str, cluster: str, dataset: str = "sharegpt", rate: float = 2.0) -> Tuple[PipelineCost, SchedulerLimits]:
    """The pipeline and limits of the unit ``api.build`` makes for llama-13b."""
    spec = DeploymentSpec.from_dict({
        "model": "llama-13b", "system": {"name": system}, "cluster": {"kind": cluster},
        "workload": {"dataset": dataset, "request_rate": rate},
    })
    (unit,) = api.build(spec).system.units
    return unit.pipeline, unit.policy.limits


def pipeline_of(model_name: str, hosts, stages) -> Tuple[PipelineCost, SchedulerLimits]:
    """A pipeline over a fresh cluster of ``hosts`` (GPU type names per host).

    ``stages`` holds ``(devices, layers, shard fractions)`` per stage; each
    stage takes the next ``devices`` GPUs in host order.
    """
    builder = ClusterBuilder()
    for host in hosts:
        builder.add_host(host)
    cluster = builder.build()
    model = get_model_spec(model_name)
    devices = iter(cluster.devices)
    config = InstanceParallelConfig(stages=[
        StageConfig(devices=[next(devices) for _ in range(count)], num_layers=layers, shard_fractions=fractions)
        for count, layers, fractions in stages
    ])
    return PipelineCost(config, RooflineExecutor(model), CommModel(cluster, model)), SchedulerLimits()


LAYOUTS: Dict[str, Callable[[], Tuple[PipelineCost, SchedulerLimits]]] = {
    # The benchmark's layouts: static-tp on the small cluster, Hetis's
    # Primary on the paper cluster, and the fleet's two replica kinds.
    "perfbench-static": lambda: built("static-tp", "small", "humaneval", 12.0),
    "perfbench-hetis": lambda: built("hetis", "paper"),
    "perfbench-fleet-a100": lambda: built("static-tp", "a100:2", rate=20.0),
    "perfbench-fleet-rtx3090": lambda: built("static-tp", "rtx3090:2", rate=20.0),
    # The last stage runs a third of every layer on each of three GPUs.
    "three-device-last-stage": lambda: pipeline_of(
        "llama2-7b", [["v100"], ["rtx3090"] * 3], [(1, 14, None), (3, 18, None)]
    ),
    # opt-30b's MLP has two matrices; the second stage's ring crosses hosts.
    "opt-30b-asymmetric": lambda: pipeline_of(
        "opt-30b", [["a100", "v100"], ["a6000"], ["rtx3090"]], [(2, 28, [0.6, 0.4]), (2, 20, [0.7, 0.3])]
    ),
    # llama-70b (r = 8): the shards run 33, 31, 38 and 26 of 64 heads.
    "llama-70b-gqa": lambda: pipeline_of(
        "llama-70b", [["a100", "a100"], ["a6000", "rtx3090"]], [(2, 60, [0.51, 0.49]), (2, 20, [0.6, 0.4])]
    ),
}


def reference_terms(pipeline: PipelineCost, executor: RooflineExecutor, comm: CommModel, tokens: int) -> TokenTerms:
    """The token-count terms through the cost-model call chain."""
    cost_model, stages = executor.cost_model, pipeline.config.stages
    dense, mlp = cost_model.dense_cost(tokens), cost_model.mlp_cost(tokens)
    per_stage = []
    max_mlp = 0.0
    for stage in stages:
        dense_t = mlp_t = 0.0
        for spec, frac in stage.unique_shards():
            dense_t = max(dense_t, executor.module_time(dense.scaled(frac), spec, tokens))
            mlp_t = max(mlp_t, executor.module_time(mlp.scaled(frac), spec, tokens))
        comm_t = 2.0 * comm.tp_allreduce_time(stage.devices, tokens) if stage.tp_degree > 1 else 0.0
        per_stage.append((stage.num_layers, dense_t, comm_t))
        max_mlp = max(max_mlp, stage.num_layers * mlp_t)
    last = stages[-1]
    lm_head = executor.lm_head_time(last.devices[0].spec, tokens, tp_degree=last.tp_degree)
    handoff = 0.0
    for prev, nxt in zip(stages[:-1], stages[1:]):
        handoff += comm.pipeline_handoff_time(prev.devices[-1], nxt.devices[0], tokens)
    return TokenTerms(tuple(per_stage), max_mlp * len(stages), lm_head, handoff)


def reference_decode_attention(executor: RooflineExecutor, spec, head_context: int, group_context: int, heads: int) -> float:
    cost = executor.cost_model.decode_attention_from_sums(head_context, group_context, heads)
    return executor.attention_module_time(cost, spec)


def reference_iteration(pipeline, executor, comm, chunks, num_decode, decode_context):
    """``PipelineCost.iteration`` with every term through the call chain."""
    tokens = num_decode + sum(new_tokens for new_tokens, _ in chunks)
    stage_terms, mlp, lm_head, handoff = reference_terms(pipeline, executor, comm, tokens)
    totals = []
    max_attention = 0.0
    for (layers, dense, comm_t), shards in zip(stage_terms, pipeline.shards):
        attention = 0.0
        for shard in shards:
            t = 0.0
            if chunks:
                cost = executor.cost_model.prefill_chunks_cost(chunks, shard.heads)
                t = executor.attention_module_time(cost, shard.spec)
            if decode_context is not None and num_decode > 0:
                t += reference_decode_attention(
                    executor, shard.spec, shard.heads * decode_context, shard.groups * decode_context,
                    shard.heads * num_decode,
                )
            attention = max(attention, t)
        totals.append(layers * (dense + attention + comm_t))
        max_attention = max(max_attention, layers * attention)
    return sum(totals) + lm_head + handoff, mlp, max_attention * len(totals)


def references(pipeline: PipelineCost) -> Tuple[RooflineExecutor, CommModel]:
    """A fresh executor and comm model for the pipeline's model and cluster."""
    model = pipeline.executor.model
    return RooflineExecutor(model), CommModel(pipeline.comm.cluster, model)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_token_terms_match_the_call_chain_at_every_token_count(layout):
    pipeline, limits = LAYOUTS[layout]()
    executor, comm = references(pipeline)
    top = limits.max_prefill_tokens_per_iteration + limits.max_running_requests
    assert top >= 8448
    mismatched = [n for n in range(top + 1) if pipeline._compile(n) != reference_terms(pipeline, executor, comm, n)]
    assert not mismatched, f"{len(mismatched)} of {top + 1} token counts differ, first {mismatched[:5]}"


def test_layouts_cover_inexact_fractions_and_unaligned_heads():
    pipeline, _ = LAYOUTS["three-device-last-stage"]()
    assert pipeline.config.stages[-1].tp_degree == 3 and pipeline.fractions[-1] == 1 / 3
    pipeline, _ = LAYOUTS["opt-30b-asymmetric"]()
    assert not pipeline.executor.model.gated_mlp and len(pipeline.fractions) == 4
    assert len({d.host_id for d in pipeline.config.stages[-1].devices}) == 2
    pipeline, _ = LAYOUTS["llama-70b-gqa"]()
    r = pipeline.executor.model.gqa_ratio
    assert all(shard.heads % r for shards in pipeline.shards for shard in shards)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_iterations_match_the_call_chain(layout):
    pipeline, _ = LAYOUTS[layout]()
    executor, comm = references(pipeline)
    rng = np.random.default_rng(7)
    for _ in range(200):
        chunks = [
            (int(rng.integers(1, 2048)), int(rng.integers(0, 4096)) * int(rng.integers(0, 2)))
            for _ in range(int(rng.integers(0, 4)))
        ]
        num_decode = int(rng.integers(0, 256))
        decode_context = None if rng.integers(0, 4) == 0 else num_decode * int(rng.integers(1, 4096))
        expected = reference_iteration(pipeline, executor, comm, chunks, num_decode, decode_context)
        assert pipeline.iteration(chunks, num_decode, decode_context) == expected, (chunks, num_decode, decode_context)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_decode_attention_matches_the_executor(layout):
    pipeline, _ = LAYOUTS[layout]()
    executor, _ = references(pipeline)
    model = executor.model
    r = model.gqa_ratio
    specs = {shard.spec for shards in pipeline.shards for shard in shards}
    specs |= {get_gpu_spec(name) for name in ("p100", "t4")}
    rng = np.random.default_rng(11)
    grid = [
        (heads * context, -(-heads // r) * context * count, heads * count)
        for heads in (0, 1, r - 1, r, r + 1, 33, model.num_heads, 12_345)
        for context in (0, 1, 17, 4096, 131_071)
        for count in (1, 3)
    ]
    grid += [tuple(int(x) for x in rng.integers(0, 10**7, size=3)) for _ in range(200)]
    grid += [(0, 0, 0), (5, 5, 0), (0, 0, 1)]
    for spec in sorted(specs, key=lambda s: s.name):
        for sums in grid:
            assert pipeline.decode_attention_time(spec, *sums) == reference_decode_attention(executor, spec, *sums), (spec.name, sums)

    # Through every stage, each shard reading its slot's ledger sums at a decode epoch.
    plan = pipeline.decode_plan()
    for _ in range(50):
        ledger = [tuple(int(x) for x in rng.integers(0, 10**6, size=4)) for _ in pipeline.fractions]
        epoch = int(rng.integers(0, 4096))
        expected = 0.0
        for stage, shards in zip(pipeline.config.stages, pipeline.shards):
            per_layer = 0.0
            for shard in shards:
                head_base, group_base, heads, groups = ledger[shard.slot]
                sums = (head_base + epoch * heads, group_base + epoch * groups, heads)
                per_layer = max(per_layer, reference_decode_attention(executor, shard.spec, *sums))
            expected += stage.num_layers * per_layer
        assert plan.primary_time(ledger, epoch) == expected


@pytest.mark.parametrize("name", sorted(MODEL_CATALOG))
def test_per_token_coefficients_scale_exactly(name):
    # The closed form scales each per-token coefficient by the token count;
    # the call chain builds the same product from integer factors.  Both are
    # exact, hence equal, while every product stays below 2**53.
    model = get_model_spec(name)
    cost_model = LayerCostModel(model)
    coefficients = [hidden_state_bytes(model, 1)]
    for cost_of in (cost_model.dense_cost, cost_model.mlp_cost, cost_model.lm_head_cost):
        per_token = cost_of(1)
        coefficients += [per_token.flops, per_token.activation_bytes]
        for tokens in (2, 3, 8448, EXACT_TOKENS):
            cost = cost_of(tokens)
            assert cost.flops == tokens * per_token.flops
            assert cost.activation_bytes == tokens * per_token.activation_bytes
            assert cost.weight_bytes == per_token.weight_bytes
    assert all(c == int(c) for c in coefficients)
    assert max(coefficients) * EXACT_TOKENS < 2**53


# Every registered model's Hetis layout on the paper cluster and on the
# snapshot's a100:1,p100:2 (where no layout holds llama-70b or opt-30b).
HETIS_CELLS = [
    (cluster, name)
    for cluster in ("paper", "a100:1,p100:2")
    for name in sorted(MODEL_CATALOG)
    if not (cluster == "a100:1,p100:2" and name in ("llama-70b", "opt-30b"))
]


@pytest.mark.parametrize("cluster, model_name", HETIS_CELLS)
def test_decode_plan_prices_like_the_pipeline(cluster, model_name):
    """The compiled decode plan equals ``PipelineCost.decode_attention_time`` per shard and worker, by ``==``.

    The Primary's price walks the stages, each taking its shards' largest
    per-layer time; a worker's is its per-layer time over every layer.
    Ledgers are random, a third of their slots holding no heads.
    """
    spec = DeploymentSpec.from_dict({
        "model": model_name, "system": {"name": "hetis"}, "cluster": {"kind": cluster},
        "workload": {"dataset": "sharegpt", "request_rate": 2.0},
    })
    rng = np.random.default_rng(13)
    for unit in api.build(spec).system.units:
        pipeline, workers = unit.pipeline, unit.config.attention_workers
        plan = pipeline.decode_plan()
        slots = len(pipeline.fractions) + len(workers)
        for _ in range(200):
            ledger = []
            for _slot in range(slots):
                heads = int(rng.integers(0, 3)) * int(rng.integers(1, 20_000))
                groups = -(-heads // unit.model.gqa_ratio)
                ledger.append((heads * int(rng.integers(1, 20_000)), groups * int(rng.integers(1, 20_000)), heads, groups))
            epoch = int(rng.integers(0, 4096))

            def sums(slot):
                head_base, group_base, heads, groups = ledger[slot]
                return head_base + epoch * heads, group_base + epoch * groups, heads

            expected = 0.0
            for stage, shards in zip(unit.config.stages, pipeline.shards):
                per_layer = 0.0
                for shard in shards:
                    per_layer = max(per_layer, pipeline.decode_attention_time(shard.spec, *sums(shard.slot)))
                expected += stage.num_layers * per_layer
            assert plan.primary_time(ledger, epoch) == expected
            for k, worker in enumerate(workers):
                per_layer = pipeline.decode_attention_time(worker.spec, *sums(len(pipeline.fractions) + k))
                assert plan.worker_time(k, ledger, epoch) == per_layer * unit.model.num_layers
