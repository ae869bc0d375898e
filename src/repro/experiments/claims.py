"""The paper's evaluation as one table of claims.

Every checked statement of the evaluation -- Table 1, Figs. 2-16, Sec. 7.4 and
the ablations -- is one :class:`Claim` row of :data:`CLAIMS`.  A row names the
study that measures it, the value it reads from that study's data, an operator
and a bound, the paper's value where the paper reports one, and its
provenance:

* ``simulated`` -- the value comes out of the simulator or the analytic cost
  models it runs on;
* ``calibrated`` -- the value is a target the model was tuned to, so the row
  checks the calibration rather than the system.  Table 1 and Fig. 2 are the
  GPU catalog's tuning targets (:mod:`repro.hardware.gpu`), and Fig. 15(b) is
  modelled: its storage ratio is the paper's measurement and its fetch ratio
  is :meth:`~repro.kvcache.head_block_manager.HeadwiseBlockManager.fetch_time_factor`.

:data:`STUDIES` maps each study name to a zero-argument function that returns
its figure's data as a flat ``{name: number}`` mapping.  The serving studies
are spec grids: :func:`sweep` runs ``expand_grid(base, axes)`` over
:func:`serving_spec` through the serial
:class:`~repro.experiments.runner.SweepRunner`.  ``benchmarks/test_claims.py``
runs each study once and checks every row as its own test.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api import build
from repro.config import ClusterSpec, DeploymentSpec, SystemSpec, WorkloadSpec, expand_grid
from repro.core.attention_parallel import (
    batchwise_transfer_overhead,
    headwise_transfer_overhead,
    seqwise_transfer_overhead,
)
from repro.core.parallelizer import Parallelizer, WorkloadHint
from repro.experiments.fig14 import run_dynamic_usage
from repro.experiments.runner import SweepRunner
from repro.hardware.cluster import ClusterBuilder, large_scale_cluster, paper_cluster
from repro.hardware.gpu import get_gpu_spec
from repro.kvcache.head_block_manager import HeadwiseBlockManager
from repro.models.flops import BatchProfile
from repro.models.spec import get_model_spec
from repro.perf.commcost import attention_transfer_bytes
from repro.perf.roofline import RooflineExecutor
from repro.solvers.head_dispatch import HeadDispatchProblem, solve_greedy, solve_lp

Data = Dict[str, float]

MODELS = ("llama-13b", "opt-30b", "llama-70b")
DATASETS = ("sharegpt", "humaneval", "longbench")
BASELINES = ("hexgen", "splitwise")

# Request-rate grids of Figs. 8-10 (req/s), per model and dataset.
PAPER_RATE_GRID: Dict[str, Dict[str, Sequence[float]]] = {
    "llama-13b": {"sharegpt": (3, 6, 9, 12, 15), "humaneval": (15, 30, 45, 60, 75), "longbench": (3, 6, 9)},
    "opt-30b": {"sharegpt": (3, 6, 9, 12), "humaneval": (15, 30, 45), "longbench": (2, 4, 6)},
    "llama-70b": {"sharegpt": (1, 2, 3), "humaneval": (3, 6, 9, 12), "longbench": (0.4, 0.8, 1.2, 1.6)},
}

# Unsaturated rates used for the Fig. 12 / Fig. 13 tail-latency study (Llama-70B).
PAPER_TAIL_RATES: Dict[str, float] = {"sharegpt": 1.5, "humaneval": 6.0, "longbench": 0.8}


def serving_spec(
    system: str,
    model: str,
    dataset: str,
    request_rate: float,
    num_requests: int = 80,
    seed: int = 0,
    cluster_kind: str = "paper",
) -> DeploymentSpec:
    """The :class:`DeploymentSpec` of one (system, model, dataset, rate) cell."""
    return DeploymentSpec(
        model=model,
        system=SystemSpec(name=system),
        cluster=ClusterSpec(kind=cluster_kind),
        workload=WorkloadSpec(
            dataset=dataset,
            request_rate=request_rate,
            num_requests=num_requests,
            seed=seed,
        ),
    )


def sweep(base: DeploymentSpec, axes: Mapping[str, Sequence[Any]]) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """``(overrides, summary row)`` of every point of ``expand_grid(base, axes)``, in grid order.

    The points run serially in-process; a failed point raises, naming its
    override combination.
    """
    out: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
    for res in SweepRunner().run(expand_grid(base, axes)):
        if res.row is None:
            raise RuntimeError(f"sweep point {res.label} failed: {res.error}")
        out.append((res.overrides, res.row))
    return out


# ------------------------------------------------------------------ studies


def _table1() -> Data:
    """Table 1: memory and OPT-2.7B iteration time per GPU type, for one batch of
    3 prefill requests of 512 tokens and one of 25 decode requests at 512 tokens.

    The paper's point is the ratios to the A100: it is 2.45x / 24.5x faster than
    the 3090 / P100 in prefill and 1.47x / 7.93x in decode.  The GPU catalog's
    effective rates (:mod:`repro.hardware.gpu`) were tuned so the roofline
    model reproduces them, so the ratios are calibration targets, and the rows
    check that the calibration still holds.
    """
    devices = ("a100", "rtx3090", "p100")
    executor = RooflineExecutor(get_model_spec("opt-2.7b"))
    prefill_batch = BatchProfile.prefill_only([512] * 3)
    decode_batch = BatchProfile.decode_only([512] * 25)
    specs = [get_gpu_spec(device) for device in devices]
    prefill = [executor.full_model_time(spec, prefill_batch) for spec in specs]
    decode = [executor.full_model_time(spec, decode_batch) for spec in specs]
    data: Data = {}
    for device, spec, p, d in zip(devices, specs, prefill, decode):
        data[f"{device}_memory_gb"] = spec.memory_gb
        data[f"{device}_prefill_s"] = p
        data[f"{device}_decode_s"] = d
        data[f"{device}_prefill_ratio"] = p / prefill[0]
        data[f"{device}_decode_ratio"] = d / decode[0]
    return data


def _module_gaps(num_requests: Sequence[int]) -> Data:
    """Fig. 2: decode MLP and Attention time of one Llama-70B layer, normalized to the
    A100, for ``num_requests`` requests of 1,000 tokens each.

    The MLP gap between high- and low-end GPUs is tens of times, while the
    Attention gap is only a few times: Attention, and only Attention, is worth
    offloading to low-end devices.
    """
    model = get_model_spec("llama-70b")
    executor = RooflineExecutor(model)
    devices = ("p100", "rtx3090", "a100")
    a100 = get_gpu_spec("a100")
    mlp_gaps: Dict[str, List[float]] = {device: [] for device in devices}
    attention_gaps: Dict[str, List[float]] = {device: [] for device in devices}
    for n in num_requests:
        batch = BatchProfile.decode_only([1000] * n)
        heads = [model.num_heads] * n
        ref_mlp = executor.mlp_time(a100, batch)
        ref_attention = executor.decode_attention_time(a100, batch.decode_contexts, heads)
        for device in devices:
            spec = get_gpu_spec(device)
            mlp_gaps[device].append(executor.mlp_time(spec, batch) / ref_mlp)
            attention_gaps[device].append(executor.decode_attention_time(spec, batch.decode_contexts, heads) / ref_attention)
    data: Data = {}
    for device in devices:
        data[f"{device}_mean_mlp_gap"] = sum(mlp_gaps[device]) / len(mlp_gaps[device])
        data[f"{device}_mean_attention_gap"] = sum(attention_gaps[device]) / len(attention_gaps[device])
        for n, gap in zip(num_requests, mlp_gaps[device]):
            data[f"{device}_mlp_at_{n}"] = gap
    return data


def _split_overhead() -> Data:
    """Fig. 5: sequence-wise over head-wise communication overhead per decode step of
    32 Llama-70B requests, from an A100 Primary to P100 workers over 100 Gbps.

    Head-wise splitting ships only the offloaded heads' vectors, so its volume
    follows the offload fraction and shrinks per worker as workers are added.
    Sequence-wise splitting must send every worker the full query vector
    however little load moved, so it pays the full price even at 20% offload;
    its volume per worker does not shrink with more workers, and contention
    grows.
    """
    model = get_model_spec("llama-70b")
    cluster = ClusterBuilder().add_host("a100", 1).add_host("p100", 4).build()
    primary = cluster.devices[0]
    workers = cluster.devices[1:]
    batch = 32
    data: Data = {}
    # (a) One worker, a growing share of the Attention load offloaded.
    seqwise = seqwise_transfer_overhead(model, cluster, primary, workers[:1], batch)
    for pct in (20, 40, 60, 80):
        headwise = headwise_transfer_overhead(model, cluster, primary, workers[:1], model.num_heads * (pct / 100) * batch)
        data[f"advantage_at_{pct}pct_offload"] = seqwise / headwise
    # (b) The whole load spread evenly over k workers.
    for k, label in ((1, "1_worker"), (4, "4_workers")):
        headwise = headwise_transfer_overhead(model, cluster, primary, workers[:k], model.num_heads * batch / k)
        seqwise = seqwise_transfer_overhead(model, cluster, primary, workers[:k], batch)
        data[f"advantage_at_{label}"] = seqwise / headwise
        data[f"headwise_s_at_{label}"] = headwise
    return data


def _r_squared(x: Sequence[float], y: Sequence[float]) -> float:
    """R^2 of the least-squares line through ``(x, y)``."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    pred = np.polyval(np.polyfit(xs, ys, 1), xs)
    return 1.0 - float(np.sum((ys - pred) ** 2)) / float(np.sum((ys - ys.mean()) ** 2))


FIG7_CONTEXTS = (900, 1000, 1100, 1200)
FIG7_HEADS = (15_000, 30_000, 45_000)


def _attention_linearity() -> Data:
    """Fig. 7: OPT-30B decode Attention time on an A100, the three observations the
    online model (Eq. 3) rests on.

    (a) With the total heads (25,000) and the cache per head (1,000 tokens)
    fixed, the time does not depend on how many requests (400-700) hold them.
    (b) With 500 requests of all heads, it is linear in the context (900-1,200).
    (c) With the cache fixed at 800,000 request-tokens, it is linear in the
    number of query heads (15,000-45,000): more requests, each with a
    proportionally shorter context.
    """
    model = get_model_spec("opt-30b")
    spec = get_gpu_spec("a100")
    executor = RooflineExecutor(model)
    by_requests = []
    for n in (400, 500, 600, 700):
        heads_per_request = round(25_000 / n)
        by_requests.append(executor.decode_attention_time(spec, [1000] * n, [heads_per_request] * n))
    by_context = [executor.decode_attention_time(spec, [ctx] * 500, [model.num_heads] * 500) for ctx in FIG7_CONTEXTS]
    by_heads = []
    for total in FIG7_HEADS:
        n = total // model.num_heads
        ctx = round(800_000 / n)
        by_heads.append(executor.decode_attention_time(spec, [ctx] * n, [model.num_heads] * n))
    values = np.asarray(by_requests)
    data: Data = {
        "request_count_variation": float((values.max() - values.min()) / values.mean()),
        "context_linearity_r2": _r_squared(FIG7_CONTEXTS, by_context),
        "heads_linearity_r2": _r_squared(FIG7_HEADS, by_heads),
    }
    data.update({f"time_at_{ctx}_tokens": t for ctx, t in zip(FIG7_CONTEXTS, by_context)})
    data.update({f"time_at_{heads}_heads": t for heads, t in zip(FIG7_HEADS, by_heads)})
    return data


def panel_rates(model: str, dataset: str) -> Sequence[float]:
    """A low / middle / high subset of the paper's rate grid for one panel of Figs. 8-10."""
    grid = PAPER_RATE_GRID[model][dataset]
    return grid if len(grid) <= 3 else (grid[0], grid[len(grid) // 2], grid[-1])


def _latency_vs_rate(model: str) -> Data:
    """Figs. 8-10: mean normalized latency (s/token) per dataset, system and rate; 48 requests, seed 0."""
    data: Data = {}
    for dataset in DATASETS:
        rates = panel_rates(model, dataset)
        axes = {"system.name": ("splitwise", "hexgen", "hetis"), "workload.request_rate": rates}
        for overrides, row in sweep(serving_spec("hetis", model, dataset, rates[0], num_requests=48), axes):
            key = f"{dataset}_{overrides['system.name']}_rate{overrides['workload.request_rate']:g}"
            data[key] = row["mean_normalized_latency"]
    return data


def _cache_space() -> Data:
    """Fig. 11: usable KV-cache space (GB) of each system's deployment per model and
    dataset, and Hetis's over each baseline's on ShareGPT.

    Hetis counts every byte left after weights on the Primary *and* the
    Attention workers, because head-wise placement can put cache anywhere.
    HexGen's pipeline is limited by its bottleneck device (Fig. 1b's
    computation/memory imbalance).  Splitwise counts only its decode instance,
    since the prefill copy's cache is transient, and pays for two full copies
    of the parameters.
    """
    data: Data = {}
    for model in MODELS:
        for dataset in DATASETS:
            for system in ("hetis",) + BASELINES:
                spec = DeploymentSpec(model=model, system=SystemSpec(name=system), workload=WorkloadSpec(dataset=dataset))
                data[f"{model}_{dataset}_{system}_gb"] = build(spec).system.available_cache_bytes() / 1e9
    for model in MODELS:
        for baseline in BASELINES:
            data[f"{model}_sharegpt_hetis_over_{baseline}"] = (
                data[f"{model}_sharegpt_hetis_gb"] / data[f"{model}_sharegpt_{baseline}_gb"]
            )
    return data


def _tail_latency() -> Data:
    """Figs. 12 and 13: P95 TTFT, TPOT and decode module latency of Llama-70B at the paper's
    unsaturated rates; 48 requests, seed 0.

    ``<metric>_wins`` counts the datasets on which Hetis's P95 is within 5% of
    the better baseline's.
    """
    data: Data = {}
    for dataset, rate in PAPER_TAIL_RATES.items():
        base = serving_spec("hetis", "llama-70b", dataset, rate, num_requests=48)
        for overrides, row in sweep(base, {"system.name": ("hetis",) + BASELINES}):
            prefix = f"{dataset}_{overrides['system.name']}_p95"
            data[f"{prefix}_ttft"] = row["p95_ttft"]
            data[f"{prefix}_tpot"] = row["p95_tpot"]
            data[f"{prefix}_mlp"] = row["p95_module_latency"].get("mlp", 0.0)
            data[f"{prefix}_attention"] = row["p95_module_latency"].get("attention", 0.0)
    for metric in ("tpot", "mlp", "attention"):
        data[f"{metric}_wins"] = sum(
            data[f"{d}_hetis_p95_{metric}"] <= min(data[f"{d}_{b}_p95_{metric}"] for b in BASELINES) * 1.05
            for d in PAPER_TAIL_RATES
        )
    return data


def _dynamic_usage() -> Data:
    """Fig. 14: peak heads, peak cache utilization and first load time per device."""
    result = run_dynamic_usage()
    data: Data = {}
    for key in [result.primary_key] + result.worker_keys:
        data[f"{key}_peak_heads"] = result.peak_heads(key)
        data[f"{key}_peak_cache_util"] = max(result.cache_usage[key])
        data[f"{key}_first_load_at"] = result.first_nonzero_time(result.head_counts, key)
    return data


def _redispatch_benefit() -> Data:
    """Fig. 15(a): plain LIFO over re-dispatching latency; opt-30b, LongBench, 6 req/s, 48 requests.

    The cell runs short of cache, so both arms preempt and the ratios measure
    the mechanism rather than two identical runs.
    """
    base = serving_spec("hetis", "opt-30b", "longbench", 6.0, num_requests=48)
    (_, redispatch), (_, lifo) = sweep(base, {"system.options.enable_redispatch": (True, False)})
    return {
        "mean_improvement": lifo["mean_normalized_latency"] / redispatch["mean_normalized_latency"],
        "p95_improvement": lifo["p95_normalized_latency"] / redispatch["p95_normalized_latency"],
        "redispatch_preemptions": redispatch["total_preemptions"],
        "lifo_preemptions": lifo["total_preemptions"],
    }


def _head_management_overhead() -> Data:
    """Fig. 15(b), modelled: the paper's +13% storage operations, and the
    multi-core block-index fetch time on 8 CPU cores."""
    return {"storage_op_ratio": 1.13, "fetch_time_ratio": HeadwiseBlockManager.fetch_time_factor(8)}


def _theta_sensitivity() -> Data:
    """Fig. 16(a): latency relative to the default theta = 0.5; llama-13b, 6 req/s, 40 requests."""
    data: Data = {}
    for dataset in ("sharegpt", "humaneval"):
        base = serving_spec("hetis", "llama-13b", dataset, 6.0, num_requests=40)
        latency = {
            overrides["system.options.theta"]: row["mean_normalized_latency"]
            for overrides, row in sweep(base, {"system.options.theta": (0.3, 0.5, 0.7)})
        }
        ratios = [lat / latency[0.5] for lat in latency.values()]
        data.update({f"{dataset}_theta_{theta}_ratio": r for theta, r in zip(latency, ratios)})
        data[f"{dataset}_worst_ratio"] = max(ratios)
    return data


def _profiling_error_sensitivity() -> Data:
    """Fig. 16(b): latency inflation against the error-free run; llama-13b, ShareGPT, 6 req/s, 40 requests."""
    base = serving_spec("hetis", "llama-13b", "sharegpt", 6.0, num_requests=40)
    latency = {
        overrides["system.options.profiling_error"]: row["mean_normalized_latency"]
        for overrides, row in sweep(base, {"system.options.profiling_error": (0.0, 0.05, 0.10, 0.20)})
    }
    data: Data = {f"error_{int(err * 100)}pct": latency[err] / latency[0.0] for err in (0.05, 0.10, 0.20)}
    data["max_inflation"] = max(data.values())
    return data


def _accuracy(pairs: List[Tuple[float, float]]) -> float:
    """``1 - mean(|predicted - measured| / measured)`` over ``(predicted, measured)`` pairs."""
    errors = [abs(predicted - measured) / measured for predicted, measured in pairs if measured > 0]
    return float(max(0.0, 1.0 - np.mean(errors)))


def _modeling_accuracy() -> Data:
    """Sec. 7.4: held-out accuracy of the Dispatcher's compute and transfer models
    in each model's paper-cluster Hetis deployment, per ``model/target``.

    Every Hetis instance fits its Eq. (3)/(4) models from its own pricing when
    it is built (:meth:`~repro.core.hetis_unit.HetisInstanceUnit._fit_device_models`).
    Each dispatch target's compute model is scored on 24 random points (4-63
    requests, each holding all H heads at 200-3,999 tokens), and each
    Attention worker's transfer model on 24 (r to 10H offloaded heads), priced
    through the same unit methods the fit measures with.  The points are drawn
    independently of the fit grid, so the accuracy is a generalization number
    rather than a training fit.
    """
    compute: Data = {}
    transfer: Data = {}
    for model_name in MODELS:
        model = get_model_spec(model_name)
        spec = DeploymentSpec(model=model_name, system=SystemSpec(name="hetis"), cluster=ClusterSpec(kind="paper"))
        rng = np.random.default_rng(1)
        for unit in build(spec).system.units:
            targets = unit.dispatcher.targets
            for target in targets:
                pairs = []
                for _ in range(24):
                    n_req = int(rng.integers(4, 64))
                    ctx = int(rng.integers(200, 4000))
                    heads = n_req * model.num_heads
                    predicted = target.device_model.compute.predict(heads, float(heads * ctx))
                    pairs.append((predicted, unit.attention_time(target.target_id, n_req, model.num_heads, ctx)))
                compute[f"compute_{model_name}/{target.name}"] = _accuracy(pairs)
            for target in targets:
                if not target.device_model.is_remote:
                    continue
                pairs = []
                for _ in range(24):
                    heads = int(rng.integers(model.gqa_ratio, model.num_heads * 10))
                    predicted = target.device_model.transfer.predict(
                        attention_transfer_bytes(model, float(heads), per_layer=False)
                    )
                    pairs.append((predicted, unit.transfer_time(target.target_id, heads)))
                transfer[f"transfer_{model_name}/{target.name}"] = _accuracy(pairs)
    return {**compute, **transfer, "min_compute": min(compute.values()), "min_transfer": min(transfer.values())}


def _search_overhead() -> Data:
    """Sec. 7.4: Parallelizer search wall clock for Llama-70B on the paper cluster and
    on 5 types x 32 GPUs (at most 4 instances).

    The paper reports about 4 s and 15 s.  The analytic cost model here is much
    cheaper than the paper's profiles, so the absolute numbers are smaller;
    the point reproduced is that the search is a negligible one-off cost that
    scales to large clusters.
    """
    model = get_model_spec("llama-70b")
    data: Data = {}
    for name, cluster, max_instances in (
        ("paper-cluster", paper_cluster(), None),
        ("5-types-x-32", large_scale_cluster(32), 4),
    ):
        plan = Parallelizer(cluster, model, hint=WorkloadHint(), max_instances=max_instances).plan()
        data[f"{name}_seconds"] = plan.search_seconds
        data[f"{name}_configs"] = plan.configs_evaluated
    return data


def _split_dimension() -> Data:
    """Ablation: communication cost of moving half of one Llama-70B request's Attention
    load (1,000 tokens) from an A100 to a P100, per splitting dimension.

    Batch-wise splitting migrates the whole request, cache included.
    """
    model = get_model_spec("llama-70b")
    cluster = ClusterBuilder().add_host("a100", 1).add_host("p100", 1).build()
    primary, worker = cluster.devices
    return {
        "headwise_seconds": headwise_transfer_overhead(model, cluster, primary, [worker], model.num_heads * 0.5),
        "seqwise_seconds": seqwise_transfer_overhead(model, cluster, primary, [worker], 1),
        "batchwise_seconds": batchwise_transfer_overhead(model, cluster, primary, worker, 1000),
    }


def _solver_gaps() -> Data:
    """Ablation: greedy and static proportional dispatch objectives over the LP's, for
    16 Llama-70B requests on a Primary and 3 Attention workers.

    The coefficients are synthetic but representative: the Primary is 3x
    faster per head than the workers, and the workers pay a per-head transfer
    cost.  The proportional split divides every request over the devices in
    proportion to 1/head_cost, rounded to KV groups.
    """
    model = get_model_spec("llama-70b")
    head_cost = np.array([2e-6] + [6e-6] * 3)
    problem = HeadDispatchProblem(
        head_cost=head_cost,
        cache_cost=np.array([4e-9] + [1.2e-8] * 3),
        base_cost=np.zeros(4),
        capacity=np.array([5e6] + [1.5e6] * 3),
        contexts=np.random.default_rng(0).integers(200, 3000, size=16),
        total_heads=model.num_heads,
        group_size=model.gqa_ratio,
    )
    lp = solve_lp(problem).objective
    weights = (1.0 / head_cost) / np.sum(1.0 / head_cost)
    groups_total = model.num_heads // model.gqa_ratio
    groups = np.floor(weights * groups_total).astype(int)
    while groups.sum() < groups_total:
        groups[int(np.argmax(weights * groups_total - groups))] += 1
    allocation = np.zeros((4, 16))
    allocation[:] = (groups * model.gqa_ratio)[:, None]
    return {"greedy_gap": solve_greedy(problem).objective / lp, "proportional_gap": problem.objective(allocation) / lp}


DELTAS = (0.0, 0.02, 0.05, 0.1, 0.3)


def _pruning_delta() -> Data:
    """Ablation: how many paper-cluster devices the Parallelizer relegates to Attention
    duty for Llama-70B, per pruning threshold Delta (0 never prunes)."""
    model = get_model_spec("llama-70b")
    data: Data = {}
    for delta in DELTAS:
        plan = Parallelizer(paper_cluster(), model, hint=WorkloadHint(), delta=delta).plan()
        data[f"delta_{delta}_workers"] = len(plan.attention_workers)
    return data


def _dynamic_parallelism() -> Data:
    """Ablation: the uniform static pipeline's latency over Hetis's; llama-13b, ShareGPT, 8 req/s, 60 requests."""
    base = serving_spec("hetis", "llama-13b", "sharegpt", 8.0, num_requests=60)
    (_, hetis), (_, static) = sweep(base, {"system.name": ("hetis", "static-tp")})
    return {"speedup_vs_static": static["mean_normalized_latency"] / hetis["mean_normalized_latency"]}


STUDIES: Dict[str, Callable[[], Data]] = {
    "table1": _table1,
    "fig2": partial(_module_gaps, (20, 100, 200, 300, 400)),
    "fig2-calibration": partial(_module_gaps, (20, 100, 200, 400)),
    "fig5": _split_overhead,
    "fig7": _attention_linearity,
    "fig8": partial(_latency_vs_rate, "llama-13b"),
    "fig9": partial(_latency_vs_rate, "opt-30b"),
    "fig10": partial(_latency_vs_rate, "llama-70b"),
    "fig11": _cache_space,
    "fig12-13": _tail_latency,
    "fig14": _dynamic_usage,
    "fig15a": _redispatch_benefit,
    "fig15b": _head_management_overhead,
    "fig16a": _theta_sensitivity,
    "fig16b": _profiling_error_sensitivity,
    "accuracy": _modeling_accuracy,
    "search": _search_overhead,
    "ablation-split": _split_dimension,
    "ablation-solver": _solver_gaps,
    "ablation-delta": _pruning_delta,
    "ablation-dynamic": _dynamic_parallelism,
}


# ------------------------------------------------------------------ the table

#: Studies whose values are the model's tuning targets rather than its outputs.
CALIBRATED = frozenset({"table1", "fig2", "fig2-calibration", "fig15b"})

#: A bound is a number, the name of another value of the study's data, or
#: ``(factor, name)`` for ``factor`` times that value.
Bound = Union[float, str, Tuple[float, str]]

OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Claim:
    """One checked statement: ``data[value] <op> bound`` on its study's data."""

    figure: str
    text: str
    study: str
    value: str
    op: str
    bound: Bound
    #: The paper's number for ``value`` (a ``(low, high)`` pair for a range), if it reports one.
    paper: Optional[Union[float, Tuple[float, float]]] = None

    @property
    def provenance(self) -> str:
        """``calibrated`` for a row of a :data:`CALIBRATED` study, else ``simulated``."""
        return "calibrated" if self.study in CALIBRATED else "simulated"

    @property
    def id(self) -> str:
        bound = self.bound if not isinstance(self.bound, tuple) else f"{self.bound[0]:g}*{self.bound[1]}"
        return f"{self.study}:{self.value}{self.op}{bound}"

    def check(self, data: Mapping[str, float]) -> Tuple[float, float, bool]:
        """``(measured value, bound, whether the claim holds)`` on ``data``."""
        if isinstance(self.bound, str):
            bound = data[self.bound]
        elif isinstance(self.bound, tuple):
            factor, name = self.bound
            bound = data[name] * factor
        else:
            bound = self.bound
        value = data[self.value]
        return value, bound, OPS[self.op](value, bound)


def _table1_claims() -> Iterator[Claim]:
    paper = {
        "prefill": {"a100": 1.0, "rtx3090": 2.45, "p100": 24.5},
        "decode": {"a100": 1.0, "rtx3090": 1.47, "p100": 7.93},
    }
    bands = {
        "prefill": {"rtx3090": (1.8, 3.2), "p100": (15.0, 35.0)},
        "decode": {"rtx3090": (1.2, 2.3), "p100": (5.0, 12.0)},
    }
    for phase in ("prefill", "decode"):
        ratio, ref = f"{phase}_ratio", paper[phase]
        yield Claim("Table 1", f"the A100 is the {phase} reference", "table1", f"a100_{ratio}", "==", 1.0, ref["a100"])
        for device, (low, high) in bands[phase].items():
            text = f"{device} {phase} time over the A100's is in its band"
            yield Claim("Table 1", text, "table1", f"{device}_{ratio}", ">=", low, ref[device])
            yield Claim("Table 1", text, "table1", f"{device}_{ratio}", "<=", high, ref[device])
        text = f"the P100 is slower than the 3090 in {phase}"
        yield Claim("Table 1", text, "table1", f"p100_{ratio}", ">", f"rtx3090_{ratio}", ref["p100"])
    for device, memory_gb in (("a100", 80), ("rtx3090", 24), ("p100", 12)):
        yield Claim("Table 1", "memory column", "table1", f"{device}_memory_gb", "==", memory_gb, memory_gb)
        yield Claim("Table 1", "prefill outlasts decode", "table1", f"{device}_prefill_s", ">", f"{device}_decode_s")


def _fig2_calibration_claims() -> Iterator[Claim]:
    study = "fig2-calibration"
    yield Claim("Fig. 2", "the P100's MLP gap is over 3x its Attention gap", study,
                "p100_mean_mlp_gap", ">", (3, "p100_mean_attention_gap"))
    yield Claim("Fig. 2", "the P100's MLP gap is over 10x", study, "p100_mean_mlp_gap", ">", 10.0)
    yield Claim("Fig. 2", "the P100's Attention gap is under 8x", study, "p100_mean_attention_gap", "<", 8.0)
    for module in ("mlp", "attention"):
        yield Claim("Fig. 2", f"the 3090's {module} gap is moderate", study, f"rtx3090_mean_{module}_gap", "<", 4.0)
        yield Claim("Fig. 2", "the A100 is the reference", study, f"a100_mean_{module}_gap", "==", 1.0)
    for n in (20, 100, 200, 400):
        text = f"MLP time orders P100 > 3090 > A100 at {n} requests"
        yield Claim("Fig. 2", text, study, f"p100_mlp_at_{n}", ">", f"rtx3090_mlp_at_{n}")
        yield Claim("Fig. 2", text, study, f"rtx3090_mlp_at_{n}", ">", 0.99)


def _peak_rate_claims(figure: str, study: str, model: str) -> Iterator[Claim]:
    # On LongBench the disaggregated Splitwise beats Hetis (ROADMAP.md, item 2),
    # so there Hetis only has to match HexGen, the architecturally comparable
    # baseline.
    for dataset in DATASETS:
        peak = f"rate{panel_rates(model, dataset)[-1]:g}"
        for baseline in BASELINES if dataset != "longbench" else ("hexgen",):
            text = f"{dataset}: Hetis's latency at the peak rate is within 5% of {baseline}'s"
            yield Claim(figure, text, study, f"{dataset}_hetis_{peak}", "<=", (1.05, f"{dataset}_{baseline}_{peak}"))


FIG14_WORKERS = ("rtx3090:1", "rtx3090:2")

CLAIMS: List[Claim] = [
    *_table1_claims(),
    Claim("Fig. 2", "the P100's MLP gap is over 3x its Attention gap", "fig2",
          "p100_mean_mlp_gap", ">", (3, "p100_mean_attention_gap")),
    *_fig2_calibration_claims(),
    Claim("Fig. 5", "head-wise splitting moves over 1.5x less at 20% offload", "fig5", "advantage_at_20pct_offload", ">", 1.5, 2.68),
    *(
        Claim("Fig. 5", f"head-wise splitting moves less than sequence-wise at {pct}% offload", "fig5",
              f"advantage_at_{pct}pct_offload", ">", 1.0)
        for pct in (40, 60, 80)
    ),
    Claim("Fig. 5", "head-wise splitting's advantage shrinks as more load is offloaded", "fig5",
          "advantage_at_20pct_offload", ">", "advantage_at_80pct_offload"),
    Claim("Fig. 5", "head-wise splitting gains from 1 to 4 workers", "fig5",
          "advantage_at_4_workers", ">", "advantage_at_1_worker", 3.55),
    Claim("Fig. 5", "head-wise overhead falls from 1 to 4 workers", "fig5", "headwise_s_at_4_workers", "<", "headwise_s_at_1_worker"),
    Claim("Fig. 7", "Attention time is flat in the request count", "fig7", "request_count_variation", "<", 0.1),
    Claim("Fig. 7", "Attention time is linear in the cache size", "fig7", "context_linearity_r2", ">", 0.98),
    Claim("Fig. 7", "Attention time is linear in the head count", "fig7", "heads_linearity_r2", ">", 0.95),
    *(
        Claim("Fig. 7", "Attention time grows with the context", "fig7", f"time_at_{high}_tokens", ">", f"time_at_{low}_tokens")
        for low, high in zip(FIG7_CONTEXTS, FIG7_CONTEXTS[1:])
    ),
    *(
        Claim("Fig. 7", "Attention time grows with the head count", "fig7", f"time_at_{high}_heads", ">", f"time_at_{low}_heads")
        for low, high in zip(FIG7_HEADS, FIG7_HEADS[1:])
    ),
    *_peak_rate_claims("Fig. 8", "fig8", "llama-13b"),
    *_peak_rate_claims("Fig. 9", "fig9", "opt-30b"),
    *_peak_rate_claims("Fig. 10", "fig10", "llama-70b"),
    *(
        Claim("Fig. 11", f"{model}: Hetis has more usable cache than {baseline}", "fig11",
              f"{model}_sharegpt_hetis_over_{baseline}", ">", 1.0)
        for model in MODELS
        for baseline in BASELINES
    ),
    Claim("Fig. 12", "Hetis's P95 TPOT leads on at least 2 of 3 datasets", "fig12-13", "tpot_wins", ">=", 2),
    Claim("Fig. 13", "Hetis's P95 Attention latency leads on at least 2 of 3 datasets", "fig12-13", "attention_wins", ">=", 2),
    Claim("Fig. 13", "Hetis's P95 MLP latency leads on at least 2 of 3 datasets", "fig12-13", "mlp_wins", ">=", 2),
    *(
        Claim("Fig. 14", f"the A100 Primary carries more heads than {worker}", "fig14",
              "fig14/primary_peak_heads", ">", f"{worker}_peak_heads")
        for worker in FIG14_WORKERS
    ),
    *(
        Claim("Fig. 14", f"{worker} takes load no earlier than the Primary", "fig14",
              f"{worker}_first_load_at", ">=", "fig14/primary_first_load_at")
        for worker in FIG14_WORKERS
    ),
    Claim("Fig. 15(a)", "re-dispatching is no worse than LIFO in mean latency", "fig15a", "mean_improvement", ">=", 0.95, 1.06),
    Claim("Fig. 15(a)", "re-dispatching is no worse than LIFO in P95 latency", "fig15a", "p95_improvement", ">=", 0.9, 1.14),
    Claim("Fig. 15(a)", "plain LIFO preempts more than re-dispatching", "fig15a",
          "lifo_preemptions", ">", "redispatch_preemptions"),
    Claim("Fig. 15(b)", "head-wise management stores more", "fig15b", "storage_op_ratio", ">=", 1.05, 1.13),
    Claim("Fig. 15(b)", "head-wise management stores more", "fig15b", "storage_op_ratio", "<=", 1.25, 1.13),
    Claim("Fig. 15(b)", "multi-core indexing fetches faster", "fig15b", "fetch_time_ratio", ">=", 0.6, 0.74),
    Claim("Fig. 15(b)", "multi-core indexing fetches faster", "fig15b", "fetch_time_ratio", "<=", 0.9, 0.74),
    Claim("Fig. 16(a)", "sharegpt: latency is flat around the default theta", "fig16a", "sharegpt_worst_ratio", "<", 1.3),
    Claim("Fig. 16(a)", "humaneval: latency is flat around the default theta", "fig16a", "humaneval_worst_ratio", "<", 1.3),
    Claim("Fig. 16(b)", "profiling error up to 20% inflates latency little", "fig16b", "max_inflation", "<", 1.25, 1.069),
    Claim("Sec. 7.4", "the compute models predict held-out points", "accuracy", "min_compute", ">=", 0.90, 0.938),
    Claim("Sec. 7.4", "the transfer models predict held-out points", "accuracy", "min_transfer", ">=", 0.90, (0.924, 0.961)),
    Claim("Sec. 7.4", "the paper cluster's search takes seconds", "search", "paper-cluster_seconds", "<", 10.0, 4.0),
    Claim("Sec. 7.4", "the 160-GPU search takes under a minute", "search", "5-types-x-32_seconds", "<", 60.0, 15.0),
    Claim("Ablation", "head-wise splitting moves less than sequence-wise", "ablation-split",
          "headwise_seconds", "<", "seqwise_seconds"),
    Claim("Ablation", "sequence-wise splitting moves less than batch-wise", "ablation-split",
          "seqwise_seconds", "<", "batchwise_seconds"),
    Claim("Ablation", "the LP is no worse than greedy", "ablation-solver", "greedy_gap", ">=", 0.99),
    Claim("Ablation", "the LP is no worse than a static proportional split", "ablation-solver", "proportional_gap", ">=", 0.99),
    Claim("Ablation", "Delta = 0 prunes no device", "ablation-delta", "delta_0.0_workers", "==", 0),
    *(
        Claim("Ablation", "a larger Delta prunes no fewer devices", "ablation-delta",
              f"delta_{high}_workers", ">=", f"delta_{low}_workers")
        for low, high in zip(DELTAS, DELTAS[1:])
    ),
    Claim("Ablation", "Hetis beats the uniform static pipeline", "ablation-dynamic", "speedup_vs_static", ">", 1.0),
]
