"""Ablations of Hetis's main design choices.

1. Splitting dimension: head-wise vs. sequence-wise vs. batch-wise (extends
   the Fig.-5 comparison with the batch-wise full-migration cost).
2. Dispatcher solver: the min--max LP vs. greedy water-filling vs. a static
   proportional split.
3. The primary-worker pruning threshold Delta: 0 (never prune) to large
   (prune aggressively), and its effect on who becomes an Attention worker.
4. End-to-end effect of dynamic Attention parallelism: Hetis vs. the uniform
   static pipeline reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.core.attention_parallel import (
    batchwise_transfer_overhead,
    headwise_transfer_overhead,
    seqwise_transfer_overhead,
)
from repro.core.parallelizer import Parallelizer, WorkloadHint
from repro.hardware.cluster import ClusterBuilder, paper_cluster
from repro.models.spec import get_model_spec
from repro.solvers.head_dispatch import HeadDispatchProblem, solve_greedy, solve_lp


@dataclass(frozen=True)
class SplitDimensionResult:
    """Per-decode-step communication overhead of the three splitting dimensions."""

    headwise_seconds: float
    seqwise_seconds: float
    batchwise_seconds: float


def run_split_dimension_ablation(
    model_name: str = "llama-70b", offload_ratio: float = 0.5, context_tokens: int = 1000
) -> SplitDimensionResult:
    """Compare the communication cost of moving half of one request's Attention load."""
    model = get_model_spec(model_name)
    cluster = ClusterBuilder().add_host("a100", 1).add_host("p100", 1).build()
    primary, worker = cluster.devices
    heads = model.num_heads * offload_ratio
    return SplitDimensionResult(
        headwise_seconds=headwise_transfer_overhead(model, cluster, primary, [worker], heads),
        seqwise_seconds=seqwise_transfer_overhead(model, cluster, primary, [worker], 1),
        batchwise_seconds=batchwise_transfer_overhead(model, cluster, primary, worker, context_tokens),
    )


@dataclass(frozen=True)
class SolverAblationResult:
    """Objective values of the dispatch solvers on one random problem set."""

    lp_objective: float
    greedy_objective: float
    proportional_objective: float

    @property
    def greedy_gap(self) -> float:
        return self.greedy_objective / self.lp_objective if self.lp_objective > 0 else 1.0

    @property
    def proportional_gap(self) -> float:
        return self.proportional_objective / self.lp_objective if self.lp_objective > 0 else 1.0


def run_solver_ablation(
    model_name: str = "llama-70b",
    num_requests: int = 16,
    num_workers: int = 3,
    seed: int = 0,
) -> SolverAblationResult:
    """Compare the LP dispatcher against greedy and static proportional splits."""
    model = get_model_spec(model_name)
    rng = np.random.default_rng(seed)
    # Synthetic but representative coefficients: the primary is ~3x faster per
    # head than the workers, and remote workers pay a per-head transfer cost.
    head_cost = np.array([2e-6] + [6e-6] * num_workers)
    cache_cost = np.array([4e-9] + [1.2e-8] * num_workers)
    base_cost = np.zeros(num_workers + 1)
    capacity = np.array([5e6] + [1.5e6] * num_workers)
    contexts = rng.integers(200, 3000, size=num_requests)
    problem = HeadDispatchProblem(
        head_cost=head_cost,
        cache_cost=cache_cost,
        base_cost=base_cost,
        capacity=capacity,
        contexts=contexts,
        total_heads=model.num_heads,
        group_size=model.gqa_ratio,
    )
    lp = solve_lp(problem)
    greedy = solve_greedy(problem)

    # Static proportional split: every request divided across devices
    # proportionally to 1/head_cost, rounded to groups.
    weights = (1.0 / head_cost) / np.sum(1.0 / head_cost)
    groups_total = model.num_heads // model.gqa_ratio
    allocation = np.zeros((num_workers + 1, num_requests))
    for j in range(num_requests):
        groups = np.floor(weights * groups_total).astype(int)
        while groups.sum() < groups_total:
            groups[int(np.argmax(weights * groups_total - groups))] += 1
        allocation[:, j] = groups * model.gqa_ratio
    proportional_obj = problem.objective(allocation)
    return SolverAblationResult(
        lp_objective=lp.objective,
        greedy_objective=greedy.objective,
        proportional_objective=proportional_obj,
    )


@dataclass
class DeltaAblationResult:
    """Effect of the pruning threshold Delta on the Primary/Attention split."""

    deltas: List[float] = field(default_factory=list)
    num_attention_workers: List[int] = field(default_factory=list)
    dense_cost: List[float] = field(default_factory=list)


def run_delta_ablation(
    model_name: str = "llama-70b", deltas: Sequence[float] = (0.0, 0.02, 0.05, 0.1, 0.3)
) -> DeltaAblationResult:
    """Sweep Delta and record how many devices are relegated to Attention duty."""
    model = get_model_spec(model_name)
    result = DeltaAblationResult()
    for delta in deltas:
        cluster = paper_cluster()
        plan = Parallelizer(cluster, model, hint=WorkloadHint(), delta=delta).plan()
        result.deltas.append(float(delta))
        result.num_attention_workers.append(len(plan.attention_workers))
        result.dense_cost.append(plan.cost)
    return result


@dataclass(frozen=True)
class DynamicParallelismBenefit:
    """Hetis vs. the uniform static pipeline on the same cluster and workload."""

    hetis_latency: float
    static_latency: float

    @property
    def speedup(self) -> float:
        return self.static_latency / self.hetis_latency if self.hetis_latency > 0 else 1.0


def run_dynamic_parallelism_ablation(
    model: str = "llama-13b",
    dataset: str = "sharegpt",
    request_rate: float = 8.0,
    num_requests: int = 60,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> DynamicParallelismBenefit:
    """End-to-end benefit of Hetis over the heterogeneity-oblivious reference.

    The two end-to-end runs are independent simulations, so they go through
    the parallel experiment runner (``jobs=1`` is the bit-identical serial
    path; ``jobs=2`` runs both systems concurrently).
    """
    from repro.experiments.e2e import serving_spec
    from repro.experiments.runner import SweepRunner

    systems = ("hetis", "static-tp")
    points = [
        (
            {"system.name": system},
            serving_spec(system, model, dataset, request_rate, num_requests, seed),
        )
        for system in systems
    ]
    results = SweepRunner(jobs=jobs, cache_dir=cache_dir).run(points)
    latencies = {}
    for system, res in zip(systems, results):
        if res.error is not None:
            raise RuntimeError(f"ablation point {res.label} failed: {res.error}")
        latencies[system] = res.row["mean_normalized_latency"]
    return DynamicParallelismBenefit(
        hetis_latency=latencies["hetis"], static_latency=latencies["static-tp"]
    )
