"""Ablation benchmarks for the design choices listed in ``repro.experiments.ablation``."""

from _bench_utils import run_once

from repro.experiments.ablation import (
    run_delta_ablation,
    run_dynamic_parallelism_ablation,
    run_solver_ablation,
    run_split_dimension_ablation,
)


def test_ablation_split_dimension(benchmark):
    result = run_once(benchmark, run_split_dimension_ablation)
    print(
        f"\nSplit-dimension overhead: head-wise {result.headwise_seconds*1e3:.3f} ms, "
        f"seq-wise {result.seqwise_seconds*1e3:.3f} ms, batch-wise {result.batchwise_seconds*1e3:.1f} ms"
    )
    benchmark.extra_info["headwise_ms"] = round(result.headwise_seconds * 1e3, 4)
    benchmark.extra_info["seqwise_ms"] = round(result.seqwise_seconds * 1e3, 4)
    benchmark.extra_info["batchwise_ms"] = round(result.batchwise_seconds * 1e3, 4)
    assert result.headwise_seconds < result.seqwise_seconds < result.batchwise_seconds


def test_ablation_dispatch_solver(benchmark):
    result = run_once(benchmark, run_solver_ablation)
    print(
        f"\nDispatch solvers: LP {result.lp_objective*1e3:.3f} ms, greedy x{result.greedy_gap:.3f}, "
        f"static proportional x{result.proportional_gap:.3f}"
    )
    benchmark.extra_info["greedy_gap"] = round(result.greedy_gap, 4)
    benchmark.extra_info["proportional_gap"] = round(result.proportional_gap, 4)
    assert result.greedy_gap >= 0.99
    assert result.proportional_gap >= 0.99


def test_ablation_pruning_delta(benchmark):
    result = run_once(benchmark, run_delta_ablation)
    print("\nPruning threshold Delta vs Attention-worker count:")
    for delta, n, cost in zip(result.deltas, result.num_attention_workers, result.dense_cost):
        print(f"  delta={delta:<5} attention_workers={n:<3} dense_cost={cost:.4f}")
        benchmark.extra_info[f"delta_{delta}_workers"] = n
    assert result.num_attention_workers == sorted(result.num_attention_workers)


def test_ablation_dynamic_parallelism_benefit(benchmark):
    result = run_once(benchmark, run_dynamic_parallelism_ablation)
    print(f"\nHetis vs uniform static pipeline: {result.speedup:.2f}x lower normalized latency")
    benchmark.extra_info["speedup_vs_static"] = round(result.speedup, 3)
    assert result.speedup > 1.0
