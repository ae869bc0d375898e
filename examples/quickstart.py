#!/usr/bin/env python3
"""Quickstart: serve one model on the paper's heterogeneous cluster with Hetis.

This is the smallest end-to-end use of the public API:

1. describe the deployment as a ``DeploymentSpec`` (model, system, cluster,
   workload; the cluster defaults to the evaluation testbed of 4x A100,
   4x RTX 3090 and 4x P100),
2. build it, so Hetis' Parallelizer assigns Primary / Attention roles and
   plans DP/PP/TP,
3. replay a synthetic ShareGPT-style workload through the serving simulator,
4. print the latency / throughput summary and compare against HexGen.

Run:  python examples/quickstart.py
"""

from repro import DeploymentSpec, build, run


def main() -> None:
    spec = DeploymentSpec().with_overrides({
        "model": "llama-13b",
        "system.name": "hetis",
        "workload.dataset": "sharegpt",
        "workload.request_rate": 8.0,
        "workload.num_requests": 60,
    })

    # Show what the Parallelizer decided for this model on this cluster.
    hetis = build(spec).system
    print("Planned Hetis deployment:")
    print(" ", hetis.describe())
    print(f"  usable KV-cache capacity: {hetis.available_cache_bytes() / 1e9:.0f} GB\n")

    workload = spec.workload
    print(f"Serving {workload.num_requests} {workload.dataset} requests at {workload.request_rate} req/s ...")
    results = {}
    for system in ("hetis", "hexgen"):
        results[system] = run(spec.with_overrides({"system.name": system}))

    print(f"\n{'system':<10}{'norm. latency':>16}{'P95 TTFT':>12}{'P95 TPOT':>12}{'tokens/s':>12}")
    for system, result in results.items():
        s = result.summary
        print(
            f"{system:<10}{s.mean_normalized_latency:>14.4f} s{s.p95_ttft:>11.3f}s"
            f"{s.p95_tpot:>11.4f}s{s.throughput_tokens_per_s:>12.1f}"
        )
    speedup = results["hexgen"].normalized_latency / results["hetis"].normalized_latency
    print(f"\nHetis improves mean normalized latency by {speedup:.2f}x over HexGen on this workload.")


if __name__ == "__main__":
    main()
