#!/usr/bin/env python
"""Configuration-driven runs: data-parallel scale-out behind replica routers.

Simulates the same Hetis workload against 1, 2, and 4 replicas (each replica
owns a full copy of the small evaluation cluster) and compares the replica
routers -- round-robin, least-KV-load, and power-of-two-choices -- at a
request rate high enough to saturate a single replica.  One base
:class:`~repro.config.DeploymentSpec` describes the deployment and every
study point is a dotted-path override of it -- the same mechanism the CLI
sweep runner (``python -m repro sweep``) uses.  The spec round-trips through
JSON/TOML, so the loop below is equivalent to:

    python -m repro sweep examples/configs/multi_replica.json \
        --grid cluster.replicas=2,4 \
        --grid router.name=round-robin,least-kv,power-of-two

Also demonstrated: loading a checked-in config file, serializing a spec back
out, and validating without running (what ``repro run --dry-run`` does).

Run with:

    PYTHONPATH=src python examples/deployment_config.py
"""

from pathlib import Path

from repro.api import build, run
from repro.config import ClusterSpec, DeploymentSpec, RouterSpec, SystemSpec, WorkloadSpec

CONFIG = Path(__file__).parent / "configs" / "multi_replica.json"


def main() -> None:
    # A spec is plain data: build it in code...
    base = DeploymentSpec(
        model="llama-13b",
        system=SystemSpec(name="hetis"),
        cluster=ClusterSpec(kind="small"),
        router=RouterSpec(name="round-robin"),
        workload=WorkloadSpec(dataset="sharegpt", request_rate=12.0, num_requests=96, seed=0),
    )
    # ... or load it from a checked-in file; both validate at parse time.
    from_file = DeploymentSpec.load(CONFIG)
    print(f"loaded {CONFIG.name}: {from_file.describe()}")
    assert DeploymentSpec.from_dict(from_file.to_dict()) == from_file  # lossless

    print(f"\nbase: {base.describe()}")
    print(f"{'replicas':>9} {'router':>14} {'mean s/tok':>12} {'p95 TTFT':>10} {'tokens/s':>10} {'finished':>9}")
    for replicas in (1, 2, 4):
        routers = ["round-robin"] if replicas == 1 else [
            "round-robin", "least-kv", "power-of-two",
        ]
        for router in routers:
            point = base.with_overrides({
                "cluster.replicas": replicas,
                "router.name": router,
            })
            s = run(point).summary
            print(
                f"{replicas:>9} {router:>14} {s.mean_normalized_latency:>12.4f} "
                f"{s.p95_ttft:>10.3f} {s.throughput_tokens_per_s:>10.1f} {s.num_finished:>9}"
            )

    # Dry-run validation: build (cluster + system + trace) without simulating.
    prepared = build(base.with_overrides({"cluster.replicas": 2}))
    print(f"\ndry run: {prepared.describe()}")
    print(f"trace: {len(prepared.trace)} requests over {prepared.trace.duration:.1f}s")


if __name__ == "__main__":
    main()
