#!/usr/bin/env python
"""Dump a bit-exact metric snapshot of replicated (cluster) simulations.

Companion to ``metrics_snapshot.py`` for the router/cluster layer: with
autoscaling and admission control disabled (the defaults used here), a
``ClusterServingSystem`` run must be bit-identical across revisions.
``check_snapshot.sh`` runs this same file against the base revision's ``src``
tree and the working tree's, then diffs the JSON byte-for-byte, so it builds
each scenario as an ``api.run(DeploymentSpec(...))`` from spec fields both
sides accept.

    PYTHONPATH=src python scripts/cluster_snapshot.py out.json
"""

from __future__ import annotations

import json
import sys

from repro.api import run
from repro.config import ClusterSpec, DeploymentSpec, RouterSpec, SystemSpec, WorkloadSpec

SCENARIOS = [
    # (router, rate, num_requests)
    ("round-robin", 12.0, 32),
    ("least-kv", 12.0, 32),
    ("power-of-two", 12.0, 32),
]


def snapshot() -> dict:
    out = {}
    for router, rate, n in SCENARIOS:
        result = run(
            DeploymentSpec(
                model="llama-13b",
                system=SystemSpec(name="static-tp"),
                cluster=ClusterSpec(kind="small", replicas=2),
                router=RouterSpec(name=router),
                workload=WorkloadSpec(dataset="sharegpt", request_rate=rate, num_requests=n, seed=0),
            )
        )
        s = result.summary
        records = sorted(result.metrics.records, key=lambda r: r.request_id)
        out[f"2x-static-tp/{router}/r{rate:g}/n{n}"] = {
            "mean_normalized_latency": s.mean_normalized_latency,
            "p95_ttft": s.p95_ttft,
            "p95_tpot": s.p95_tpot,
            "num_finished": s.num_finished,
            "num_dropped": result.num_dropped,
            "available_cache_bytes": result.available_cache_bytes,
            "finish_times": {str(r.request_id): r.finish_time for r in records},
            "ttft": {str(r.request_id): r.ttft for r in records},
            "normalized_latency": {
                str(r.request_id): r.normalized_latency for r in records
            },
        }
    return out


if __name__ == "__main__":
    path = sys.argv[1] if len(sys.argv) > 1 else "cluster_snapshot.json"
    with open(path, "w") as fh:
        json.dump(snapshot(), fh, indent=1, sort_keys=True)
    print(f"wrote {path}")
