#!/usr/bin/env python
"""Dump a bit-exact metric snapshot of representative simulations.

Used to verify that engine/performance refactors do not change simulation
outputs: run once before the change, once after, and diff the JSON files.
``check_snapshot.sh`` runs this same file against the base revision's ``src``
tree and the working tree's, so it builds each scenario with
``api.build(DeploymentSpec(...))`` from spec fields both sides accept and runs
it with ``.run()``.  For a Hetis scenario it also records the Eq. (3)/(4)
coefficients the Dispatcher was built with, per dispatch target, so a fit
that moves shows up even when no dispatch decision does.  Under
``analytic_studies`` it records the data of every study of the claims table
that serves no requests, so a change that moves Table 1 or Fig. 7 by an ulp
shows up even when no claim bound is crossed.

    PYTHONPATH=src python scripts/metrics_snapshot.py out.json
"""

from __future__ import annotations

import json
import sys

from repro.api import build
from repro.config import ClusterSpec, DeploymentSpec, SystemSpec, WorkloadSpec
from repro.experiments.claims import STUDIES

SCENARIOS = [
    # (system, model, dataset, rate, num_requests, prefill_chunk_tokens[, cluster kind])
    ("hetis", "llama-13b", "sharegpt", 5.0, 48, None),
    ("hexgen", "llama-13b", "sharegpt", 5.0, 48, None),
    ("splitwise", "llama-13b", "sharegpt", 5.0, 48, None),
    ("static-tp", "llama-13b", "sharegpt", 5.0, 48, None),
    ("hetis", "llama-13b", "humaneval", 30.0, 48, None),
    ("hexgen", "llama-13b", "longbench", 6.0, 32, None),
    ("splitwise", "llama-13b", "longbench", 6.0, 32, None),
    ("hetis", "opt-30b", "sharegpt", 4.0, 32, None),
    # GQA (r = 8): KV groups are shared by query heads.
    ("hetis", "llama-70b", "sharegpt", 4.0, 32, None),
    ("hexgen", "llama-70b", "sharegpt", 4.0, 32, None),
    # Chunked prefill: chunks attend to the context earlier chunks cached.
    ("hetis", "llama-13b", "longbench", 6.0, 32, 512),
    ("hexgen", "llama-13b", "longbench", 6.0, 32, 512),
    ("splitwise", "llama-13b", "longbench", 6.0, 32, 512),
    # A cache that runs out while an iteration commits: the re-dispatch reads
    # g_i after the commit has given some decoding requests their token.
    ("hetis", "llama-13b", "longbench", 4.0, 32, None, "a100:1,p100:2"),
]

#: The studies of the claims table that serve no requests.
ANALYTIC_STUDIES = (
    "table1",
    "fig2",
    "fig2-calibration",
    "fig5",
    "fig7",
    "fig11",
    "accuracy",
    "search",
    "ablation-split",
    "ablation-solver",
    "ablation-delta",
)


def snapshot() -> dict:
    out = {}
    for system, model, dataset, rate, n, chunk, *cluster in SCENARIOS:
        prepared = build(
            DeploymentSpec(
                model=model,
                system=SystemSpec(name=system, prefill_chunk_tokens=chunk),
                cluster=ClusterSpec(kind=cluster[0] if cluster else "paper"),
                workload=WorkloadSpec(dataset=dataset, request_rate=rate, num_requests=n, seed=0),
            )
        )
        result = prepared.run()
        s = result.summary
        records = sorted(result.metrics.records, key=lambda r: r.request_id)
        key = f"{system}/{model}/{dataset}/r{rate:g}/n{n}" + (f"/chunk{chunk}" if chunk else "")
        key += f"/{cluster[0]}" if cluster else ""
        out[key] = {
            "mean_normalized_latency": s.mean_normalized_latency,
            "p95_normalized_latency": s.p95_normalized_latency,
            "p95_ttft": s.p95_ttft,
            "p95_tpot": s.p95_tpot,
            "p95_module_latency": s.p95_module_latency,
            "throughput_rps": s.throughput_rps,
            "num_finished": s.num_finished,
            "num_dropped": result.num_dropped,
            "available_cache_bytes": result.available_cache_bytes,
            "finish_times": {str(r.request_id): r.finish_time for r in records},
            "ttft": {str(r.request_id): r.ttft for r in records},
            "tpot": {str(r.request_id): r.tpot for r in records},
            "normalized_latency": {
                str(r.request_id): r.normalized_latency for r in records
            },
        }
        if system == "hetis":
            out[key]["device_models"] = device_models(prepared.system)
    out["analytic_studies"] = analytic_studies()
    return out


def analytic_studies() -> dict:
    """Each analytic study's data; ``search``'s ``*_seconds`` are wall clock and stay out."""
    out = {name: STUDIES[name]() for name in ANALYTIC_STUDIES}
    out["search"] = {k: v for k, v in out["search"].items() if not k.endswith("_seconds")}
    return out


def device_models(system) -> dict:
    """Per dispatch target of every instance, the fitted ``a, b, c, gamma, beta``."""
    out = {}
    for unit in system.units:
        for target in unit.dispatcher.targets:
            compute, transfer = target.device_model.compute, target.device_model.transfer
            out[target.name] = {
                "a": compute.a,
                "b": compute.b,
                "c": compute.c,
                "gamma": transfer.gamma,
                "beta": transfer.beta,
            }
    return out


if __name__ == "__main__":
    path = sys.argv[1] if len(sys.argv) > 1 else "metrics_snapshot.json"
    with open(path, "w") as fh:
        json.dump(snapshot(), fh, indent=1, sort_keys=True)
    print(f"wrote {path}")
