#!/usr/bin/env python
"""Dump every time series the recorder holds after representative runs.

Companion to ``metrics_snapshot.py`` for the recorder: ``check_snapshot.sh``
runs this same file against the base revision's ``src`` tree and the working
tree's, then diffs the JSON byte for byte, so it uses only APIs both sides
have.  The runs cover Fig. 14 (``run_dynamic_usage``), a Hetis instance that
offloads heads and re-dispatches, static-tp, HexGen and Splitwise, and
two-replica fleets with failures and migration (one elastic static-tp, one
Hetis).

Per series and key it writes ``last_value``, ``max_value`` and the raw
samples.  A unit writes its per-device series (``cache_usage``, ``heads``)
only when a value moves, so their samples are compared with each run of equal
consecutive values collapsed to its first sample; that is exact, not
grid-sampled.  Every other series keeps every sample.

    PYTHONPATH=src python scripts/recorder_snapshot.py out.json
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

from repro.api import run
from repro.config import DeploymentSpec
from repro.experiments.fig14 import run_dynamic_usage
from repro.sim.engine import Engine

DEVICE_SERIES = ("cache_usage", "heads")


def paper(system: str, dataset: str, rate: float, n: int, cluster: str = "paper") -> DeploymentSpec:
    return DeploymentSpec.from_dict({
        "model": "llama-13b",
        "system": {"name": system},
        "cluster": {"kind": cluster},
        "workload": {"dataset": dataset, "request_rate": rate, "num_requests": n, "seed": 0},
    })


FLEET = DeploymentSpec.from_dict({
    "model": "llama-13b",
    "system": {"name": "static-tp"},
    "cluster": {"kind": "a100:2", "replicas": 2, "replica_kinds": ["a100:2", "rtx3090:2"]},
    "router": {"name": "weighted-least-kv"},
    "elasticity": {
        "autoscaler": "target-kv",
        "autoscaler_options": {"interval": 2.0},
        "admission": "queue-threshold",
        "admission_options": {"mode": "defer", "max_queue_depth": 32},
        "migration": True,
    },
    "failures": {"events": [[3.0, 0], [8.0, 1]], "recovery_time": 4.0},
    "workload": {"dataset": "sharegpt", "request_rate": 20.0, "num_requests": 120, "seed": 1},
})

# Each Hetis replica writes its heads through its own key prefix.
HETIS_FLEET = DeploymentSpec.from_dict({
    "model": "llama-13b",
    "system": {"name": "hetis"},
    "cluster": {"kind": "small", "replicas": 2},
    "elasticity": {"migration": True},
    "failures": {"events": [[4.0, 0], [9.0, 1]], "recovery_time": 3.0},
    "workload": {"dataset": "sharegpt", "request_rate": 6.0, "num_requests": 60, "seed": 1},
})

SCENARIOS = {
    # Re-dispatches read g_i mid-commit; requests offload heads to the P100s.
    "hetis/longbench/a100:1,p100:2": paper("hetis", "longbench", 4.0, 32, "a100:1,p100:2"),
    "static-tp/sharegpt": paper("static-tp", "sharegpt", 5.0, 48),
    "hexgen/sharegpt": paper("hexgen", "sharegpt", 5.0, 48),
    "splitwise/longbench": paper("splitwise", "longbench", 6.0, 32),
    "fleet/2x-static-tp/failures": FLEET,
    "fleet/2x-hetis/failures": HETIS_FLEET,
}


def collapsed(samples: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """The first sample of each run of equal consecutive values."""
    out: List[Tuple[float, float]] = []
    for time, value in samples:
        if not out or out[-1][1] != value:
            out.append((time, value))
    return out


def dump(recorder) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for series in recorder.series_names():
        by_key = out[series] = {}
        for key in recorder.keys(series):
            raw = recorder.raw(series, key)
            by_key[key] = {
                "last_value": recorder.last_value(series, key),
                "max_value": recorder.max_value(series, key),
                "samples": collapsed(raw) if series in DEVICE_SERIES else raw,
            }
    return out


def fig14() -> dict:
    # run_dynamic_usage keeps only the resampled series; keep the run's recorder too.
    recorders = []
    original = Engine.run

    def run_and_keep(self, trace):
        result = original(self, trace)
        recorders.append(result.recorder)
        return result

    Engine.run = run_and_keep
    try:
        usage = run_dynamic_usage()
    finally:
        Engine.run = original
    (recorder,) = recorders
    return {
        "recorder": dump(recorder),
        "cache_usage": usage.cache_usage,
        "head_counts": usage.head_counts,
    }


def snapshot() -> dict:
    out = {"fig14": fig14()}
    for name, spec in SCENARIOS.items():
        out[name] = {"recorder": dump(run(spec).recorder)}
    return out


if __name__ == "__main__":
    path = sys.argv[1] if len(sys.argv) > 1 else "recorder_snapshot.json"
    with open(path, "w") as fh:
        json.dump(snapshot(), fh, indent=1, sort_keys=True)
    print(f"wrote {path}")
