"""Fig. 14: dynamic cache usage and head distribution under time-varying load.

The paper pins one A100 as the Primary worker and two RTX 3090s as Attention
workers for Llama-13B, drives the instance with ShareGPT requests whose rate
follows 5 req/s -> idle -> 2.5 req/s -> idle, and plots, per device over time,
(a) KV-cache utilization and (b) the number of resident Attention heads.  The
expected behaviour: the A100 always carries more heads than the 3090s, the
3090s only start receiving load once the A100 warms up (the light-load
locality of the Dispatcher), and cache usage saturates at the peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.core.hetis_unit import HetisInstanceUnit
from repro.core.system import HetisSystem
from repro.hardware.cluster import simple_cluster
from repro.models.spec import get_model_spec
from repro.parallel.config import InstanceParallelConfig, StageConfig
from repro.sim.engine import Engine
from repro.workloads.arrivals import RatePhase
from repro.workloads.trace import generate_trace


@dataclass
class DynamicUsageResult:
    """Resampled per-device time series for both panels of Fig. 14."""

    time_grid: List[float] = field(default_factory=list)
    cache_usage: Dict[str, List[float]] = field(default_factory=dict)
    head_counts: Dict[str, List[float]] = field(default_factory=dict)
    primary_key: str = ""
    worker_keys: List[str] = field(default_factory=list)

    def peak_heads(self, key: str) -> float:
        return max(self.head_counts.get(key, [0.0]) or [0.0])

    def first_nonzero_time(self, series: Dict[str, List[float]], key: str) -> float:
        """Time at which a device first carries load (used to check delayed offload)."""
        values = series.get(key, [])
        for t, v in zip(self.time_grid, values):
            if v > 0:
                return t
        return float("inf")


def run_dynamic_usage(
    model_name: str = "llama-13b",
    phases: Sequence[RatePhase] = (
        RatePhase(rate=5.0, duration=25.0),
        RatePhase(rate=1e-6, duration=25.0),
        RatePhase(rate=2.5, duration=25.0),
        RatePhase(rate=1e-6, duration=25.0),
    ),
    max_requests: int = 200,
    grid_step: float = 1.0,
    seed: int = 0,
) -> DynamicUsageResult:
    """Regenerate Fig. 14 on the 1x A100 + 2x 3090 manual deployment."""
    model = get_model_spec(model_name)
    cluster = simple_cluster("a100", "rtx3090", n_high=1, n_low=2)
    a100 = cluster.devices[0]
    workers = cluster.devices[1:]
    config = InstanceParallelConfig(
        stages=[StageConfig(devices=[a100], num_layers=model.num_layers)],
        attention_workers=list(workers),
    )
    unit = HetisInstanceUnit(
        name="fig14", config=config, model=model, cluster=cluster, seed=seed
    )
    system = HetisSystem([unit])
    trace = generate_trace("sharegpt", 0.0, max_requests, seed=seed, phases=phases)
    engine = Engine(system)
    run = engine.run(trace)

    total_duration = sum(p.duration for p in phases)
    grid = list(np.arange(0.0, total_duration + grid_step, grid_step))
    result = DynamicUsageResult(time_grid=grid)
    result.primary_key = "fig14/primary"
    result.worker_keys = [w.name for w in workers]
    for key in [result.primary_key] + result.worker_keys:
        result.cache_usage[key] = list(run.recorder.resample("cache_usage", key, grid))
        result.head_counts[key] = list(run.recorder.resample("heads", key, grid))
    return result
