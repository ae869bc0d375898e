"""Plain static tensor/pipeline reference deployment (ablation baseline).

This is the "heterogeneity-oblivious" reference: layers are spread uniformly
across one stage per host (even split, no skew towards faster devices), with
tensor parallelism inside each host.  It is not one of the paper's headline
baselines but is useful in ablations to show how much a heterogeneity-aware
layer skew (HexGen) and module-level offload (Hetis) each contribute.
"""

from __future__ import annotations

from typing import List

from repro.hardware.cluster import Cluster
from repro.models.spec import ModelSpec
from repro.parallel.config import ClusterParallelConfig, InstanceParallelConfig, StageConfig
from repro.parallel.partitioner import partition_layers_balanced
from repro.parallel.placement import stage_groups
from repro.sim.engine import ServingSystem
from repro.sim.request import Request
from repro.sim.scheduler import SchedulerLimits
from repro.sim.units import ExecutionUnit, StaticPipelineUnit


def plan_static_tp_config(cluster: Cluster, model: ModelSpec) -> ClusterParallelConfig:
    """One stage per (host, GPU type) with an even layer split."""
    stage_devices = stage_groups(cluster.devices)
    layers = partition_layers_balanced(model.num_layers, [1.0] * len(stage_devices))
    stages = [
        StageConfig(devices=devs, num_layers=n)
        for devs, n in zip(stage_devices, layers)
        if n > 0
    ]
    instance = InstanceParallelConfig(stages=stages)
    return ClusterParallelConfig(instances=[instance])


class StaticTPSystem(ServingSystem):
    """A single static, uniform pipeline over the whole cluster."""

    def __init__(self, unit: StaticPipelineUnit) -> None:
        self.name = "static-tp"
        self._unit = unit

    @property
    def units(self) -> List[ExecutionUnit]:
        return [self._unit]

    def route(self, request: Request, now: float) -> ExecutionUnit:
        return self._unit


def build_static_tp_system(
    cluster: Cluster,
    model: ModelSpec,
    limits: SchedulerLimits | None = None,
) -> StaticTPSystem:
    config = plan_static_tp_config(cluster, model)
    if not config.instances[0].fits_in_memory(model):
        raise MemoryError(f"{model.name} does not fit under the uniform static layout")
    unit = StaticPipelineUnit(
        name="static-tp-0",
        config=config.instances[0],
        model=model,
        cluster=cluster,
        limits=limits,
        mode="both",
    )
    return StaticTPSystem(unit)
