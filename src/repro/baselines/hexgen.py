"""HexGen baseline: static asymmetric tensor/pipeline parallelism.

HexGen places the whole model across all devices, assigning each homogeneous
device group a pipeline stage (tensor parallelism inside the stage) and
skewing the layer assignment towards the faster stages so that per-stage
execution times are roughly balanced.  Prefill and decode share the same
workers.  The planner here follows the deployment described in the paper's
evaluation (one stage per homogeneous group) and balances layers by effective
dense throughput, then repairs the assignment for per-device memory limits.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hardware.cluster import Cluster
from repro.hardware.gpu import GPUDevice
from repro.models.spec import ModelSpec
from repro.parallel.config import ClusterParallelConfig, InstanceParallelConfig, StageConfig
from repro.parallel.partitioner import partition_layers_balanced
from repro.parallel.placement import group_devices_evenly, stage_groups
from repro.sim.engine import ServingSystem
from repro.sim.request import Request
from repro.sim.scheduler import SchedulerLimits
from repro.sim.units import ExecutionUnit, StaticPipelineUnit


def _repair_for_memory(
    model: ModelSpec, stage_devices: List[List[GPUDevice]], layers: List[int]
) -> Optional[List[int]]:
    """Shift layers away from stages whose devices cannot hold their shard."""
    layers = list(layers)
    n = len(layers)

    def max_layers(devs: List[GPUDevice]) -> int:
        per_device = min(d.usable_bytes for d in devs)
        per_layer_shard = model.layer_param_bytes / len(devs)
        # Keep ~20% of memory for KV cache and activations.
        return int((per_device * 0.8) // per_layer_shard)

    caps = [max_layers(devs) for devs in stage_devices]
    for _ in range(model.num_layers * n):
        over = [i for i in range(n) if layers[i] > caps[i]]
        if not over:
            break
        i = over[0]
        receivers = [j for j in range(n) if layers[j] < caps[j]]
        if not receivers:
            return None
        j = max(receivers, key=lambda k: caps[k] - layers[k])
        layers[i] -= 1
        layers[j] += 1
    if any(layers[i] > caps[i] for i in range(n)):
        return None
    if any(n_layers <= 0 for n_layers in layers):
        # Drop empty stages by merging their quota into the largest stage.
        return None
    return layers


def plan_hexgen_config(
    cluster: Cluster, model: ModelSpec, num_instances: int = 1
) -> ClusterParallelConfig:
    """Plan the HexGen deployment: per-instance homogeneous stages, skewed layers."""
    groups = group_devices_evenly(cluster, num_instances)
    instances: List[InstanceParallelConfig] = []
    for devices in groups:
        stage_devices = stage_groups(devices)
        speeds = [sum(d.spec.matmul_flops for d in devs) for devs in stage_devices]
        layers = partition_layers_balanced(model.num_layers, speeds)
        repaired = _repair_for_memory(model, stage_devices, layers)
        if repaired is None:
            # Fall back to memory-proportional assignment.
            mem = [sum(d.usable_bytes for d in devs) for devs in stage_devices]
            repaired = partition_layers_balanced(model.num_layers, mem)
            repaired = _repair_for_memory(model, stage_devices, repaired)
            if repaired is None:
                raise MemoryError(
                    f"{model.name} does not fit on the cluster under the HexGen layout"
                )
        stages = [
            StageConfig(devices=devs, num_layers=n_layers)
            for devs, n_layers in zip(stage_devices, repaired)
            if n_layers > 0
        ]
        instances.append(InstanceParallelConfig(stages=stages))
    return ClusterParallelConfig(instances=instances)


class HexGenSystem(ServingSystem):
    """HexGen deployment: one static pipeline unit per data-parallel instance."""

    def __init__(self, units: List[StaticPipelineUnit]) -> None:
        if not units:
            raise ValueError("need at least one HexGen instance")
        self.name = "hexgen"
        self._units = units

    @property
    def units(self) -> List[ExecutionUnit]:
        return list(self._units)

    def route(self, request: Request, now: float) -> ExecutionUnit:
        return min(self._units, key=lambda u: u.load)


def build_hexgen_system(
    cluster: Cluster,
    model: ModelSpec,
    num_instances: int = 1,
    limits: SchedulerLimits | None = None,
) -> HexGenSystem:
    """Plan and instantiate a HexGen deployment."""
    config = plan_hexgen_config(cluster, model, num_instances)
    units = [
        StaticPipelineUnit(
            name=f"hexgen-{idx}",
            config=inst,
            model=model,
            cluster=cluster,
            limits=limits,
            mode="both",
        )
        for idx, inst in enumerate(config.instances)
    ]
    return HexGenSystem(units)
