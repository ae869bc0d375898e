"""Splitwise baseline: prefill/decode phase splitting with KV-cache migration.

Following the deployment used in the paper's evaluation, the highest-end GPU
group runs a tensor-parallel *prefill* instance holding a full copy of the
model; the remaining (lower-end) GPUs form a pipeline-parallel *decode*
instance holding a second copy.  After a request's prefill completes, its KV
cache is migrated over the inter-host network to the decode instance, which
then generates all output tokens.  The two full parameter copies are what
produce the cache-capacity penalty the paper highlights (Fig. 1a / Fig. 11).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.hardware.cluster import Cluster
from repro.hardware.gpu import GPUDevice
from repro.models.spec import ModelSpec
from repro.parallel.config import InstanceParallelConfig, StageConfig
from repro.parallel.partitioner import partition_layers_balanced
from repro.parallel.placement import stage_groups
from repro.sim.engine import ServingSystem
from repro.sim.iteration import Iteration, IterationOutcome
from repro.sim.recorder import TimeSeriesRecorder
from repro.sim.request import Request
from repro.sim.scheduler import SchedulerLimits
from repro.sim.units import ExecutionUnit, StaticPipelineUnit


def _split_devices(cluster: Cluster, model: ModelSpec) -> Tuple[List[GPUDevice], List[GPUDevice]]:
    """Assign the fastest GPU type to prefill and everything else to decode.

    When the cluster only has one GPU type, it is split evenly between the two
    phases (the canonical Splitwise homogeneous deployment).  Because the
    decode side must hold a *second* full copy of the parameters, high-end
    devices are moved from the prefill group to the decode group when the
    low-end devices alone cannot store the model -- the generalisation needed
    to deploy the largest models (e.g. Llama-70B) on the paper's cluster.
    """
    types = cluster.gpu_types
    fastest = types[0]
    prefill = cluster.devices_of_type(fastest)
    decode = [d for d in cluster.devices if d.spec.name != fastest]
    if not decode:
        half = max(1, len(prefill) // 2)
        decode = prefill[half:]
        prefill = prefill[:half]
    if not decode or not prefill:
        raise ValueError("Splitwise needs at least two devices")

    def fits(devices: List[GPUDevice]) -> bool:
        usable = sum(d.usable_bytes for d in devices)
        return usable >= model.param_bytes * 1.02  # keep a sliver for activations

    while not fits(decode) and len(prefill) > 1:
        decode.insert(0, prefill.pop())
    if not fits(decode):
        raise MemoryError(f"{model.name} does not fit on the Splitwise decode workers")
    if not fits(prefill):
        raise MemoryError(f"{model.name} does not fit on the Splitwise prefill workers")
    return prefill, decode


def _build_prefill_config(devices: List[GPUDevice], model: ModelSpec) -> InstanceParallelConfig:
    """Prefill instance: a single tensor-parallel stage over the high-end GPUs."""
    return InstanceParallelConfig(stages=[StageConfig(devices=devices, num_layers=model.num_layers)])


def _build_decode_config(devices: List[GPUDevice], model: ModelSpec) -> InstanceParallelConfig:
    """Decode instance: one homogeneous TP stage per (host, type) group."""
    stage_devices = stage_groups(devices)
    speeds = [sum(d.spec.mem_bandwidth for d in devs) for devs in stage_devices]
    layers = partition_layers_balanced(model.num_layers, speeds)
    stages = [
        StageConfig(devices=devs, num_layers=n)
        for devs, n in zip(stage_devices, layers)
        if n > 0
    ]
    return InstanceParallelConfig(stages=stages)


class SplitwiseSystem(ServingSystem):
    """Prefill unit + decode unit with explicit KV-cache migration between them."""

    def __init__(
        self,
        prefill_unit: StaticPipelineUnit,
        decode_unit: StaticPipelineUnit,
        cluster: Cluster,
        model: ModelSpec,
    ) -> None:
        self.name = "splitwise"
        self.prefill_unit = prefill_unit
        self.decode_unit = decode_unit
        self.cluster = cluster
        self.model = model
        self.total_migrated_bytes = 0.0
        self.num_migrations = 0

    @property
    def units(self) -> List[ExecutionUnit]:
        return [self.prefill_unit, self.decode_unit]

    def route(self, request: Request, now: float) -> ExecutionUnit:
        """All fresh requests start on the prefill instance."""
        return self.prefill_unit

    def on_iteration(
        self,
        unit: ExecutionUnit,
        iteration: Iteration,
        outcome: IterationOutcome,
        now: float,
        recorder: TimeSeriesRecorder,
    ) -> List[Tuple[ExecutionUnit, Request, float]]:
        unit.observe(now, recorder)
        deferred: List[Tuple[ExecutionUnit, Request, float]] = []
        for handoff in outcome.handoffs:
            # The whole KV cache crosses the network from the prefill workers to
            # the decode workers; the request cannot decode until it lands.
            src = self.prefill_unit.config.primary_devices[0]
            dst = self.decode_unit.config.primary_devices[0]
            delay = self.cluster.p2p_time(handoff.kv_bytes, src, dst)
            self.total_migrated_bytes += handoff.kv_bytes
            self.num_migrations += 1
            deferred.append((self.decode_unit, handoff.request, now + delay))
        if unit is self.decode_unit:
            # A LIFO victim dropped its cache and waits for a fresh prefill,
            # which only the prefill unit runs: hand it back there.  It
            # re-prefills and migrates again like its first hand-off.
            waiting = self.decode_unit.waiting
            deferred.extend((self.prefill_unit, request, now) for request in waiting)
            waiting.clear()
        return deferred

    def available_cache_bytes(self) -> float:
        """Only the decode instance's cache can host generation (Fig. 11 metric);
        the prefill instance's blocks are transient and freed at hand-off."""
        return float(self.decode_unit.available_kv_bytes())


def build_splitwise_system(
    cluster: Cluster,
    model: ModelSpec,
    limits: SchedulerLimits | None = None,
) -> SplitwiseSystem:
    """Plan and instantiate the Splitwise deployment for a cluster."""
    prefill_devices, decode_devices = _split_devices(cluster, model)
    prefill_config = _build_prefill_config(prefill_devices, model)
    decode_config = _build_decode_config(decode_devices, model)
    if not prefill_config.fits_in_memory(model):
        raise MemoryError(f"{model.name} does not fit on the Splitwise prefill workers")
    if not decode_config.fits_in_memory(model):
        raise MemoryError(f"{model.name} does not fit on the Splitwise decode workers")
    prefill_unit = StaticPipelineUnit(
        name="splitwise-prefill",
        config=prefill_config,
        model=model,
        cluster=cluster,
        limits=limits,
        mode="prefill",
    )
    decode_unit = StaticPipelineUnit(
        name="splitwise-decode",
        config=decode_config,
        model=model,
        cluster=cluster,
        limits=limits,
        mode="decode",
    )
    return SplitwiseSystem(prefill_unit, decode_unit, cluster, model)
