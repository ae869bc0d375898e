"""Parallel configuration objects.

A *cluster* configuration is a set of data-parallel *instances*; each instance
is a pipeline of *stages*; each stage is a tensor-parallel group of devices
holding a contiguous slice of layers.  Shard fractions within a stage may be
unequal (HexGen-style asymmetric tensor parallelism).  A Hetis instance
additionally carries a pool of Attention workers that hold no dense-module
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.hardware.gpu import GPUDevice
from repro.models.spec import ModelSpec


@dataclass
class StageConfig:
    """One pipeline stage: a (possibly asymmetric) tensor-parallel device group.

    Attributes
    ----------
    devices:
        The devices in this stage's tensor-parallel group.
    num_layers:
        Number of consecutive transformer layers assigned to the stage.
    shard_fractions:
        Fraction of each layer's parameters (and dense compute) held by each
        device.  ``None`` means an even split.  Must sum to 1.
    """

    devices: List[GPUDevice]
    num_layers: int
    shard_fractions: Optional[List[float]] = None

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("a stage needs at least one device")
        if self.num_layers <= 0:
            raise ValueError("a stage must hold at least one layer")
        if self.shard_fractions is not None:
            if len(self.shard_fractions) != len(self.devices):
                raise ValueError("shard_fractions must align with devices")
            total = float(sum(self.shard_fractions))
            if not np.isclose(total, 1.0, atol=1e-6):
                raise ValueError(f"shard_fractions must sum to 1, got {total}")
            if any(f < 0 for f in self.shard_fractions):
                raise ValueError("shard_fractions must be >= 0")

    @property
    def tp_degree(self) -> int:
        return len(self.devices)

    def fractions(self) -> List[float]:
        """Per-device shard fractions (even split when not specified)."""
        if self.shard_fractions is not None:
            return list(self.shard_fractions)
        return [1.0 / len(self.devices)] * len(self.devices)

    def unique_shards(self) -> List[tuple]:
        """Distinct ``(GPU spec, shard fraction)`` pairs, first-seen order.

        Symmetric tensor-parallel shards on identical GPU types produce
        identical per-device module times, so timing code only needs one
        evaluation per distinct pair (zero-fraction devices do no work and are
        excluded).
        """
        return list(
            dict.fromkeys(
                (dev.spec, frac)
                for dev, frac in zip(self.devices, self.fractions())
                if frac > 0
            )
        )

    def weight_bytes_per_device(self, model: ModelSpec) -> Dict[int, int]:
        """Parameter bytes each device of this stage must hold."""
        stage_bytes = self.num_layers * model.layer_param_bytes
        return {
            dev.device_id: int(stage_bytes * frac)
            for dev, frac in zip(self.devices, self.fractions())
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ",".join(d.name for d in self.devices)
        return f"Stage(layers={self.num_layers}, tp={self.tp_degree}, devices=[{names}])"


@dataclass
class InstanceParallelConfig:
    """One serving instance: a pipeline of stages plus optional Attention workers.

    ``attention_workers`` is Hetis-specific: devices excluded from dense
    computation that only store head-wise KV caches and execute decode
    Attention.  For baselines the list is empty.
    """

    stages: List[StageConfig]
    attention_workers: List[GPUDevice] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("an instance needs at least one stage")
        primary_ids = {d.device_id for s in self.stages for d in s.devices}
        for w in self.attention_workers:
            if w.device_id in primary_ids:
                raise ValueError(
                    f"device {w.name} cannot be both a primary and an attention worker"
                )

    # -- structure --------------------------------------------------------------

    @property
    def primary_devices(self) -> List[GPUDevice]:
        return [d for s in self.stages for d in s.devices]

    @property
    def all_devices(self) -> List[GPUDevice]:
        return self.primary_devices + list(self.attention_workers)

    @property
    def total_layers(self) -> int:
        return sum(s.num_layers for s in self.stages)

    def validate_layer_count(self, model: ModelSpec) -> None:
        """Check the stage layer counts cover the model exactly."""
        if self.total_layers != model.num_layers:
            raise ValueError(
                f"stages cover {self.total_layers} layers but {model.name} has {model.num_layers}"
            )

    # -- memory accounting --------------------------------------------------------

    def weight_bytes_per_device(self, model: ModelSpec) -> Dict[int, int]:
        """Parameter bytes per device over the whole instance.

        The embedding + LM head parameters are charged to the first and last
        stage respectively (split evenly over their TP groups), matching how
        serving frameworks place them.
        """
        out: Dict[int, int] = {d.device_id: 0 for d in self.all_devices}
        for stage in self.stages:
            for dev_id, n_bytes in stage.weight_bytes_per_device(model).items():
                out[dev_id] += n_bytes
        embed_bytes = model.embedding_param_count * model.dtype_bytes // 2
        for stage, share in ((self.stages[0], embed_bytes), (self.stages[-1], embed_bytes)):
            per_dev = share // stage.tp_degree
            for dev in stage.devices:
                out[dev.device_id] += per_dev
        return out

    def kv_capacity_per_device(self, model: ModelSpec) -> Dict[int, int]:
        """KV-cache bytes available per device after weights are placed."""
        weights = self.weight_bytes_per_device(model)
        out: Dict[int, int] = {}
        for dev in self.all_devices:
            out[dev.device_id] = max(0, dev.usable_bytes - weights.get(dev.device_id, 0))
        return out

    def total_kv_capacity_bytes(self, model: ModelSpec) -> int:
        return sum(self.kv_capacity_per_device(model).values())

    def fits_in_memory(self, model: ModelSpec) -> bool:
        """True when every device can hold its weight shard."""
        weights = self.weight_bytes_per_device(model)
        return all(
            weights.get(dev.device_id, 0) <= dev.usable_bytes for dev in self.all_devices
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        aw = ",".join(d.name for d in self.attention_workers) or "-"
        return f"Instance(stages={self.stages!r}, attention_workers=[{aw}])"


@dataclass
class ClusterParallelConfig:
    """Cluster-wide configuration: one or more data-parallel serving instances."""

    instances: List[InstanceParallelConfig]

    def __post_init__(self) -> None:
        if not self.instances:
            raise ValueError("need at least one serving instance")
        seen: set[int] = set()
        for inst in self.instances:
            for dev in inst.all_devices:
                if dev.device_id in seen:
                    raise ValueError(f"device {dev.name} assigned to multiple instances")
                seen.add(dev.device_id)

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    @property
    def all_devices(self) -> List[GPUDevice]:
        return [d for inst in self.instances for d in inst.all_devices]

    def total_kv_capacity_bytes(self, model: ModelSpec) -> int:
        return sum(inst.total_kv_capacity_bytes(model) for inst in self.instances)
