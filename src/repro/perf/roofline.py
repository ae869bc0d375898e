"""Roofline execution-time model: the simulation's stand-in for real kernels.

Given a :class:`~repro.models.flops.ModuleCost` and a
:class:`~repro.hardware.gpu.GPUSpec`, the executor charges::

    time = max(flops / flops_rate, bytes / mem_bandwidth) + kernels * kernel_overhead

where ``flops_rate`` is the large-GEMM rate for prefill-sized workloads and a
lower "small batch" rate for decode-sized dense work (low-end GPUs fall off
their roofline much faster for small kernels, which is what produces the
paper's 24.5x prefill vs 7.93x decode gap between A100 and P100 in Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.hardware.gpu import GPUSpec
from repro.models.flops import BatchProfile, LayerCostModel, ModuleCost
from repro.models.spec import ModelSpec


@dataclass(frozen=True)
class ModuleTiming:
    """Execution time breakdown of a single module on a single device."""

    name: str
    device: str
    seconds: float
    flops: float
    bytes: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("module time must be >= 0")


@dataclass
class IterationTiming:
    """Per-module times of one full-layer iteration plus the per-layer total."""

    modules: List[ModuleTiming] = field(default_factory=list)

    @property
    def total(self) -> float:
        return sum(m.seconds for m in self.modules)

    def module(self, name: str) -> ModuleTiming:
        for m in self.modules:
            if m.name == name:
                return m
        raise KeyError(f"no module named {name!r} in this timing")

    def by_name(self) -> Dict[str, float]:
        return {m.name: m.seconds for m in self.modules}


class RooflineExecutor:
    """Computes module and layer execution times for a model on any GPU type.

    The executor is *stateless* with respect to requests -- it answers
    "how long would this much work take on this device" -- and is used both as
    the ground truth inside the discrete-event simulator and, through the
    Hetis units' pricing, as the target their linear dispatch models are fitted
    against.
    """

    # Dense batches at or below this many tokens are treated as launch/bandwidth
    # bound and use the device's small-batch throughput; larger batches approach
    # the large-GEMM roofline.  The blend is linear in between to avoid cliffs.
    SMALL_BATCH_TOKENS = 64
    LARGE_BATCH_TOKENS = 1024

    def __init__(self, model: ModelSpec) -> None:
        self.model = model
        self.cost_model = LayerCostModel(model)

    # -- low-level primitives ----------------------------------------------------

    @classmethod
    def dense_flops_rate(cls, spec: GPUSpec, num_tokens: int) -> float:
        """Effective GEMM throughput for a dense module over ``num_tokens``."""
        if num_tokens <= cls.SMALL_BATCH_TOKENS:
            return spec.small_batch_flops
        if num_tokens >= cls.LARGE_BATCH_TOKENS:
            return spec.matmul_flops
        frac = (num_tokens - cls.SMALL_BATCH_TOKENS) / (
            cls.LARGE_BATCH_TOKENS - cls.SMALL_BATCH_TOKENS
        )
        return spec.small_batch_flops + frac * (spec.matmul_flops - spec.small_batch_flops)

    def module_time(self, cost: ModuleCost, spec: GPUSpec, num_tokens: int = 0) -> float:
        """Roofline time of an arbitrary :class:`ModuleCost` on ``spec``."""
        if cost.flops == 0 and cost.total_bytes == 0:
            return 0.0
        rate = self.dense_flops_rate(spec, num_tokens)
        compute = cost.flops / rate
        memory = cost.total_bytes / spec.mem_bandwidth
        return max(compute, memory) + cost.kernels * spec.kernel_overhead

    def attention_module_time(self, cost: ModuleCost, spec: GPUSpec) -> float:
        """Roofline time of an attention module (always bandwidth-dominated).

        Attention kernels use the small-batch compute rate: they are made of
        many small matrix-vector products with poor tensor-core utilisation.
        """
        if cost.flops == 0 and cost.total_bytes == 0:
            return 0.0
        compute = cost.flops / spec.small_batch_flops
        memory = cost.total_bytes / spec.mem_bandwidth
        return max(compute, memory) + cost.kernels * spec.kernel_overhead

    # -- per-module convenience ----------------------------------------------------

    def dense_time(self, spec: GPUSpec, batch: BatchProfile, tp_degree: int = 1) -> float:
        """Dense modules (QKV + output projection + MLP) of one layer."""
        cost = self.cost_model.dense_cost(batch, tp_degree)
        return self.module_time(cost, spec, batch.total_tokens)

    def mlp_time(self, spec: GPUSpec, batch: BatchProfile, tp_degree: int = 1) -> float:
        """MLP module only (the paper's Fig. 2a / Fig. 13 quantity)."""
        cost = self.cost_model.mlp_cost(batch.total_tokens, tp_degree)
        return self.module_time(cost, spec, batch.total_tokens)

    def prefill_attention_time(self, spec: GPUSpec, batch: BatchProfile, num_query_heads: int | None = None) -> float:
        cost = self.cost_model.prefill_attention_batch_cost(batch, num_query_heads)
        return self.attention_module_time(cost, spec)

    def decode_attention_time(
        self,
        spec: GPUSpec,
        contexts: Sequence[int],
        heads_per_request: Sequence[int] | None = None,
    ) -> float:
        """Decode Attention over a batch with optional per-request head shares."""
        cost = self.cost_model.decode_attention_batch_cost(contexts, heads_per_request)
        return self.attention_module_time(cost, spec)

    def lm_head_time(self, spec: GPUSpec, num_tokens: int, tp_degree: int = 1) -> float:
        cost = self.cost_model.lm_head_cost(num_tokens, tp_degree)
        return self.module_time(cost, spec, num_tokens)

    # -- layer / iteration level -----------------------------------------------------

    def layer_timing(self, spec: GPUSpec, batch: BatchProfile, tp_degree: int = 1) -> IterationTiming:
        """Breakdown of one layer's execution into named modules on one device."""
        tokens = batch.total_tokens
        heads = self.model.num_heads // tp_degree
        qkv = self.cost_model.qkv_cost(tokens, tp_degree)
        proj = self.cost_model.attn_output_proj_cost(tokens, tp_degree)
        mlp = self.cost_model.mlp_cost(tokens, tp_degree)
        pre_attn = self.cost_model.prefill_attention_batch_cost(batch, heads)
        dec_attn = self.cost_model.decode_attention_batch_cost(
            batch.decode_contexts, [heads] * len(batch.decode_contexts)
        )
        modules = [
            ModuleTiming("qkv", spec.name, self.module_time(qkv, spec, tokens), qkv.flops, qkv.total_bytes),
            ModuleTiming(
                "prefill_attention", spec.name, self.attention_module_time(pre_attn, spec), pre_attn.flops, pre_attn.total_bytes
            ),
            ModuleTiming(
                "decode_attention", spec.name, self.attention_module_time(dec_attn, spec), dec_attn.flops, dec_attn.total_bytes
            ),
            ModuleTiming("attn_out_proj", spec.name, self.module_time(proj, spec, tokens), proj.flops, proj.total_bytes),
            ModuleTiming("mlp", spec.name, self.module_time(mlp, spec, tokens), mlp.flops, mlp.total_bytes),
        ]
        return IterationTiming(modules=modules)

    def layer_time(self, spec: GPUSpec, batch: BatchProfile, tp_degree: int = 1) -> float:
        return self.layer_timing(spec, batch, tp_degree).total

    def full_model_time(self, spec: GPUSpec, batch: BatchProfile, tp_degree: int = 1) -> float:
        """Time to push an iteration batch through *all* layers on one device.

        This is the quantity Table 1 of the paper reports ("the iteration time
        used to go through all layers").
        """
        per_layer = self.layer_time(spec, batch, tp_degree)
        head = self.lm_head_time(spec, batch.total_tokens, tp_degree)
        return per_layer * self.model.num_layers + head
