"""The static pipeline execution unit of the baselines and Hetis' Primary workers.

:class:`StaticPipelineUnit` implements the conventional execution model used
by the baselines and by Hetis' Primary workers for dense computation: a
pipeline of (possibly asymmetric) tensor-parallel stages with paged KV caches
and vLLM-style LIFO preemption, on the shared continuous-batching core
(:mod:`repro.sim.batching`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from repro.hardware.cluster import Cluster
from repro.kvcache.block_manager import PagedBlockManager
from repro.models.flops import BatchProfile, LayerCostModel
from repro.models.spec import ModelSpec
from repro.parallel.config import InstanceParallelConfig
from repro.perf.commcost import CommModel
from repro.perf.roofline import RooflineExecutor
from repro.sim.batching import DECODING, PREFILLING, ContinuousBatchingUnit, ExecutionUnit
from repro.sim.request import Request, RequestStatus
from repro.sim.scheduler import PrefillChunk, SchedulerLimits

__all__ = ["ExecutionUnit", "StaticPipelineUnit"]


class StaticPipelineUnit(ContinuousBatchingUnit):
    """Pipeline-parallel, (asymmetric) tensor-parallel execution unit.

    Parameters
    ----------
    config:
        The instance's stage layout.  ``attention_workers`` in the config are
        ignored by this unit (they are a Hetis concept).
    mode:
        ``"both"`` runs prefill and decode (HexGen, plain TP); ``"prefill"``
        only prefills and hands requests off; ``"decode"`` only accepts
        prefilled requests.
    """

    def __init__(
        self,
        name: str,
        config: InstanceParallelConfig,
        model: ModelSpec,
        cluster: Cluster,
        limits: SchedulerLimits | None = None,
        mode: str = "both",
    ) -> None:
        if mode not in ("both", "prefill", "decode"):
            raise ValueError(f"invalid mode {mode!r}")
        config.validate_layer_count(model)
        self.config = config
        self.cluster = cluster
        self.mode = mode
        self.hands_off = mode == "prefill"
        self.executor = RooflineExecutor(model)
        self.cost_model = LayerCostModel(model)
        self.comm = CommModel(cluster, model)

        # Per-device KV share: fraction of a request's total KV bytes stored on
        # each device = (layers on the device / all layers) * its shard fraction.
        total_layers = config.total_layers
        share: Dict[int, float] = {}
        for stage in config.stages:
            layer_frac = stage.num_layers / total_layers
            for dev, frac in zip(stage.devices, stage.fractions()):
                share[dev.device_id] = share.get(dev.device_id, 0.0) + layer_frac * frac
        kv_capacity = config.kv_capacity_per_device(model)
        managers = {
            dev.name: PagedBlockManager(kv_capacity[dev.device_id], model.kv_bytes_per_token() * share[dev.device_id])
            for dev in config.primary_devices
            if share.get(dev.device_id, 0.0) > 0
        }
        # Every device allocates, grows and frees the same sequences in
        # lockstep, so all hold identical per-sequence block counts: one table
        # sized by the smallest device decides for all of them.
        self._device_blocks = {dev: m.total_blocks for dev, m in managers.items()}
        self._table = min(managers.values(), key=lambda m: m.total_blocks)
        super().__init__(name, model, limits, self._table.block_size)

        # Per-stage (spec, fraction) de-duplication for timing (see
        # StageConfig.unique_shards).
        self._stage_unique_shards = [stage.unique_shards() for stage in config.stages]
        self.pending_prefilled: Deque[Request] = deque()

    # -- ingress -----------------------------------------------------------------------

    def enqueue(self, request: Request, now: float) -> None:
        if self.mode == "decode":
            raise RuntimeError(f"{self.name} is decode-only and cannot prefill")
        self.waiting.append(request)

    def enqueue_prefilled(self, request: Request, now: float) -> None:
        if self.mode == "prefill":
            raise RuntimeError(f"{self.name} is prefill-only and cannot decode")
        self.pending_prefilled.append(request)

    def has_work(self) -> bool:
        return bool(self.running or self.waiting or self.pending_prefilled)

    # -- egress (drains / failures) ------------------------------------------------

    def evict_queued(self, now: float) -> List[Request]:
        movable = [
            r
            for r in self.waiting
            if r.status in (RequestStatus.QUEUED, RequestStatus.PREEMPTED)
        ]
        for req in movable:
            self.waiting.remove(req)
        return movable

    def preempt_running(self, now: float) -> List[Request]:
        # Partially-prefilled requests sit in the waiting queue but hold KV
        # blocks for their full prefill target; a failure drops those too.
        # They go first, so the running victims queue up ahead of them.
        victims = [r for r in self.waiting if r.status == PREFILLING]
        victims += [r for r in self.running if not r.is_finished]
        for req in victims:
            self._preempt(req)
        return victims

    # -- KV block table ----------------------------------------------------------------

    def hostable_tokens(self) -> int:
        """Context tokens the unit can hold in an empty cache (its smallest device decides)."""
        return self._table.total_blocks * self._table.block_size

    def _allocate(self, request: Request, tokens: int) -> None:
        # The table reserves whole blocks, so it is only touched again when
        # the cached count reaches the end of the last one (see _append).
        self._table.allocate(request.request_id, -(-tokens // self.block_size) * self.block_size)

    def _fits(self, request: Request) -> bool:
        return self._table.can_allocate(request.context_length)

    def _exhausted(self, request: Request) -> object:
        return None if self._table.can_append(request.request_id, self.block_size) else self._table

    def _make_room(self, request: Request, exhausted: object) -> bool:
        """LIFO: preempt the most recently admitted other decoding request."""
        for victim in reversed(self.running):
            if victim.status is DECODING and victim is not request:
                self._preempt(victim)
                return True
        return False

    def _append(self, request: Request) -> None:
        # A token that starts a block reserves all of it; the rest land in it.
        if self.running[request] % self.block_size == 0:
            self._table.append(request.request_id, self.block_size)

    def _release(self, request: Request) -> None:
        if self._table.has_sequence(request.request_id):
            self._table.free(request.request_id)

    # -- admission ---------------------------------------------------------------------

    def _admit(self, decode_requests: List[Request]) -> List[PrefillChunk]:
        table, pending = self._table, self.pending_prefilled
        # Prefilled hand-offs first (decode / both modes).
        while pending and len(self.running) < self.policy.limits.max_running_requests:
            candidate = pending[0]
            if not self._fits(candidate):
                # The only block holder besides running requests is an
                # in-flight partial prefill, and it sits at the queue head.
                holds_blocks = bool(self.waiting) and self.waiting[0].status is PREFILLING
                if candidate.context_length > self.hostable_tokens() or (not self.running and not holds_blocks):
                    # Shed instead of deadlocking: the hand-off exceeds the
                    # unit's total capacity, or nothing holds blocks that
                    # could ever be freed.  Keep scanning -- requests queued
                    # behind a doomed hand-off may still fit.
                    self.dropped.append(pending.popleft())
                    continue
                break
            pending.popleft()
            self._allocate(candidate, candidate.context_length)
            candidate.status = DECODING
            self.running[candidate] = candidate.context_length
            decode_requests.append(candidate)
        if self.mode == "decode":
            return []

        # New prefill work -- whole prefills, or chunks of them.  Approved
        # candidates allocate only after selection finishes, so the check
        # keeps a running reservation: two requests that each fit alone but
        # not together must not both pass.
        reserved = 0

        def can_admit(request: Request) -> bool:
            nonlocal reserved
            need = table.blocks_needed(request.context_length)
            if reserved + need > table.free_blocks:
                return False
            reserved += need
            return True

        chunks = self.policy.select_prefill_chunks(self.waiting, len(self.running), can_admit)
        for chunk in chunks:
            if chunk.is_first:
                # The full-context KV allocation happens with the first chunk;
                # later chunks fill blocks already reserved.
                self._allocate(chunk.request, chunk.request.prefill_target)
                chunk.request.start_prefill()
        return chunks

    # -- timing -----------------------------------------------------------------------------

    def _stage_times(self, stage_idx: int, batch: BatchProfile) -> Dict[str, float]:
        """Per-layer module times of one stage (max over its TP shard devices).

        Iterates the stage's distinct ``(GPU spec, shard fraction)`` pairs
        instead of every device: identical shards on identical GPUs produce
        identical times, so the max over the de-duplicated set is the same
        value at a fraction of the cost (paper-cluster stages are typically
        4-way symmetric TP).
        """
        stage = self.config.stages[stage_idx]
        tokens = batch.total_tokens
        dense_t = mlp_t = attn_t = 0.0
        n_decode = len(batch.decode_contexts)
        for spec, frac in self._stage_unique_shards[stage_idx]:
            heads = max(self.model.gqa_ratio, int(round(self.model.num_heads * frac)))
            dense_cost = self.cost_model.dense_cost(batch).scaled(frac)
            mlp_cost = self.cost_model.mlp_cost(tokens).scaled(frac)
            pre_attn = self.cost_model.prefill_attention_batch_cost(batch, heads)
            dec_attn = self.cost_model.decode_attention_batch_cost(
                batch.decode_contexts, [heads] * n_decode
            )
            dense_t = max(dense_t, self.executor.module_time(dense_cost, spec, tokens))
            mlp_t = max(mlp_t, self.executor.module_time(mlp_cost, spec, tokens))
            attn_t = max(
                attn_t,
                self.executor.attention_module_time(pre_attn, spec)
                + self.executor.attention_module_time(dec_attn, spec),
            )
        comm_t = 0.0
        if stage.tp_degree > 1:
            comm_t = 2.0 * self.comm.tp_allreduce_time(stage.devices, tokens)
        return {"dense": dense_t, "mlp": mlp_t, "attention": attn_t, "comm": comm_t}

    def _iteration_time(self, batch: BatchProfile, decode_requests: List[Request]) -> tuple[float, Dict[str, float]]:
        """Total iteration duration plus the module-latency metrics.

        The duration is the latency of the batch traversing the full pipeline
        (sum of stage times plus hidden-state hand-offs); the module metrics
        follow the paper's definition (max per-stage module time multiplied by
        the number of stages, reflecting pipeline bubbles).
        """
        tokens = batch.total_tokens
        n_stages = len(self.config.stages)
        stage_totals: List[float] = []
        max_mlp = max_attn = 0.0
        for stage_idx, stage in enumerate(self.config.stages):
            per_layer = self._stage_times(stage_idx, batch)
            stage_total = stage.num_layers * (
                per_layer["dense"] + per_layer["attention"] + per_layer["comm"]
            )
            stage_totals.append(stage_total)
            max_mlp = max(max_mlp, stage.num_layers * per_layer["mlp"])
            max_attn = max(max_attn, stage.num_layers * per_layer["attention"])
        # LM head on the last stage.
        last_stage = self.config.stages[-1]
        lm_head = self.executor.lm_head_time(
            last_stage.devices[0].spec, tokens, tp_degree=last_stage.tp_degree
        )
        handoff = 0.0
        for prev, nxt in zip(self.config.stages[:-1], self.config.stages[1:]):
            handoff += self.comm.pipeline_handoff_time(prev.devices[-1], nxt.devices[0], tokens)
        duration = sum(stage_totals) + lm_head + handoff
        module_times = {
            "mlp": max_mlp * n_stages,
            "attention": max_attn * n_stages,
            "iteration": duration,
        }
        return duration, module_times

    # -- introspection ---------------------------------------------------------------------------

    def kv_utilization(self) -> Dict[str, float]:
        used = self._table.used_blocks
        return {dev: used / blocks if blocks else 0.0 for dev, blocks in self._device_blocks.items()}

    def available_kv_bytes(self) -> float:
        """Effective KV capacity: what the bottleneck device lets the unit host.

        Every admitted request consumes cache on *all* devices in proportion to
        their layer/shard share, so the number of tokens the unit can hold is
        limited by the device whose per-token share exhausts first -- this is
        the computation/memory-imbalance waste the paper illustrates in
        Fig. 1(b) and measures in Fig. 11.  The value reported here is that
        hostable token count priced at the full per-token KV footprint.
        """
        return float(self.hostable_tokens() * self.model.kv_bytes_per_token())

    @property
    def num_waiting(self) -> int:
        return len(self.waiting) + len(self.pending_prefilled)
