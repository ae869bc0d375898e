"""The Hetis serving instance: Primary workers + pooled Attention workers.

This execution unit glues together every Hetis mechanism:

* dense modules (QKV, projection, MLP) and prefill Attention run on the
  Primary workers' pipeline, exactly like a conventional instance;
* decode Attention is dispatched head-wise across the aggregate Primary and
  the pooled Attention workers by the :class:`~repro.core.dispatcher.Dispatcher`;
* KV caches are managed head-wise per dispatch target
  (:class:`~repro.kvcache.head_block_manager.HeadwiseBlockManager`);
* the :class:`~repro.core.redispatch.RedispatchPolicy` rebalances long
  requests and resolves per-device cache exhaustion, and the
  :class:`~repro.core.hauler.Hauler` prices the resulting partial migrations.

Modelling note: the Primary workers of an instance
are treated as a single aggregate dispatch target -- heads kept "on the
Primary" are executed by the Primary pipeline with its usual tensor/pipeline
distribution and stored across the Primary devices' pooled KV memory.  This
preserves the paper's mechanism (head-granular offload, LP balancing,
capacity-aware re-dispatch) while keeping per-stage bookkeeping tractable.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.attention_parallel import HeadSplit
from repro.core.dispatcher import Dispatcher, DispatchTarget
from repro.core.hauler import Hauler
from repro.core.redispatch import RedispatchAction, RedispatchPolicy
from repro.hardware.cluster import Cluster
from repro.hardware.gpu import GPUDevice
from repro.kvcache.block_manager import BlockAllocationError
from repro.kvcache.head_block_manager import HeadwiseBlockManager
from repro.models.flops import BatchProfile, LayerCostModel
from repro.models.spec import ModelSpec
from repro.parallel.config import InstanceParallelConfig
from repro.perf.attention_model import (
    DeviceAttentionModel,
    LOCAL_TRANSFER,
    fit_linear_attention_model,
    fit_linear_transfer_model,
)
from repro.perf.commcost import CommModel, attention_transfer_bytes
from repro.perf.roofline import RooflineExecutor
from repro.sim.iteration import Iteration, IterationOutcome
from repro.sim.request import Request, RequestStatus
from repro.sim.scheduler import ContinuousBatchingPolicy, PrefillChunk, SchedulerLimits
from repro.sim.units import ExecutionUnit
from repro.utils.rng import make_rng

PRIMARY_TARGET_ID = -1
"""Pseudo device id of the aggregate Primary dispatch target."""


class HetisInstanceUnit(ExecutionUnit):
    """One Hetis serving instance plugged into the discrete-event engine."""

    def __init__(
        self,
        name: str,
        config: InstanceParallelConfig,
        model: ModelSpec,
        cluster: Cluster,
        limits: SchedulerLimits | None = None,
        theta: float = 0.5,
        solver: str = "lp",
        local_preference: float = 0.15,
        enable_redispatch: bool = True,
        redispatch_check_interval: int = 10,
        profiling_error: float = 0.0,
        hauler_interference: float = 0.05,
        seed: int = 0,
    ) -> None:
        super().__init__(name)
        config.validate_layer_count(model)
        self.config = config
        self.model = model
        self.cluster = cluster
        self.executor = RooflineExecutor(model)
        self.cost_model = LayerCostModel(model)
        self.comm = CommModel(cluster, model)
        self.policy = ContinuousBatchingPolicy(limits)
        self.enable_redispatch = enable_redispatch
        self.redispatch_check_interval = max(1, redispatch_check_interval)
        self._rng = make_rng(seed)

        # -- KV managers per dispatch target -------------------------------------
        kv_capacity = config.kv_capacity_per_device(model)
        primary_capacity = sum(kv_capacity[d.device_id] for d in config.primary_devices)
        self._primary_manager = HeadwiseBlockManager(primary_capacity, model)
        self._worker_managers: Dict[int, HeadwiseBlockManager] = {
            w.device_id: HeadwiseBlockManager(kv_capacity[w.device_id], model)
            for w in config.attention_workers
        }
        self._primary_front = config.stages[0].devices[0]
        self._device_host: Dict[int, int] = {PRIMARY_TARGET_ID: self._primary_front.host_id}
        for w in config.attention_workers:
            self._device_host[w.device_id] = w.host_id

        # Distinct (spec, fraction) pairs per stage: symmetric TP shards on
        # identical GPUs time out identically, so the per-stage max only needs
        # one evaluation per distinct pair (see StageConfig.unique_shards).
        self._stage_unique_shards = [stage.unique_shards() for stage in config.stages]
        # Per-(worker, total offloaded heads) scatter/gather time memo: head
        # counts repeat across decode iterations while the underlying p2p cost
        # is a pure function of (bytes, link).
        self._worker_transfer_cache: Dict[Tuple[int, int], float] = {}

        # -- profiled device models + dispatcher ----------------------------------
        device_models = self._fit_device_models(profiling_error)
        targets = [
            DispatchTarget(
                target_id=PRIMARY_TARGET_ID,
                name=f"{name}/primary",
                device_model=device_models[PRIMARY_TARGET_ID],
                manager=self._primary_manager,
                is_primary=True,
            )
        ]
        for w in config.attention_workers:
            targets.append(
                DispatchTarget(
                    target_id=w.device_id,
                    name=w.name,
                    device_model=device_models[w.device_id],
                    manager=self._worker_managers[w.device_id],
                )
            )
        self.dispatcher = Dispatcher(
            model, targets, solver=solver, local_preference=local_preference
        )
        self.redispatcher = RedispatchPolicy(model, self.dispatcher, theta=theta)
        self.hauler = Hauler(cluster, model, interference_factor=hauler_interference)

        # -- request state ------------------------------------------------------------
        self.waiting: Deque[Request] = deque()
        self.running: List[Request] = []
        self.dropped: List[Request] = []
        self._splits: Dict[int, HeadSplit] = {}
        self._requests: Dict[int, Request] = {}
        self._admission_order: List[int] = []
        self._pending_penalty = 0.0
        self._iterations = 0
        self.num_redispatches = 0
        self.num_cache_redispatches = 0

    # ------------------------------------------------------------------ profiling --

    def _fit_device_models(self, profiling_error: float) -> Dict[int, DeviceAttentionModel]:
        """Fit the linear Attention/transfer models per dispatch target.

        The fit grid mirrors the Profiler (a small grid of head counts and
        cache sizes); ``profiling_error`` perturbs the fitted coefficients for
        the robustness experiment (Fig. 16b).
        """
        heads_grid = np.linspace(self.model.gqa_ratio, self.model.num_heads * 12, 6).astype(int)
        ctx_grid = np.linspace(128, 4096, 6).astype(int)
        models: Dict[int, DeviceAttentionModel] = {}

        def fit(compute_fn) -> Tuple[List[float], List[float], List[float]]:
            hs, gs, ts = [], [], []
            for h in heads_grid:
                for ctx in ctx_grid:
                    n_req = max(1, int(h) // max(1, self.model.num_heads // 2))
                    per_req = max(self.model.gqa_ratio, int(h) // n_req)
                    heads = [per_req] * n_req
                    contexts = [int(ctx)] * n_req
                    hs.append(float(sum(heads)))
                    gs.append(float(sum(hh * cc for hh, cc in zip(heads, contexts))))
                    ts.append(compute_fn(contexts, heads))
            return hs, gs, ts

        primary_fit = fit(self._primary_decode_attention_time)
        primary_compute = fit_linear_attention_model(*primary_fit)
        models[PRIMARY_TARGET_ID] = DeviceAttentionModel(
            device_id=PRIMARY_TARGET_ID,
            device_name=f"{self.name}/primary",
            compute=primary_compute,
            transfer=LOCAL_TRANSFER,
            is_remote=False,
        )
        for worker in self.config.attention_workers:
            worker_fit = fit(lambda ctxs, hds, w=worker: self._worker_decode_attention_time(w, ctxs, hds))
            compute = fit_linear_attention_model(*worker_fit)
            # The transfer model is expressed over the *total* per-iteration byte
            # volume, but the underlying traffic is one scatter/gather per layer,
            # so the fitted beta absorbs `num_layers` point-to-point latencies --
            # this fixed cost is what makes premature offloading unattractive
            # under light load (the delayed ramp-up in Fig. 14).
            sizes = [attention_transfer_bytes(self.model, float(h), per_layer=False) for h in heads_grid]
            times = [
                self.model.num_layers
                * self.cluster.p2p_time(
                    attention_transfer_bytes(self.model, float(h), per_layer=True),
                    self._primary_front,
                    worker,
                )
                for h in heads_grid
            ]
            transfer = fit_linear_transfer_model(sizes, times)
            dev_model = DeviceAttentionModel(
                device_id=worker.device_id,
                device_name=worker.name,
                compute=compute,
                transfer=transfer,
                is_remote=True,
            )
            models[worker.device_id] = dev_model
        if profiling_error > 0:
            models = {k: m.with_error(profiling_error, self._rng) for k, m in models.items()}
        return models

    # --------------------------------------------------------------- ground truth --

    def _primary_decode_attention_time(
        self, contexts: Sequence[int], heads_per_req: Sequence[int]
    ) -> float:
        """Decode Attention time per iteration for heads retained on the Primary."""
        if not contexts or sum(heads_per_req) == 0:
            return 0.0
        total = 0.0
        frac_heads: Dict[float, List[int]] = {}
        for stage_idx, stage in enumerate(self.config.stages):
            per_layer = 0.0
            for spec, frac in self._stage_unique_shards[stage_idx]:
                dev_heads = frac_heads.get(frac)
                if dev_heads is None:
                    dev_heads = [max(0, int(round(h * frac))) for h in heads_per_req]
                    frac_heads[frac] = dev_heads
                per_layer = max(
                    per_layer,
                    self.executor.decode_attention_time(spec, contexts, dev_heads),
                )
            total += stage.num_layers * per_layer
        return total

    def _worker_decode_attention_time(
        self, worker: GPUDevice, contexts: Sequence[int], heads_per_req: Sequence[int]
    ) -> float:
        """Decode Attention time per iteration for heads offloaded to ``worker``."""
        if not contexts or sum(heads_per_req) == 0:
            return 0.0
        per_layer = self.executor.decode_attention_time(worker.spec, contexts, heads_per_req)
        return per_layer * self.model.num_layers

    # ---------------------------------------------------------------- manager access --

    def _manager(self, target_id: int) -> HeadwiseBlockManager:
        if target_id == PRIMARY_TARGET_ID:
            return self._primary_manager
        return self._worker_managers[target_id]

    def _all_managers(self) -> Dict[int, HeadwiseBlockManager]:
        managers = {PRIMARY_TARGET_ID: self._primary_manager}
        managers.update(self._worker_managers)
        return managers

    def _allocate_split(self, request: Request, split: HeadSplit) -> None:
        for target_id, heads in split.allocation.items():
            if heads > 0:
                self._manager(target_id).allocate(request.request_id, heads, request.context_length)

    def _free_request(self, request: Request) -> None:
        for manager in self._all_managers().values():
            if manager.has_sequence(request.request_id):
                manager.free(request.request_id)

    def _total_free_token_heads(self) -> float:
        return sum(
            m.free_blocks * m.block_size * self.model.gqa_ratio for m in self._all_managers().values()
        )

    # --------------------------------------------------------------------- ingress --

    def enqueue(self, request: Request, now: float) -> None:
        self.waiting.append(request)

    # ------------------------------------------------------------------- scheduling --

    def has_work(self) -> bool:
        return bool(self.running or self.waiting)

    def next_iteration(self, now: float) -> Optional[Iteration]:
        # 1. Keep every running decode request appendable, resolving cache
        #    exhaustion through re-dispatch or (modified-)LIFO preemption.
        decode_requests: List[Request] = []
        for req in list(self.running):
            if req.status != RequestStatus.DECODING:
                continue
            if self._ensure_appendable(req):
                decode_requests.append(req)
        decode_requests = [r for r in decode_requests if r in self.running]

        # 2. Admit and dispatch new prefill work (whole prefills, or chunks of
        #    them when chunked prefill is enabled).
        admitted_chunks = self._admit_prefill_chunks()
        prefill_requests = [c.request for c in admitted_chunks if c.completes_prefill]
        partial_prefills = [c for c in admitted_chunks if not c.completes_prefill]

        if not admitted_chunks and not decode_requests:
            if self.waiting and not self.running:
                head = self.waiting[0]
                demand = head.context_length * self.model.num_heads
                if head.prefilled_tokens == 0 and demand > self._total_free_token_heads():
                    self.dropped.append(self.waiting.popleft())
            return None

        batch = BatchProfile(
            prefill_lengths=[c.new_tokens for c in admitted_chunks],
            decode_contexts=[r.context_length for r in decode_requests],
            prefill_cached=[c.cached_tokens for c in admitted_chunks]
            if any(c.cached_tokens for c in admitted_chunks)
            else (),
        )
        duration, module_times = self._iteration_time(batch, decode_requests)
        duration += self._pending_penalty
        self._pending_penalty = 0.0
        return Iteration(
            duration=duration,
            prefill_requests=prefill_requests,
            decode_requests=decode_requests,
            partial_prefills=partial_prefills,
            module_times=module_times,
        )

    def _admit_prefill_chunks(self) -> List[PrefillChunk]:
        """Select the iteration's prefill chunks and dispatch new requests' heads.

        A request's head split and full-context KV allocation are established
        with its *first* chunk; resuming chunks of a partially-prefilled
        request reuse them.  Only requests whose prefill completes this
        iteration join ``running``; a partially-prefilled request stays at the
        head of the waiting queue.
        """
        chunks = self.policy.select_prefill_chunks(
            self.waiting,
            num_running=len(self.running),
            can_admit=lambda r: r.context_length * self.model.num_heads
            <= self._total_free_token_heads(),
        )
        if not chunks:
            return []
        new_chunks = [c for c in chunks if c.is_first]
        decision = None
        if new_chunks:
            decision = self.dispatcher.dispatch_new(
                [(c.request.request_id, c.request.context_length) for c in new_chunks]
            )
            if not decision.feasible:
                # Put popped requests back in arrival order and try again next
                # iteration; chunks of already-dispatched requests may proceed.
                for c in reversed(new_chunks):
                    if c.completes_prefill:
                        self.waiting.appendleft(c.request)
                chunks = [c for c in chunks if not c.is_first]
                new_chunks = []
        admitted: List[PrefillChunk] = []
        for chunk in chunks:
            req = chunk.request
            if chunk.is_first:
                split = decision.splits[req.request_id]
                try:
                    self._allocate_split(req, split)
                except BlockAllocationError:
                    # Fragmentation race between the capacity check and
                    # allocation: return the request to the queue head (a
                    # partial first chunk was never popped).
                    self._free_request(req)
                    if chunk.completes_prefill:
                        self.waiting.appendleft(req)
                    continue
                req.start_prefill()
                self._splits[req.request_id] = split
                self._requests[req.request_id] = req
                self._admission_order.append(req.request_id)
            if chunk.completes_prefill:
                self.running.append(req)
            admitted.append(chunk)
        return admitted

    def _ensure_appendable(self, request: Request) -> bool:
        """Guarantee one more token can be cached for ``request`` on all its targets."""
        split = self._splits.get(request.request_id)
        if split is None:
            return False
        guard = 0
        while True:
            guard += 1
            if guard > 64:
                self._preempt(request)
                return False
            exhausted = None
            for target_id in split.targets():
                if not self._manager(target_id).can_append(request.request_id):
                    exhausted = target_id
                    break
            if exhausted is None:
                return True
            resolved = self._resolve_cache_exhaustion(exhausted)
            if not resolved:
                self._preempt(request)
                return False
            split = self._splits.get(request.request_id)
            if split is None:
                return False

    def _resolve_cache_exhaustion(self, target_id: int) -> bool:
        """Apply the cache-balance re-dispatching policy (or plain LIFO)."""
        contexts = {rid: self._requests[rid].context_length for rid in self._splits}
        if not self.enable_redispatch:
            # Plain LIFO over all running requests (the Fig.-15a baseline).
            victims = [rid for rid in self._admission_order if rid in self._splits]
            if not victims:
                return False
            self._preempt(self._requests[victims[-1]])
            return True
        decision = self.redispatcher.handle_cache_exhaustion(
            target_id, self._splits, contexts, self._admission_order
        )
        if decision.action == RedispatchAction.REDISPATCH and decision.new_split is not None:
            self._apply_redispatch(decision.request_id, decision.new_split)
            self.num_cache_redispatches += 1
            return True
        if decision.action == RedispatchAction.PREEMPT and decision.request_id is not None:
            self._preempt(self._requests[decision.request_id])
            return True
        return False

    def _apply_redispatch(self, request_id: int, new_split: HeadSplit) -> None:
        """Move a request to a new head allocation, pricing the cache migration."""
        request = self._requests[request_id]
        old_split = self._splits[request_id]
        report = self.hauler.migrate(
            request_id,
            request.context_length,
            old_split.allocation,
            new_split.allocation,
            self._device_host,
        )
        # Re-home the cache bookkeeping: free the old placement, then allocate
        # the new one (capacity was validated by the dispatcher's LP).
        self._free_request(request)
        try:
            self._allocate_split(request, new_split)
        except BlockAllocationError:
            # Restore the previous placement; abandon this re-dispatch.
            self._allocate_split(request, old_split)
            return
        self._splits[request_id] = new_split
        request.num_redispatches += 1
        self.num_redispatches += 1
        self._pending_penalty += report.blocking_seconds

    def _preempt(self, request: Request) -> None:
        self._free_request(request)
        self._splits.pop(request.request_id, None)
        if request.request_id in self._admission_order:
            self._admission_order.remove(request.request_id)
        if request in self.running:
            self.running.remove(request)
        request.preempt()
        if request not in self.waiting:
            # A partially-prefilled victim is still sitting at the head of the
            # waiting queue; do not enqueue it a second time.
            self.waiting.appendleft(request)

    # ----------------------------------------------------------------------- timing --

    def _iteration_time(
        self, batch: BatchProfile, decode_requests: Sequence[Request]
    ) -> Tuple[float, Dict[str, float]]:
        """Iteration duration with dynamic-Attention-parallel decode Attention."""
        tokens = batch.total_tokens
        n_stages = len(self.config.stages)

        # Dense pipeline (QKV + projection + MLP + prefill attention + TP comm).
        stage_totals: List[float] = []
        max_mlp = 0.0
        for stage_idx, stage in enumerate(self.config.stages):
            per_layer_dense = 0.0
            per_layer_mlp = 0.0
            per_layer_prefill_attn = 0.0
            for spec, frac in self._stage_unique_shards[stage_idx]:
                heads = max(self.model.gqa_ratio, int(round(self.model.num_heads * frac)))
                dense = self.cost_model.dense_cost(batch).scaled(frac)
                mlp = self.cost_model.mlp_cost(tokens).scaled(frac)
                pre_attn = self.cost_model.prefill_attention_batch_cost(batch, heads)
                per_layer_dense = max(per_layer_dense, self.executor.module_time(dense, spec, tokens))
                per_layer_mlp = max(per_layer_mlp, self.executor.module_time(mlp, spec, tokens))
                per_layer_prefill_attn = max(
                    per_layer_prefill_attn, self.executor.attention_module_time(pre_attn, spec)
                )
            comm = 0.0
            if stage.tp_degree > 1:
                comm = 2.0 * self.comm.tp_allreduce_time(stage.devices, tokens)
            stage_totals.append(stage.num_layers * (per_layer_dense + per_layer_prefill_attn + comm))
            max_mlp = max(max_mlp, stage.num_layers * per_layer_mlp)

        last_stage = self.config.stages[-1]
        lm_head = self.executor.lm_head_time(
            last_stage.devices[0].spec, tokens, tp_degree=last_stage.tp_degree
        )
        handoff = 0.0
        for prev, nxt in zip(self.config.stages[:-1], self.config.stages[1:]):
            handoff += self.comm.pipeline_handoff_time(prev.devices[-1], nxt.devices[0], tokens)

        decode_attn = self._decode_attention_time(decode_requests)
        duration = sum(stage_totals) + lm_head + handoff + decode_attn
        module_times = {
            "mlp": max_mlp * n_stages,
            "attention": decode_attn,
            "iteration": duration,
        }
        return duration, module_times

    def _decode_attention_time(self, decode_requests: Sequence[Request]) -> float:
        """Max over dispatch targets of their decode-Attention + transfer time."""
        if not decode_requests:
            return 0.0
        contexts = [r.context_length for r in decode_requests]
        # Primary retained heads.
        primary_heads = [
            self._splits[r.request_id].heads_on(PRIMARY_TARGET_ID) for r in decode_requests
        ]
        times = [self._primary_decode_attention_time(contexts, primary_heads)]
        for worker in self.config.attention_workers:
            heads = [
                self._splits[r.request_id].heads_on(worker.device_id) for r in decode_requests
            ]
            total_heads = sum(heads)
            if total_heads == 0:
                continue
            compute = self._worker_decode_attention_time(worker, contexts, heads)
            # One per-head scatter/gather per layer (matching the fitted model).
            transfer_key = (worker.device_id, total_heads)
            transfer = self._worker_transfer_cache.get(transfer_key)
            if transfer is None:
                transfer = self.model.num_layers * self.cluster.p2p_time(
                    attention_transfer_bytes(self.model, float(total_heads), per_layer=True),
                    self._primary_front,
                    worker,
                )
                self._worker_transfer_cache[transfer_key] = transfer
            times.append(compute + transfer)
        return max(times)

    # -------------------------------------------------------------------- completion --

    def complete_iteration(self, iteration: Iteration, now: float) -> IterationOutcome:
        outcome = IterationOutcome()
        for req in iteration.decode_requests:
            if req not in self.running or req.status != RequestStatus.DECODING:
                continue
            # Earlier appends in this iteration may have consumed the last free
            # blocks on a shared target; re-run the exhaustion handling before
            # committing this request's new token.
            if not self._ensure_appendable(req) or req not in self.running:
                continue
            split = self._splits.get(req.request_id)
            if split is None:
                continue
            for target_id in split.targets():
                self._manager(target_id).append_token(req.request_id)
            req.add_decode_token(now)
            if req.is_finished:
                self._retire(req)
                outcome.finished.append(req)
        for chunk in iteration.partial_prefills:
            # Non-final chunks only advance prefill progress (the request may
            # have been preempted mid-iteration by cache exhaustion, in which
            # case its progress was reset and the chunk is void).
            if chunk.request.status == RequestStatus.PREFILLING:
                chunk.request.advance_prefill(chunk.new_tokens)
        for req in iteration.prefill_requests:
            if req not in self.running:
                continue
            req.complete_prefill(now)
            if req.is_finished:
                self._retire(req)
                outcome.finished.append(req)
        self._iterations += 1
        if self.enable_redispatch and self._iterations % self.redispatch_check_interval == 0:
            self._check_compute_balance()
        return outcome

    def _retire(self, request: Request) -> None:
        self._free_request(request)
        self._splits.pop(request.request_id, None)
        self._requests.pop(request.request_id, None)
        if request.request_id in self._admission_order:
            self._admission_order.remove(request.request_id)
        if request in self.running:
            self.running.remove(request)

    def _check_compute_balance(self) -> None:
        contexts = {rid: self._requests[rid].context_length for rid in self._splits}
        decision = self.redispatcher.check_compute_balance(self._splits, contexts)
        if decision.action == RedispatchAction.REDISPATCH and decision.new_split is not None:
            self._apply_redispatch(decision.request_id, decision.new_split)

    # ------------------------------------------------------------------ introspection --

    def kv_utilization(self) -> Dict[str, float]:
        usage = {f"{self.name}/primary": self._primary_manager.utilization}
        for worker in self.config.attention_workers:
            usage[worker.name] = self._worker_managers[worker.device_id].utilization
        return usage

    def head_counts(self) -> Dict[str, float]:
        """Query heads currently resident per dispatch target (Fig. 14 series)."""
        counts = {f"{self.name}/primary": float(self._primary_manager.total_query_heads())}
        for worker in self.config.attention_workers:
            counts[worker.name] = float(self._worker_managers[worker.device_id].total_query_heads())
        return counts

    def available_kv_bytes(self) -> float:
        total = self._primary_manager.total_blocks * self._primary_manager.bytes_per_block_group
        for manager in self._worker_managers.values():
            total += manager.total_blocks * manager.bytes_per_block_group
        return float(total)

    @property
    def num_waiting(self) -> int:
        return len(self.waiting)

    @property
    def num_running(self) -> int:
        return len(self.running)
