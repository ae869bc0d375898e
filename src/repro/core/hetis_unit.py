"""The Hetis serving instance: Primary workers + pooled Attention workers.

This execution unit glues together every Hetis mechanism:

* dense modules (QKV, projection, MLP) and prefill Attention run on the
  Primary workers' pipeline, exactly like a conventional instance;
* decode Attention is dispatched head-wise across the aggregate Primary and
  the pooled Attention workers by the :class:`~repro.core.dispatcher.Dispatcher`;
* KV caches are managed head-wise per dispatch target
  (:class:`~repro.kvcache.head_block_manager.HeadwiseBlockManager`), and a
  load ledger keeps every target's h_i and g_i as running totals for the
  dispatcher (:meth:`HetisInstanceUnit.target_loads`);
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

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.attention_parallel import HeadSplit
from repro.core.dispatcher import Dispatcher, DispatchTarget
from repro.core.hauler import Hauler
from repro.core.redispatch import RedispatchAction, RedispatchPolicy
from repro.hardware.cluster import Cluster
from repro.hardware.gpu import GPUDevice
from repro.kvcache.block_manager import BlockAllocationError
from repro.kvcache.head_block_manager import HeadwiseBlockManager
from repro.models.spec import ModelSpec
from repro.parallel.config import InstanceParallelConfig
from repro.perf.attention_model import (
    AttentionTimeModel,
    DeviceAttentionModel,
    LOCAL_TRANSFER,
    fit_linear_attention_model,
    fit_linear_transfer_model,
)
from repro.perf.commcost import CommModel, attention_transfer_bytes
from repro.perf.pipeline_cost import PipelineCost
from repro.perf.roofline import RooflineExecutor
from repro.sim.batching import ContinuousBatchingUnit
from repro.sim.request import Request
from repro.sim.scheduler import PrefillChunk, SchedulerLimits
from repro.utils.rng import make_rng

PRIMARY_TARGET_ID = -1
"""Pseudo device id of the aggregate Primary dispatch target."""

REDISPATCH_CHECK_INTERVAL = 10
"""Decode epochs between two compute-balance (θ trigger) checks."""

HAULER_INTERFERENCE = 0.05
"""Share of a head migration's transfer time that blocks the instance."""

HeadShares = Tuple[Tuple[int, int, int], ...]
"""``(slot, query heads, KV groups)`` of one request, for each decode-Attention slot it has heads on."""


class _Contexts(Mapping[int, int]):
    """Each held request's current context length, by request id, read only when looked up.

    Live over the unit's requests: a balance check the f* floor settles
    reads none of them.
    """

    def __init__(self, requests: Dict[int, Request]) -> None:
        self._requests = requests

    def __getitem__(self, request_id: int) -> int:
        return self._requests[request_id].context_length

    def __iter__(self) -> Iterator[int]:
        return iter(self._requests)

    def __len__(self) -> int:
        return len(self._requests)


class HetisInstanceUnit(ContinuousBatchingUnit):
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
        profiling_error: float = 0.0,
        seed: int = 0,
    ) -> None:
        config.validate_layer_count(model)
        # -- KV managers per dispatch target -------------------------------------
        kv_capacity = config.kv_capacity_per_device(model)
        primary_capacity = sum(kv_capacity[d.device_id] for d in config.primary_devices)
        self._managers: Dict[int, HeadwiseBlockManager] = {
            PRIMARY_TARGET_ID: HeadwiseBlockManager(primary_capacity, model)
        }
        for w in config.attention_workers:
            self._managers[w.device_id] = HeadwiseBlockManager(kv_capacity[w.device_id], model)
        super().__init__(name, model, limits, self._managers[PRIMARY_TARGET_ID].block_size)
        # The load ledger (see _book and target_loads): per target, the booked
        # Σ heads x tokens, a decoding request's tokens taken less the epoch,
        # and the heads of decoding requests, whose tokens grow with the epoch.
        self._booked: Dict[int, int] = dict.fromkeys(self._managers, 0)
        self._decoding_heads: Dict[int, int] = dict.fromkeys(self._managers, 0)
        self._target_index = {target_id: i for i, target_id in enumerate(self._managers)}
        # Fig. 14 series keys, per target.
        self._series = [(f"{name}/primary", self._managers[PRIMARY_TARGET_ID])]
        self._series += [(w.name, self._managers[w.device_id]) for w in config.attention_workers]
        self.config = config
        self.cluster = cluster
        self.pipeline = PipelineCost(config, RooflineExecutor(model), CommModel(cluster, model))
        self.enable_redispatch = enable_redispatch
        self._rng = make_rng(seed)
        self._primary_front = config.stages[0].devices[0]
        self._device_host: Dict[int, int] = {PRIMARY_TARGET_ID: self._primary_front.host_id}
        for w in config.attention_workers:
            self._device_host[w.device_id] = w.host_id
        # Each Attention worker's index in the layout (and in its decode plan) and device.
        self._workers: Dict[int, Tuple[int, GPUDevice]] = {
            w.device_id: (k, w) for k, w in enumerate(config.attention_workers)
        }

        # Decode Attention is priced per slot: one per distinct Primary shard
        # fraction, then one per Attention worker.  Per slot, the ledger keeps
        # four sums over the decoding requests' head shares there (see
        # _regroup), so an iteration prices in O(slots) from the pipeline's
        # decode plan.  Head shares are memoized by head allocation (see
        # _shares), so a re-dispatch needs no invalidation.
        self._slot_ledger = [[0, 0, 0, 0] for _ in range(len(self.pipeline.fractions) + len(config.attention_workers))]
        self._worker_ledger = [
            (k, w.device_id, sums)
            for k, (w, sums) in enumerate(zip(config.attention_workers, self._slot_ledger[len(self.pipeline.fractions):]))
        ]
        self._head_shares_memo: Dict[Tuple[Tuple[int, int], ...], HeadShares] = {}
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
                manager=self._managers[PRIMARY_TARGET_ID],
                is_primary=True,
            )
        ]
        for w in config.attention_workers:
            targets.append(
                DispatchTarget(
                    target_id=w.device_id,
                    name=w.name,
                    device_model=device_models[w.device_id],
                    manager=self._managers[w.device_id],
                )
            )
        self.dispatcher = Dispatcher(
            model, targets, self.target_loads, solver=solver, local_preference=local_preference
        )
        self.redispatcher = RedispatchPolicy(model, self.dispatcher, theta=theta)
        self.hauler = Hauler(cluster, model, interference_factor=HAULER_INTERFERENCE)

        # -- request state ------------------------------------------------------------
        # Head splits of every request holding cache, in admission order (the
        # order the modified-LIFO victim selection walks), and the requests.
        self._splits: Dict[int, HeadSplit] = {}
        self._requests: Dict[int, Request] = {}
        self._contexts = _Contexts(self._requests)
        self._pending_penalty = 0.0
        self.num_redispatches = 0
        self.num_cache_redispatches = 0

    # ------------------------------------------------------------------ profiling --

    def _fit_device_models(self, profiling_error: float) -> Dict[int, DeviceAttentionModel]:
        """Fit Eq. (3) and Eq. (4) per dispatch target: the Dispatcher's only profiler.

        Every target is measured through :meth:`attention_time` on a 6 x 6
        grid of head counts and cache sizes, and every Attention worker's link
        through :meth:`transfer_time` on the same head counts.
        ``profiling_error`` perturbs the fitted coefficients for the
        robustness experiment (Fig. 16b).
        """
        r = self.model.gqa_ratio
        heads_grid = np.linspace(r, self.model.num_heads * 12, 6).astype(int)
        ctx_grid = np.linspace(128, 4096, 6).astype(int)
        models: Dict[int, DeviceAttentionModel] = {}

        def fit(target_id: int) -> AttentionTimeModel:
            hs, gs, ts = [], [], []
            for h in heads_grid:
                for ctx in ctx_grid:
                    # n_req requests of per_req heads each, all on the target;
                    # per_req is a multiple of r, as every head split's share is.
                    n_req = max(1, int(h) // max(1, self.model.num_heads // 2))
                    per_req = max(r, int(h) // n_req // r * r)
                    hs.append(float(n_req * per_req))
                    gs.append(float(n_req * per_req * int(ctx)))
                    ts.append(self.attention_time(target_id, n_req, per_req, int(ctx)))
            return fit_linear_attention_model(hs, gs, ts)

        models[PRIMARY_TARGET_ID] = DeviceAttentionModel(
            device_id=PRIMARY_TARGET_ID,
            device_name=f"{self.name}/primary",
            compute=fit(PRIMARY_TARGET_ID),
            transfer=LOCAL_TRANSFER,
            is_remote=False,
        )
        # The transfer model is expressed over the *total* per-iteration byte
        # volume, but the underlying traffic is one scatter/gather per layer,
        # so the fitted beta absorbs `num_layers` point-to-point latencies --
        # this fixed cost is what makes premature offloading unattractive
        # under light load (the delayed ramp-up in Fig. 14).
        sizes = [attention_transfer_bytes(self.model, float(h), per_layer=False) for h in heads_grid]
        for worker in self.config.attention_workers:
            compute = fit(worker.device_id)
            times = [self.transfer_time(worker.device_id, int(h)) for h in heads_grid]
            models[worker.device_id] = DeviceAttentionModel(
                device_id=worker.device_id,
                device_name=worker.name,
                compute=compute,
                transfer=fit_linear_transfer_model(sizes, times),
                is_remote=True,
            )
        if profiling_error > 0:
            models = {k: m.with_error(profiling_error, self._rng) for k, m in models.items()}
        return models

    def attention_time(self, target_id: int, num_requests: int, heads: int, context: int) -> float:
        """Decode Attention time per iteration of ``num_requests`` requests on ``target_id``.

        Each request holds ``heads`` query heads there at ``context`` tokens.
        The time is priced like a decode iteration's (:meth:`_decode_attention_time`),
        from slot sums at epoch 0.
        """
        total = num_requests * context
        ledger = [(0, 0, 0, 0)] * len(self._slot_ledger)
        for slot, h, groups in self._shares({target_id: heads}):
            ledger[slot] = (h * total, groups * total, h * num_requests, groups * num_requests)
        plan = self.pipeline.decode_plan()
        if target_id == PRIMARY_TARGET_ID:
            return plan.primary_time(ledger, 0)
        return plan.worker_time(self._workers[target_id][0], ledger, 0)

    # --------------------------------------------------------------- ground truth --

    def _head_shares(self, allocation: Mapping[int, int]) -> HeadShares:
        """The head shares of a request with ``allocation``.

        Every Primary shard runs its fraction of the request's Primary heads;
        every Attention worker runs the heads the allocation gives it.
        """
        primary = allocation.get(PRIMARY_TARGET_ID, 0)
        heads = [max(0, int(round(primary * frac))) for frac in self.pipeline.fractions]
        heads += [allocation.get(w.device_id, 0) for w in self.config.attention_workers]
        r = self.model.gqa_ratio
        return tuple((slot, h, -(-h // r)) for slot, h in enumerate(heads) if h > 0)

    def _shares(self, allocation: Mapping[int, int]) -> HeadShares:
        """:meth:`_head_shares` of ``allocation``, memoized by its items."""
        key = tuple(allocation.items())
        shares = self._head_shares_memo.get(key)
        if shares is None:
            shares = self._head_shares_memo[key] = self._head_shares(allocation)
        return shares

    def transfer_time(self, target_id: int, heads: int) -> float:
        """One per-head scatter/gather per layer for ``heads`` heads offloaded to worker ``target_id``."""
        key = (target_id, heads)
        transfer = self._worker_transfer_cache.get(key)
        if transfer is None:
            transfer = self._worker_transfer_cache[key] = self.model.num_layers * self.cluster.p2p_time(
                attention_transfer_bytes(self.model, float(heads), per_layer=True),
                self._primary_front,
                self._workers[target_id][1],
            )
        return transfer

    # ---------------------------------------------------------------- KV hooks --

    def _allocate_split(self, request: Request, split: HeadSplit) -> None:
        for target_id, heads in split.allocation.items():
            if heads > 0:
                self._managers[target_id].allocate(request.request_id, heads, request.context_length)
                self._book(request, target_id, 1)
                self._dirty = True

    def _free_request(self, request: Request) -> None:
        for target_id, manager in self._managers.items():
            if manager.has_sequence(request.request_id):
                self._book(request, target_id, -1)
                manager.free(request.request_id)
                self._dirty = True

    # ---------------------------------------------------------------- load ledger --

    def _book(self, request: Request, target_id: int, sign: int) -> None:
        """Add (``sign`` 1) or remove (-1) ``request``'s placement on ``target_id`` in the load ledger.

        A request that is not decoding never appends, so the tokens its
        manager recorded are its cached count.  A decoding request's cached
        count grows with the epoch: it is booked as its count less the epoch,
        plus its heads in ``_decoding_heads``.
        """
        manager = self._managers[target_id]
        heads = manager.heads_of(request.request_id)
        if request.decode_clock is self.clock:
            tokens = request.decode_base + self.running[request]
            self._decoding_heads[target_id] += sign * heads
        else:
            tokens = manager.tokens_of(request.request_id)
        self._booked[target_id] += sign * heads * tokens

    def _join(self, request: Request, cached: int) -> None:
        # Re-book the request's placements as decoding.
        targets = list(self._splits[request.request_id].targets())
        for target_id in targets:
            self._book(request, target_id, -1)
        super()._join(request, cached)
        for target_id in targets:
            self._book(request, target_id, 1)

    def target_loads(self) -> Tuple[List[int], List[int]]:
        """h_i and g_i of every dispatch target, in the dispatcher's order, in O(targets).

        h_i is the managers' running head total.  g_i is Σ heads x cached
        tokens over the requests holding cache on the target, exact at every
        read: the ledger's booked sum, the epoch times the decoding heads, and
        while a commit walks its due events, the heads of the decoding
        requests it has passed, which already hold this iteration's token.
        """
        clock = self.clock
        epoch = clock.epoch
        heads = [manager.total_query_heads() for manager in self._managers.values()]
        decoding = self._decoding_heads
        token_heads = [booked + epoch * decoding[t] for t, booked in self._booked.items()]
        cursor = clock.cursor
        if cursor:
            index = self._target_index
            for req in self.running:
                if req.decode_clock is clock and req.decode_position < cursor:
                    for target_id, h in self._splits[req.request_id].allocation.items():
                        token_heads[index[target_id]] += h
        return heads, token_heads

    def _total_free_token_heads(self) -> float:
        return sum(m.free_blocks * m.block_size * self.model.gqa_ratio for m in self._managers.values())

    def _fits(self, request: Request) -> bool:
        return request.context_length * self.model.num_heads <= self._total_free_token_heads()

    def _exhausted(self, request: Request) -> Optional[int]:
        # The managers saw the request's tokens up to its last block start;
        # ask them for the rest through the next token.
        rid = request.request_id
        targets = list(self._splits[rid].targets())
        missing = self.cached_tokens(request) + 1 - self._managers[targets[0]].tokens_of(rid)
        for target_id in targets:
            if not self._managers[target_id].can_append(rid, missing):
                return target_id
        return None

    def _append(self, request: Request) -> None:
        # Give the managers the tokens they have not seen, through the next one.
        rid = request.request_id
        cached = self.cached_tokens(request) + 1
        for target_id in self._splits[rid].targets():
            manager = self._managers[target_id]
            missing = cached - manager.tokens_of(rid)
            if missing:
                manager.append_token(rid, missing)
                self._dirty = True

    def _release(self, request: Request) -> None:
        self._free_request(request)
        if self._splits.pop(request.request_id, None) is not None:
            # Balance checks ask about exactly the requests in _splits, so the
            # dispatcher's f* floor must drop this one's term.
            self.dispatcher.request_left(request.context_length)
        self._requests.pop(request.request_id, None)

    # ------------------------------------------------------------------- scheduling --

    def _admit(self, decode_requests: List[Request]) -> List[PrefillChunk]:
        """Select the iteration's prefill chunks and dispatch new requests' heads.

        A request's head split and full-context KV allocation are established
        with its *first* chunk; resuming chunks of a partially-prefilled
        request reuse them.
        """
        chunks = self.policy.select_prefill_chunks(self.waiting, len(self.running), self._fits)
        new_chunks = [c for c in chunks if c.is_first]
        if not new_chunks:
            return chunks
        decision = self.dispatcher.dispatch_new(
            [(c.request.request_id, c.request.context_length) for c in new_chunks]
        )
        if not decision.feasible:
            # Put popped requests back in arrival order and try again next
            # iteration; chunks of already-dispatched requests may proceed.
            for c in reversed(new_chunks):
                if c.completes_prefill:
                    self.waiting.appendleft(c.request)
            return [c for c in chunks if not c.is_first]
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
            admitted.append(chunk)
        return admitted

    def _make_room(self, request: Request, exhausted: int) -> bool:
        """Apply the cache-balance re-dispatching policy (or plain LIFO)."""
        if not self.enable_redispatch:
            # Plain LIFO over every request holding cache (the Fig.-15a baseline).
            if not self._splits:
                return False
            self._preempt(self._requests[next(reversed(self._splits))])
            return True
        decision = self.redispatcher.handle_cache_exhaustion(exhausted, self._splits, self._contexts, self._splits)
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
        # the new one (capacity was validated by the dispatcher's LP).  Either
        # placement below is allocated at the full context length.
        self._free_request(request)
        self._recache(request)
        try:
            self._allocate_split(request, new_split)
        except BlockAllocationError:
            # Free what the new placement took before it failed, restore the
            # previous placement and abandon this re-dispatch.
            self._free_request(request)
            self._allocate_split(request, old_split)
            return
        self._regroup(request, -1)
        self._splits[request_id] = new_split
        self._regroup(request, 1)
        request.num_redispatches += 1
        self.num_redispatches += 1
        self._pending_penalty += report.blocking_seconds

    def _on_iteration_complete(self) -> None:
        if self.enable_redispatch and self.clock.epoch % REDISPATCH_CHECK_INTERVAL == 0:
            decision = self.redispatcher.check_compute_balance(self._splits, self._contexts)
            if decision.action == RedispatchAction.REDISPATCH and decision.new_split is not None:
                self._apply_redispatch(decision.request_id, decision.new_split)

    # ----------------------------------------------------------------------- timing --

    def _iteration_time(
        self, chunks: List[PrefillChunk], decode_requests: Sequence[Request]
    ) -> Tuple[float, Dict[str, float]]:
        """Iteration duration with dynamic-Attention-parallel decode Attention.

        The Primary pipeline runs the dense modules and prefill Attention;
        decode Attention runs wherever the dispatcher put each head.  The
        duration also carries the blocking time of re-dispatches applied since
        the last iteration was planned; the module metrics do not.
        """
        prefill = [(c.new_tokens, c.cached_tokens) for c in chunks]
        dense, mlp, _ = self.pipeline.iteration(prefill, len(decode_requests))
        decode_attn = self._decode_attention_time(decode_requests)
        duration = dense + decode_attn
        penalty, self._pending_penalty = self._pending_penalty, 0.0
        return duration + penalty, {"mlp": mlp, "attention": decode_attn, "iteration": duration}

    def _regroup(self, request: Request, sign: int) -> None:
        """Also add or remove decoding ``request``'s head shares in the slot ledger.

        Per slot, the ledger holds Σ h·decode_base, Σ ⌈h/r⌉·decode_base, Σ h
        and Σ ⌈h/r⌉ over the decoding requests with h heads there.  The sums
        are integers, so the price read from them (:meth:`_decode_attention_time`)
        is the one a per-request sum gives, bit for bit.  A re-dispatch removes
        the request under its old split and adds it under the new one.
        """
        if request.decode_clock is not self.clock:
            return
        super()._regroup(request, sign)
        base = request.decode_base
        ledger = self._slot_ledger
        for slot, heads, groups in self._shares(self._splits[request.request_id].allocation):
            sums = ledger[slot]
            sums[0] += sign * heads * base
            sums[1] += sign * groups * base
            sums[2] += sign * heads
            sums[3] += sign * groups

    def _decode_attention_time(self, decode_requests: Sequence[Request]) -> float:
        """Max over dispatch targets of their decode-Attention + transfer time.

        The pipeline's decode plan prices each slot from the slot ledger,
        adding back the epoch the decode bases leave out.
        """
        if not decode_requests:
            return 0.0
        plan, ledger, epoch = self.pipeline.decode_plan(), self._slot_ledger, self.clock.epoch
        longest = plan.primary_time(ledger, epoch)
        for worker, device_id, sums in self._worker_ledger:
            heads = sums[2]
            if heads:
                time = plan.worker_time(worker, ledger, epoch) + self.transfer_time(device_id, heads)
                if time > longest:
                    longest = time
        return longest

    # ------------------------------------------------------------------ introspection --

    def kv_utilization(self) -> Dict[str, float]:
        return {key: manager.utilization for key, manager in self._series}

    def head_counts(self) -> Dict[str, float]:
        """Query heads currently resident per dispatch target (Fig. 14 series): the ledger's h_i."""
        return {key: float(manager.total_query_heads()) for key, manager in self._series}

    def observed_series(self) -> Dict[str, Dict[str, float]]:
        return {"cache_usage": self.kv_utilization(), "heads": self.head_counts()}

    def available_kv_bytes(self) -> float:
        return float(sum(m.total_blocks * m.bytes_per_block_group for m in self._managers.values()))
