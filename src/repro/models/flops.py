"""Analytic FLOP and byte accounting for transformer modules.

The paper's analysis and Hetis' planners distinguish two very different kinds
of work inside a layer:

* **dense modules** (QKV projection, attention output projection, MLP): large
  GEMMs whose cost depends on the number of tokens processed in the iteration
  and on the model width -- compute-bound in prefill, launch/bandwidth bound
  at small decode batches;
* **the Attention module proper** (softmax(q K^T) V against the KV cache):
  parameter-free, memory-bandwidth-bound in decode, with cost proportional to
  the amount of cached context touched and to the number of query heads.

:class:`LayerCostModel` produces :class:`ModuleCost` records (FLOPs, bytes
read/written, kernel count) for each module of one layer, for both phases, and
supports restricting attention to a subset of query heads -- the primitive
needed by head-wise dynamic Attention parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

from repro.models.spec import ModelSpec


@dataclass(frozen=True)
class ModuleCost:
    """Work performed by one module invocation on one device.

    Attributes
    ----------
    flops:
        Floating point operations.
    weight_bytes:
        Parameter bytes that must be streamed from device memory (decode GEMMs
        are typically bound by this term).
    activation_bytes:
        Activation / KV-cache bytes read and written.
    kernels:
        Number of kernel launches, charged at the device's per-kernel overhead.
    """

    flops: float = 0.0
    weight_bytes: float = 0.0
    activation_bytes: float = 0.0
    kernels: int = 0

    def __add__(self, other: "ModuleCost") -> "ModuleCost":
        return ModuleCost(
            flops=self.flops + other.flops,
            weight_bytes=self.weight_bytes + other.weight_bytes,
            activation_bytes=self.activation_bytes + other.activation_bytes,
            kernels=self.kernels + other.kernels,
        )

    def scaled(self, factor: float) -> "ModuleCost":
        """Scale all continuous quantities (used for tensor-parallel sharding)."""
        return ModuleCost(
            flops=self.flops * factor,
            weight_bytes=self.weight_bytes * factor,
            activation_bytes=self.activation_bytes * factor,
            kernels=self.kernels,
        )

    @property
    def total_bytes(self) -> float:
        return self.weight_bytes + self.activation_bytes


ZERO_COST = ModuleCost()


@dataclass(frozen=True)
class BatchProfile:
    """The per-iteration batch composition a cost model is evaluated against.

    ``prefill_lengths`` are the *new* prompt tokens each prefill request
    processes in this iteration; ``decode_contexts`` are the *current* context
    lengths of requests generating one token each.  This matches the paper's
    request-distribution object ``R`` (batch size and sequence lengths).

    Under chunked prefill a request's iteration slice also attends to tokens
    cached by earlier chunks: ``prefill_cached`` gives that already-cached
    context per prefill request.  Empty (the default) means no cached context,
    i.e. every prefill covers its full prompt in one iteration.
    """

    prefill_lengths: Sequence[int] = field(default_factory=tuple)
    decode_contexts: Sequence[int] = field(default_factory=tuple)
    prefill_cached: Sequence[int] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefill_lengths", tuple(int(x) for x in self.prefill_lengths))
        object.__setattr__(self, "decode_contexts", tuple(int(x) for x in self.decode_contexts))
        object.__setattr__(self, "prefill_cached", tuple(int(x) for x in self.prefill_cached))
        if any(x <= 0 for x in self.prefill_lengths):
            raise ValueError("prefill lengths must be positive")
        if any(x <= 0 for x in self.decode_contexts):
            raise ValueError("decode context lengths must be positive")
        if self.prefill_cached:
            if len(self.prefill_cached) != len(self.prefill_lengths):
                raise ValueError("prefill_cached must align with prefill_lengths")
            if any(x < 0 for x in self.prefill_cached):
                raise ValueError("cached context lengths must be >= 0")

    def cached_for(self, idx: int) -> int:
        """Cached context of the ``idx``-th prefill request (0 when unchunked)."""
        return self.prefill_cached[idx] if self.prefill_cached else 0

    @property
    def prefill_tokens(self) -> int:
        """Total tokens processed by dense modules in the prefill part."""
        return int(sum(self.prefill_lengths))

    @property
    def decode_tokens(self) -> int:
        """Tokens processed by dense modules in the decode part (one per request)."""
        return len(self.decode_contexts)

    @property
    def total_tokens(self) -> int:
        return self.prefill_tokens + self.decode_tokens

    @property
    def num_requests(self) -> int:
        return len(self.prefill_lengths) + len(self.decode_contexts)

    @staticmethod
    def prefill_only(lengths: Iterable[int]) -> "BatchProfile":
        return BatchProfile(prefill_lengths=tuple(lengths))

    @staticmethod
    def decode_only(contexts: Iterable[int]) -> "BatchProfile":
        return BatchProfile(decode_contexts=tuple(contexts))


class LayerCostModel:
    """FLOP/byte accounting for one transformer layer of a given model.

    All methods return the cost of the module over an entire iteration batch
    on a *single* device holding the full layer; callers apply tensor-parallel
    or head-wise sharding by scaling (see :meth:`dense_cost` ``tp_degree`` and
    :meth:`decode_attention_cost` ``num_query_heads``).
    """

    def __init__(self, model: ModelSpec) -> None:
        self.model = model
        # Decode Attention's coefficients (the paper's Eq. 3): FLOPs per
        # cached token-head, and the bytes of two head vectors, which every
        # cached KV-group token (its key and value) and every query head (its
        # query in, its partial output back) move.
        self.decode_flops_per_head_token = 4.0 * model.head_dim + 1.0
        self.decode_vector_pair_bytes = 2.0 * model.head_dim * model.dtype_bytes
        # Dense-module costs depend only on (num_tokens, tp_degree).  The
        # Parallelizer's layout search builds a PipelineCost per candidate
        # layout, and each derives its per-token constants from the dense,
        # MLP and LM-head costs at one token, so the search mostly hits this
        # memo (85 of 90 lookups when building a Hetis deployment of
        # llama-13b on the paper cluster).  The simulation loop prices from
        # those constants (see repro.perf.pipeline_cost).  ModuleCost is
        # frozen, so sharing the returned objects is safe.
        self._cost_memo: dict = {}

    def _memoized(self, kind: str, compute, num_tokens: int, tp_degree: int) -> ModuleCost:
        """Cache ``compute(num_tokens, tp_degree)`` under ``kind``."""
        key = (kind, num_tokens, tp_degree)
        cost = self._cost_memo.get(key)
        if cost is None:
            cost = compute(num_tokens, tp_degree)
            self._cost_memo[key] = cost
        return cost

    # -- dense modules ----------------------------------------------------------

    def qkv_cost(self, num_tokens: int, tp_degree: int = 1) -> ModuleCost:
        """QKV projection over ``num_tokens`` tokens, sharded ``tp_degree`` ways."""
        if num_tokens == 0:
            return ZERO_COST
        return self._memoized("qkv", self._qkv_cost, num_tokens, tp_degree)

    def _qkv_cost(self, num_tokens: int, tp_degree: int) -> ModuleCost:
        m = self.model
        out_width = m.hidden_size + 2 * m.kv_dim
        flops = 2.0 * num_tokens * m.hidden_size * out_width
        weight_bytes = m.hidden_size * out_width * m.dtype_bytes
        act_bytes = num_tokens * (m.hidden_size + out_width) * m.dtype_bytes
        return ModuleCost(flops, weight_bytes, act_bytes, kernels=1).scaled(1.0 / tp_degree)

    def attn_output_proj_cost(self, num_tokens: int, tp_degree: int = 1) -> ModuleCost:
        """Attention output projection (W_o) over ``num_tokens`` tokens."""
        if num_tokens == 0:
            return ZERO_COST
        return self._memoized("proj", self._attn_output_proj_cost, num_tokens, tp_degree)

    def _attn_output_proj_cost(self, num_tokens: int, tp_degree: int) -> ModuleCost:
        m = self.model
        flops = 2.0 * num_tokens * m.hidden_size * m.hidden_size
        weight_bytes = m.hidden_size * m.hidden_size * m.dtype_bytes
        act_bytes = 2 * num_tokens * m.hidden_size * m.dtype_bytes
        return ModuleCost(flops, weight_bytes, act_bytes, kernels=1).scaled(1.0 / tp_degree)

    def mlp_cost(self, num_tokens: int, tp_degree: int = 1) -> ModuleCost:
        """The MLP (feed-forward) module over ``num_tokens`` tokens."""
        if num_tokens == 0:
            return ZERO_COST
        return self._memoized("mlp", self._mlp_cost, num_tokens, tp_degree)

    def _mlp_cost(self, num_tokens: int, tp_degree: int) -> ModuleCost:
        m = self.model
        n_mats = 3 if m.gated_mlp else 2
        flops = 2.0 * num_tokens * m.hidden_size * m.ffn_hidden_size * n_mats
        weight_bytes = n_mats * m.hidden_size * m.ffn_hidden_size * m.dtype_bytes
        act_bytes = num_tokens * (2 * m.hidden_size + n_mats * m.ffn_hidden_size) * m.dtype_bytes
        return ModuleCost(flops, weight_bytes, act_bytes, kernels=n_mats).scaled(1.0 / tp_degree)

    def dense_cost(self, batch: BatchProfile | int, tp_degree: int = 1) -> ModuleCost:
        """All dense modules of one layer over an iteration batch.

        Dense work only depends on the number of tokens flowing through the
        layer, not on per-request context lengths, so ``batch`` may also be
        that token count.
        """
        tokens = batch if isinstance(batch, int) else batch.total_tokens
        return self._memoized("dense", self._dense_cost, tokens, tp_degree)

    def _dense_cost(self, num_tokens: int, tp_degree: int) -> ModuleCost:
        return (
            self.qkv_cost(num_tokens, tp_degree)
            + self.attn_output_proj_cost(num_tokens, tp_degree)
            + self.mlp_cost(num_tokens, tp_degree)
        )

    # -- attention module -------------------------------------------------------

    def prefill_attention_cost(
        self,
        prompt_length: int,
        num_query_heads: int | None = None,
        cached_tokens: int = 0,
    ) -> ModuleCost:
        """Self-attention of a prefill (chunk) of ``prompt_length`` new tokens.

        With ``cached_tokens == 0`` this is the classic full-prompt prefill,
        quadratic in the prompt length.  Under chunked prefill the new tokens'
        queries additionally attend to ``cached_tokens`` of KV cache written by
        earlier chunks, so the cost carries an extra ``new x cached`` term and
        the K/V reads cover the whole context.  Restricted to
        ``num_query_heads`` heads when sharded (tensor parallel prefill).
        """
        if prompt_length == 0:
            return ZERO_COST
        m = self.model
        heads = m.num_heads if num_query_heads is None else num_query_heads
        frac = heads / m.num_heads
        if cached_tokens == 0:
            # q K^T and (softmax) V, causal mask halves the effective area.
            flops = 2.0 * 2.0 * prompt_length * prompt_length * m.hidden_size * 0.5 * frac
            act_bytes = (
                2 * prompt_length * m.hidden_size  # read q, write out
                + 2 * prompt_length * m.kv_dim     # read K, V
            ) * m.dtype_bytes * frac
        else:
            # Causal area of a chunk: every new token attends to the cached
            # context plus the preceding new tokens of the same chunk.
            area = prompt_length * cached_tokens + prompt_length * prompt_length * 0.5
            flops = 2.0 * 2.0 * area * m.hidden_size * frac
            act_bytes = (
                2 * prompt_length * m.hidden_size
                + 2 * (cached_tokens + prompt_length) * m.kv_dim
            ) * m.dtype_bytes * frac
        return ModuleCost(flops, 0.0, act_bytes, kernels=1)

    def prefill_attention_batch_cost(self, batch: BatchProfile, num_query_heads: int | None = None) -> ModuleCost:
        """Sum of prefill attention costs over all prefill requests in a batch.

        Chunked-prefill slices (non-empty ``batch.prefill_cached``) are costed
        against their cached context.
        """
        cached = batch.prefill_cached or (0,) * len(batch.prefill_lengths)
        return self.prefill_chunks_cost(zip(batch.prefill_lengths, cached), num_query_heads)

    def prefill_chunks_cost(
        self, chunks: Iterable[Tuple[int, int]], num_query_heads: int | None = None
    ) -> ModuleCost:
        """Sum of prefill attention costs over ``(new tokens, cached tokens)`` slices.

        Accumulates scalars in slice order (identical floating-point results
        to summing per-slice :meth:`prefill_attention_cost` records) without
        building an intermediate object per slice.
        """
        m = self.model
        heads = m.num_heads if num_query_heads is None else num_query_heads
        frac = heads / m.num_heads
        terms = self.prefill_chunk_terms(chunks)
        if not terms:
            return ZERO_COST
        flops = 0.0
        act_bytes = 0.0
        for chunk_flops, chunk_bytes in terms:
            flops += chunk_flops * frac
            act_bytes += chunk_bytes * frac
        return ModuleCost(flops, 0.0, act_bytes, kernels=len(terms))

    def prefill_chunk_terms(self, chunks: Iterable[Tuple[int, int]]) -> List[Tuple[float, int]]:
        """All-head FLOPs and activation bytes of each non-empty ``(new, cached)`` slice.

        :meth:`prefill_chunks_cost` scales each by the head fraction and sums
        them in slice order; a caller pricing several head counts computes
        these once.
        """
        m = self.model
        terms = []
        for length, cached in chunks:
            if length == 0:
                continue
            if cached == 0:
                flops = 2.0 * 2.0 * length * length * m.hidden_size * 0.5
                act_bytes = (2 * length * m.hidden_size + 2 * length * m.kv_dim) * m.dtype_bytes
            else:
                area = length * cached + length * length * 0.5
                flops = 2.0 * 2.0 * area * m.hidden_size
                act_bytes = (2 * length * m.hidden_size + 2 * (cached + length) * m.kv_dim) * m.dtype_bytes
            terms.append((flops, act_bytes))
        return terms

    def decode_attention_cost(
        self,
        context_length: int,
        num_query_heads: int | None = None,
    ) -> ModuleCost:
        """Decode-phase attention of one request against its cached context.

        Only the last token's query attends to ``context_length`` cached keys
        and values, so both FLOPs and bytes are linear in the context length
        and in the number of query heads handled on this device -- exactly the
        linearity the paper exploits in its Eq. (3) model (Fig. 7).
        """
        if context_length == 0:
            return ZERO_COST
        m = self.model
        heads = m.num_heads if num_query_heads is None else num_query_heads
        if heads <= 0:
            return ZERO_COST
        head_dim = m.head_dim
        # Per query head: q.K^T (2*ctx*head_dim) + softmax (ctx) + probs.V (2*ctx*head_dim)
        flops = heads * context_length * (4.0 * head_dim + 1.0)
        # KV bytes touched: each group of `gqa_ratio` query heads shares one KV head,
        # so a device holding `heads` query heads reads ceil(heads / r) KV heads.
        kv_head_groups = -(-heads // m.gqa_ratio)  # ceil division
        kv_bytes = 2.0 * context_length * kv_head_groups * head_dim * m.dtype_bytes
        io_bytes = 2.0 * heads * head_dim * m.dtype_bytes  # q in, partial out
        return ModuleCost(flops, 0.0, kv_bytes + io_bytes, kernels=1)

    def decode_attention_batch_cost(
        self,
        contexts: Sequence[int],
        heads_per_request: Sequence[int] | None = None,
    ) -> ModuleCost:
        """Decode attention over a batch, optionally with per-request head counts.

        ``heads_per_request`` is how the head-wise dispatcher expresses a
        device's share of each request; ``None`` means the device computes all
        heads of every request (the non-parallelized baseline behaviour).
        One integer pass gathers the batch's sums for
        :meth:`decode_attention_from_sums`.
        """
        if heads_per_request is not None and len(heads_per_request) != len(contexts):
            raise ValueError("heads_per_request must align with contexts")
        full_heads = self.model.num_heads
        gqa = self.model.gqa_ratio
        head_context = group_context = total_heads = 0
        for idx, ctx in enumerate(contexts):
            heads = full_heads if heads_per_request is None else heads_per_request[idx]
            if heads <= 0 or ctx == 0:
                continue
            head_context += heads * ctx
            group_context += -(-heads // gqa) * ctx  # ceil division
            total_heads += heads
        return self.decode_attention_from_sums(head_context, group_context, total_heads)

    def decode_attention_from_sums(self, head_context: int, group_context: int, heads: int) -> ModuleCost:
        """Decode attention of a batch, in closed form from three integer sums.

        Over the requests that run ``h > 0`` query heads here, ``head_context``
        is the cached token-heads Σ h·ctx, ``group_context`` the cached tokens
        of the KV groups they read, Σ ⌈h/r⌉·ctx, and ``heads`` is Σ h.  The
        cost is :meth:`decode_attention_cost` summed over those requests.  Each
        of its terms is an integer-valued float below 2**53, so this equals the
        per-request sum bit for bit, in any summation order.  PagedAttention
        batches requests into a single kernel launch, so the kernel count does
        not grow with the batch.
        """
        if heads <= 0:
            return ZERO_COST
        flops = head_context * self.decode_flops_per_head_token
        act_bytes = self.decode_vector_pair_bytes * (group_context + heads)
        return ModuleCost(flops, 0.0, act_bytes, kernels=1)

    # -- whole layer ------------------------------------------------------------

    def layer_cost(self, batch: BatchProfile, tp_degree: int = 1) -> ModuleCost:
        """Dense + attention cost of one full layer over an iteration batch."""
        heads = self.model.num_heads // tp_degree
        return (
            self.dense_cost(batch, tp_degree)
            + self.prefill_attention_batch_cost(batch, heads)
            + self.decode_attention_batch_cost(batch.decode_contexts, [heads] * len(batch.decode_contexts))
        )

    def lm_head_cost(self, num_tokens: int, tp_degree: int = 1) -> ModuleCost:
        """Final projection to the vocabulary (charged once per iteration)."""
        if num_tokens == 0:
            return ZERO_COST
        return self._memoized("lm_head", self._lm_head_cost, num_tokens, tp_degree)

    def _lm_head_cost(self, num_tokens: int, tp_degree: int) -> ModuleCost:
        m = self.model
        flops = 2.0 * num_tokens * m.hidden_size * m.vocab_size
        weight_bytes = m.hidden_size * m.vocab_size * m.dtype_bytes
        act_bytes = num_tokens * (m.hidden_size + m.vocab_size) * m.dtype_bytes
        return ModuleCost(flops, weight_bytes, act_bytes, kernels=1).scaled(1.0 / tp_degree)
