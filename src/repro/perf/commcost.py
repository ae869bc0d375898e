"""Communication data volumes and costs for distributed LLM serving.

This module knows *what* has to move for each parallelism pattern; the
:class:`~repro.hardware.interconnect.Interconnect` knows *how fast* links are.
Patterns covered:

* pipeline-parallel hidden-state hand-off between stages,
* tensor-parallel all-reduce after attention output and after the MLP,
* dynamic-Attention-parallelism exchange between a Primary worker and its
  Attention workers: per-head query/key/value chunks out, partial attention
  results back (the paper's ``d_i(t) = (2 + 2/r) * h_i(t)`` volume, Eq. 4),
* head-wise vs. sequence-wise splitting volumes (the Fig.-5 comparison), and
* KV-cache migration volumes for the Hauler and for Splitwise's prefill ->
  decode hand-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.hardware.cluster import Cluster
from repro.hardware.gpu import GPUDevice
from repro.models.spec import ModelSpec


def hidden_state_bytes(model: ModelSpec, num_tokens: int) -> float:
    """Bytes of hidden states handed between pipeline stages for ``num_tokens``."""
    if num_tokens < 0:
        raise ValueError("num_tokens must be >= 0")
    return float(num_tokens * model.hidden_size * model.dtype_bytes)


@lru_cache(maxsize=32768)
def attention_transfer_bytes(model: ModelSpec, num_query_heads: float, per_layer: bool = True) -> float:
    """Bytes exchanged per decode step for ``num_query_heads`` offloaded heads.

    For each offloaded query head the Primary worker ships the head's query
    vector and receives the head's partial attention output (2 vectors of
    ``head_dim``); additionally the newly produced key and value vectors for
    the head's KV group must reach whichever device stores that group's cache,
    contributing ``2/r`` vectors per query head.  This is the paper's
    ``d_i(t) = (2 + 2/r) * h_i(t)`` expression, here converted to bytes.

    Memoized by ``(model, heads, per_layer)``.  Dispatch rounds produce many
    distinct fractional head counts per model, so the cache is sized for
    heterogeneous multi-replica sweeps (4096 thrashed there; each entry is a
    single float; a traced perfbench run reports the observed hit rate as
    ``cost.lru_attention_transfer_bytes_hit_rate``).
    """
    if num_query_heads < 0:
        raise ValueError("num_query_heads must be >= 0")
    vectors = (2.0 + 2.0 / model.gqa_ratio) * num_query_heads
    per_layer_bytes = vectors * model.head_dim * model.dtype_bytes
    return per_layer_bytes if per_layer else per_layer_bytes * model.num_layers


def seqwise_transfer_bytes(model: ModelSpec, num_workers_holding_cache: int) -> float:
    """Bytes exchanged per decode step per request under sequence-wise splitting.

    Splitting the KV cache along the sequence dimension forces the *entire*
    query vector (all heads) to be replicated to every worker that holds a
    slice of the request's cache, and the full-width partial outputs plus the
    per-worker softmax statistics must come back for the online-softmax merge.
    The volume therefore grows with the number of participating workers, which
    is the effect Fig. 5 measures.
    """
    if num_workers_holding_cache < 0:
        raise ValueError("num_workers_holding_cache must be >= 0")
    per_worker = 2.0 * model.hidden_size * model.dtype_bytes  # q out + partial o back
    stats = 2.0 * model.num_heads * 4  # per-head max & sum (fp32) for softmax merge
    return num_workers_holding_cache * (per_worker + stats)


def kv_cache_bytes(model: ModelSpec, num_tokens: int, num_query_heads: int | None = None) -> float:
    """KV-cache bytes for ``num_tokens`` of context, optionally for a head subset.

    ``num_query_heads`` selects a subset of query heads; the cache footprint is
    attributed per KV-head group (``r`` query heads share a group).
    """
    if num_tokens < 0:
        raise ValueError("num_tokens must be >= 0")
    total = float(num_tokens * model.kv_bytes_per_token())
    if num_query_heads is None:
        return total
    frac = num_query_heads / model.num_heads
    return total * frac


@dataclass
class CommModel:
    """Transfer-time helper bound to a concrete cluster.

    Thin wrapper over :class:`Interconnect` that converts the data volumes above
    into seconds for specific device pairs, so planners do not have to thread
    host ids around.
    """

    cluster: Cluster
    model: ModelSpec

    def pipeline_handoff_time(self, src: GPUDevice, dst: GPUDevice, num_tokens: int) -> float:
        """Hidden-state transfer between consecutive pipeline stages."""
        return self.cluster.p2p_time(hidden_state_bytes(self.model, num_tokens), src, dst)

    def tp_allreduce_time(self, devices: Sequence[GPUDevice], num_tokens: int) -> float:
        """All-reduce of hidden states across a tensor-parallel group.

        Two all-reduces happen per layer (after attention projection and after
        the MLP); callers multiply by the layer count as appropriate.
        """
        return self.cluster.allreduce_time(hidden_state_bytes(self.model, num_tokens), list(devices))

    def attention_offload_time(
        self,
        primary: GPUDevice,
        worker: GPUDevice,
        num_query_heads: float,
        per_layer: bool = True,
    ) -> float:
        """Head-wise Q/K/V + partial-output exchange for one decode step."""
        n_bytes = attention_transfer_bytes(self.model, num_query_heads, per_layer)
        return self.cluster.p2p_time(n_bytes, primary, worker)

    def seqwise_offload_time(self, primary: GPUDevice, worker: GPUDevice) -> float:
        """Per-request sequence-wise exchange with a single remote worker."""
        n_bytes = seqwise_transfer_bytes(self.model, 1)
        return self.cluster.p2p_time(n_bytes, primary, worker)

    def kv_migration_time(
        self,
        src: GPUDevice,
        dst: GPUDevice,
        num_tokens: int,
        num_query_heads: int | None = None,
    ) -> float:
        """Time to move a request's (possibly partial, head-wise) KV cache."""
        return self.cluster.p2p_time(kv_cache_bytes(self.model, num_tokens, num_query_heads), src, dst)
