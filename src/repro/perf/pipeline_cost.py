"""Compiled iteration cost of one execution unit's stage pipeline.

Both execution units push every iteration through a pipeline of (possibly
asymmetric) tensor-parallel stages.  The iteration's cost splits into two kinds
of terms:

* terms that depend only on how many tokens the iteration carries: each
  stage's dense (QKV, projection, MLP) and MLP module times, its TP
  all-reduces, the LM head and the hidden-state hand-offs between stages.
  :class:`PipelineCost` computes them once per distinct token count;
* Attention, which depends on the requests.  Prefill Attention is priced per
  chunk.  Decode Attention is linear in query heads and cached token-heads
  (the paper's Eq. 3, Fig. 7), so it is priced in closed form from integer
  sums over the batch (:meth:`~repro.models.flops.LayerCostModel.decode_attention_from_sums`).

Like AlpaServe's placement search (https://arxiv.org/abs/2302.11665), this
prices a pipeline from per-stage latencies instead of re-deriving them for
every request on every iteration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Sequence, Tuple

from repro.hardware.gpu import GPUSpec
from repro.parallel.config import InstanceParallelConfig
from repro.perf.commcost import CommModel
from repro.perf.roofline import RooflineExecutor

if TYPE_CHECKING:
    from repro.sim.scheduler import PrefillChunk


class Shard(NamedTuple):
    """A distinct ``(GPU spec, shard fraction)`` pair of one stage."""

    spec: GPUSpec
    fraction: float
    slot: int
    """Index of ``fraction`` in :attr:`PipelineCost.fractions`."""
    heads: int
    """Query heads the shard runs for a request whose heads are all on the stage."""
    groups: int
    """KV groups those heads read, ``ceil(heads / r)``."""


class TokenTerms(NamedTuple):
    """The terms of an iteration that depend only on its token count."""

    stages: Tuple[Tuple[int, float, float], ...]
    """Per stage: its layer count, and its per-layer dense and TP all-reduce times."""
    mlp: float
    """MLP module latency: the largest stage MLP time times the number of stages."""
    lm_head: float
    handoff: float


class PipelineCost:
    """Per-iteration cost of an instance's stage pipeline, compiled from its layout.

    Each stage is priced by its distinct ``(GPU spec, shard fraction)`` pairs
    (see :meth:`~repro.parallel.config.StageConfig.unique_shards`): identical
    shards on identical GPUs time out identically, so a stage's per-module
    maximum only needs one evaluation per pair.
    """

    def __init__(self, config: InstanceParallelConfig, executor: RooflineExecutor, comm: CommModel) -> None:
        model = executor.model
        self.config = config
        self.executor = executor
        self.cost_model = executor.cost_model
        self.comm = comm
        # The distinct shard fractions over all stages, first-seen order.
        self.fractions: List[float] = []
        self.shards: List[List[Shard]] = []
        for stage in config.stages:
            shards = []
            for spec, frac in stage.unique_shards():
                if frac not in self.fractions:
                    self.fractions.append(frac)
                heads = max(model.gqa_ratio, int(round(model.num_heads * frac)))
                shards.append(Shard(spec, frac, self.fractions.index(frac), heads, -(-heads // model.gqa_ratio)))
            self.shards.append(shards)
        # Filled lazily: one entry per distinct iteration token count.
        self._terms: Dict[int, TokenTerms] = {}

    def _compile(self, tokens: int) -> TokenTerms:
        """The token-count terms of an iteration carrying ``tokens`` tokens."""
        executor, comm, stages = self.executor, self.comm, self.config.stages
        dense = self.cost_model.dense_cost(tokens)
        mlp = self.cost_model.mlp_cost(tokens)
        per_stage = []
        max_mlp = 0.0
        for stage, shards in zip(stages, self.shards):
            dense_t = mlp_t = 0.0
            for shard in shards:
                dense_t = max(dense_t, executor.module_time(dense.scaled(shard.fraction), shard.spec, tokens))
                mlp_t = max(mlp_t, executor.module_time(mlp.scaled(shard.fraction), shard.spec, tokens))
            comm_t = 2.0 * comm.tp_allreduce_time(stage.devices, tokens) if stage.tp_degree > 1 else 0.0
            per_stage.append((stage.num_layers, dense_t, comm_t))
            max_mlp = max(max_mlp, stage.num_layers * mlp_t)
        last = stages[-1]
        lm_head = executor.lm_head_time(last.devices[0].spec, tokens, tp_degree=last.tp_degree)
        handoff = 0.0
        for prev, nxt in zip(stages[:-1], stages[1:]):
            handoff += comm.pipeline_handoff_time(prev.devices[-1], nxt.devices[0], tokens)
        return TokenTerms(tuple(per_stage), max_mlp * len(stages), lm_head, handoff)

    # -- iterations ----------------------------------------------------------------------

    def iteration(
        self, chunks: Sequence["PrefillChunk"], num_decode: int, decode_context: int | None = None
    ) -> Tuple[float, float, float]:
        """Duration, MLP and Attention module latency of one pass through the pipeline.

        Each stage's Attention covers the prefill ``chunks`` and, unless
        ``decode_context`` is ``None``, decode Attention over ``num_decode``
        requests holding ``decode_context`` cached tokens in all, every shard
        running its share of every request's heads.  ``None`` leaves decode
        Attention to the caller (Hetis dispatches it head-wise).  The module
        latencies follow the paper's definition: the largest per-stage time
        times the number of stages, reflecting pipeline bubbles.
        """
        tokens = num_decode
        for chunk in chunks:
            tokens += chunk.new_tokens
        terms = self._terms.get(tokens)
        if terms is None:
            terms = self._terms[tokens] = self._compile(tokens)
        stage_terms, mlp, lm_head, handoff = terms
        prefill = [(c.new_tokens, c.cached_tokens) for c in chunks]
        decode = decode_context is not None and num_decode > 0
        attention_time = self.executor.attention_module_time
        totals = []
        max_attention = 0.0
        for (layers, dense, comm), shards in zip(stage_terms, self.shards):
            attention = 0.0
            if prefill or decode:
                for shard in shards:
                    t = 0.0
                    if prefill:
                        t = attention_time(self.cost_model.prefill_chunks_cost(prefill, shard.heads), shard.spec)
                    if decode:
                        t += self.decode_attention_time(
                            shard.spec, shard.heads * decode_context, shard.groups * decode_context,
                            shard.heads * num_decode,
                        )
                    attention = max(attention, t)
            totals.append(layers * (dense + attention + comm))
            max_attention = max(max_attention, layers * attention)
        return sum(totals) + lm_head + handoff, mlp, max_attention * len(totals)

    # -- decode Attention ------------------------------------------------------------------

    def decode_attention_time(self, spec: GPUSpec, head_context: int, group_context: int, heads: int) -> float:
        """Per-layer decode Attention time on ``spec`` of a batch given by its sums.

        See :meth:`~repro.models.flops.LayerCostModel.decode_attention_from_sums`.
        """
        cost = self.cost_model.decode_attention_from_sums(head_context, group_context, heads)
        return self.executor.attention_module_time(cost, spec)

    def primary_decode_attention_time(self, sums: Sequence[Sequence[int]]) -> float:
        """Decode Attention time through every stage, each shard running a share of the heads.

        ``sums[i]`` holds the ``(head_context, group_context, heads)`` sums of
        the batch's heads at shard fraction ``fractions[i]``.
        """
        total = 0.0
        for stage, shards in zip(self.config.stages, self.shards):
            per_layer = 0.0
            for shard in shards:
                per_layer = max(per_layer, self.decode_attention_time(shard.spec, *sums[shard.slot]))
            total += stage.num_layers * per_layer
        return total
