"""Compiled iteration cost of one execution unit's stage pipeline.

Both execution units push every iteration through a pipeline of (possibly
asymmetric) tensor-parallel stages, and the Parallelizer scores candidate
layouts with the same :meth:`PipelineCost.iteration`.  The iteration's cost
splits into two kinds of terms:

* terms that depend only on how many tokens the iteration carries: each
  stage's dense (QKV, projection, MLP) and MLP module times, its TP
  all-reduces, the LM head and the hidden-state hand-offs between stages.
  :class:`PipelineCost` computes them once per distinct token count;
* Attention, which depends on the requests.  Prefill Attention is priced per
  chunk.  Decode Attention is linear in query heads and cached token-heads
  (the paper's Eq. 3, Fig. 7), so it is priced in closed form from integer
  sums over the batch (:meth:`~repro.models.flops.LayerCostModel.decode_attention_from_sums`).
  Hetis keeps those sums per slot and prices them through a
  :class:`DecodePlan` compiled from the layout (:meth:`PipelineCost.decode_plan`).

Every cost model behind these terms is linear.  A dense module's work is a
per-token coefficient times the token count plus fixed weight bytes, a
transfer is a link's latency plus bytes over its bandwidth, and the executor
is a roofline (``max(flops / rate, bytes / bandwidth) + launches * overhead``).
So the pipeline prices by arithmetic on constants its layout fixes, derived on
its first priced token count:

* the dense, MLP and LM-head modules' FLOPs and activation bytes per token,
  and their weight bytes, from :class:`~repro.models.flops.LayerCostModel` at
  one token;
* each shard's roofline rates, bandwidth and launch overhead, from its
  :class:`~repro.hardware.gpu.GPUSpec`;
* each stage hand-off's link, from the cluster's interconnect (TP
  all-reduces still go through its ring formula).

Each price performs the floating-point operations of the call chain it
replaces (:meth:`~repro.perf.roofline.RooflineExecutor.module_time` and
``attention_module_time`` over ``LayerCostModel`` costs), in the same order,
so the two agree bit for bit.  Scaling a per-token coefficient by the token
count is exact: for every registered model each coefficient is an integer,
and times any token count up to 16,384 it stays below 2**53.
``tests/perf/test_pipeline_cost.py`` checks both, the prices at every token
count a unit can carry.

Like AlpaServe's placement search (https://arxiv.org/abs/2302.11665), this
prices a pipeline from per-stage latencies instead of re-deriving them for
every request on every iteration.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.hardware.gpu import GPUSpec
from repro.hardware.interconnect import Link
from repro.models.flops import ModuleCost
from repro.parallel.config import InstanceParallelConfig
from repro.perf.commcost import CommModel, hidden_state_bytes
from repro.perf.roofline import RooflineExecutor


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
    head_share: float
    """``heads`` over the model's query heads: the shard's share of prefill Attention."""


class TokenTerms(NamedTuple):
    """The terms of an iteration that depend only on its token count."""

    stages: Tuple[Tuple[int, float, float], ...]
    """Per stage: its layer count, and its per-layer dense and TP all-reduce times."""
    mlp: float
    """MLP module latency: the largest stage MLP time times the number of stages."""
    lm_head: float
    handoff: float


class LinearModule(NamedTuple):
    """One GPU's share of a module whose work grows linearly with the token count."""

    spec: GPUSpec
    share: float
    flops: float
    """FLOPs per token of the whole module."""
    act_bytes: float
    """Activation bytes per token of the whole module."""
    weight: float
    """Weight bytes times ``share``."""
    launch: float
    """Kernel launches times the GPU's launch overhead."""

    @classmethod
    def of(cls, per_token: ModuleCost, spec: GPUSpec, share: float) -> "LinearModule":
        """The module costing ``per_token`` at one token, ``share`` of it on ``spec``."""
        return cls(spec, share, per_token.flops, per_token.activation_bytes, per_token.weight_bytes * share,
                   per_token.kernels * spec.kernel_overhead)

    def time(self, tokens: int) -> float:
        """``RooflineExecutor.module_time`` of the share over ``tokens`` (> 0) tokens."""
        rate = RooflineExecutor.dense_flops_rate(self.spec, tokens)
        return max(tokens * self.flops * self.share / rate,
                   (self.weight + tokens * self.act_bytes * self.share) / self.spec.mem_bandwidth) + self.launch


class Layout(NamedTuple):
    """What the token-count terms are computed from (see the module docstring)."""

    hidden_bytes: float
    """Hidden-state bytes per token, which TP all-reduces and stage hand-offs move."""
    stages: Tuple[Tuple[Tuple[LinearModule, LinearModule], ...], ...]
    """Per stage, each shard's dense and MLP modules."""
    lm_head: LinearModule
    handoffs: Tuple[Link, ...]


def decode_roofline(
    head_context: int, group_context: int, heads: int,
    flops: float, pair_bytes: float, rate: float, bandwidth: float, launch: float,
) -> float:
    """Per-layer decode Attention time of a batch given by its sums, on one device.

    The batch holds ``heads`` query heads over ``head_context`` cached
    token-heads (``group_context`` per KV group).  ``flops`` is the FLOPs per
    head-token and ``pair_bytes`` the bytes of one key/value vector pair;
    the device computes at ``rate`` FLOP/s, reads at ``bandwidth`` bytes/s
    and launches in ``launch`` seconds.  The executor's Attention roofline
    over :meth:`~repro.models.flops.LayerCostModel.decode_attention_from_sums`,
    bit for bit.
    """
    if heads <= 0:
        return 0.0
    compute = head_context * flops / rate
    memory = pair_bytes * (group_context + heads) / bandwidth
    return (memory if memory > compute else compute) + launch


class DecodePlan(NamedTuple):
    """Hetis decode Attention, priced from per-slot ledger sums.

    A slot is a distinct Primary shard fraction (:attr:`PipelineCost.fractions`)
    or, after those, an Attention worker.  Its ledger entry ``(Σ h·base,
    Σ ⌈h/r⌉·base, Σ h, Σ ⌈h/r⌉)`` sums over the decoding requests with h
    heads there, each at a context of ``base`` plus the decode epoch.  Each
    device is priced by :func:`decode_roofline`, as
    :meth:`PipelineCost.decode_attention_time` prices it, on constants
    compiled once per layout instead of read from its spec per iteration.
    """

    shards: Tuple[Tuple[int, float, float, float], ...]
    """Per distinct ``(spec, slot)`` Primary shard: its slot, FLOP rate, memory bandwidth and launch overhead."""
    stages: Tuple[Tuple[int, Tuple[int, ...]], ...]
    """Per stage: its layer count and the indices of its shards in :attr:`shards`."""
    workers: Tuple[Tuple[int, float, float, float], ...]
    """Per Attention worker, in the layout's order: the same four constants."""
    flops: float
    """Decode Attention FLOPs per head-token of context."""
    pair_bytes: float
    """Bytes of one key/value vector pair."""
    layers: int
    """The model's layers, all of which a worker runs its heads' Attention for."""

    @staticmethod
    def device(slot: int, spec: GPUSpec) -> Tuple[int, float, float, float]:
        """The constants of one shard or worker on ``spec`` reading ledger ``slot``."""
        return slot, spec.small_batch_flops, spec.mem_bandwidth, spec.kernel_overhead

    def primary_time(self, ledger: Sequence[Sequence[int]], epoch: int) -> float:
        """Decode Attention time through every stage, each shard running its slot's heads."""
        flops, pair_bytes = self.flops, self.pair_bytes
        times = []
        for slot, rate, bandwidth, launch in self.shards:
            head_base, group_base, heads, groups = ledger[slot]
            times.append(decode_roofline(
                head_base + epoch * heads, group_base + epoch * groups, heads,
                flops, pair_bytes, rate, bandwidth, launch,
            ))
        total = 0.0
        for layers, shards in self.stages:
            per_layer = 0.0
            for k in shards:
                if times[k] > per_layer:
                    per_layer = times[k]
            total += layers * per_layer
        return total

    def worker_time(self, worker: int, ledger: Sequence[Sequence[int]], epoch: int) -> float:
        """Decode Attention time of Attention worker ``worker`` (an index into :attr:`workers`), transfers excluded."""
        slot, rate, bandwidth, launch = self.workers[worker]
        head_base, group_base, heads, groups = ledger[slot]
        per_layer = decode_roofline(
            head_base + epoch * heads, group_base + epoch * groups, heads,
            self.flops, self.pair_bytes, rate, bandwidth, launch,
        )
        return per_layer * self.layers


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
                shards.append(Shard(
                    spec, frac, self.fractions.index(frac), heads, -(-heads // model.gqa_ratio),
                    heads / model.num_heads,
                ))
            self.shards.append(shards)
        # Derived on the first compile, so building a unit stays cheap.
        self._layout: Optional[Layout] = None
        # Compiled on the first decode_plan call (only Hetis makes one), so
        # static units and Parallelizer candidates never pay for it.
        self._decode_plan: Optional[DecodePlan] = None
        # Filled lazily: one entry per distinct iteration token count.
        self._terms: Dict[int, TokenTerms] = {}
        # Filled lazily: per token count, the price of an iteration with no
        # prefill chunk and no in-stage decode Attention (Hetis's decode steps).
        self._bare: Dict[int, Tuple[float, float, float]] = {}

    def _derive(self) -> Layout:
        cost_model, stages = self.cost_model, self.config.stages
        dense, mlp = cost_model.dense_cost(1), cost_model.mlp_cost(1)
        modules = tuple(
            tuple((LinearModule.of(dense, shard.spec, shard.fraction), LinearModule.of(mlp, shard.spec, shard.fraction))
                  for shard in shards)
            for shards in self.shards
        )
        last = stages[-1]
        lm_head = LinearModule.of(cost_model.lm_head_cost(1), last.devices[0].spec, 1.0 / last.tp_degree)
        handoffs = tuple(
            self.comm.cluster.link_between(prev.devices[-1], nxt.devices[0]) for prev, nxt in zip(stages[:-1], stages[1:])
        )
        return Layout(hidden_state_bytes(self.executor.model, 1), modules, lm_head, handoffs)

    def _compile(self, tokens: int) -> TokenTerms:
        """The token-count terms of an iteration carrying ``tokens`` tokens."""
        stages = self.config.stages
        if tokens == 0:
            # No work and no message: every cost short-circuits, fixed parts included.
            return TokenTerms(tuple((stage.num_layers, 0.0, 0.0) for stage in stages), 0.0, 0.0, 0.0)
        layout = self._layout
        if layout is None:
            layout = self._layout = self._derive()
        hidden = tokens * layout.hidden_bytes
        per_stage = []
        max_mlp = 0.0
        for stage, modules in zip(stages, layout.stages):
            dense_t = mlp_t = 0.0
            for dense, mlp in modules:
                dense_t = max(dense_t, dense.time(tokens))
                mlp_t = max(mlp_t, mlp.time(tokens))
            comm_t = 2.0 * self.comm.cluster.allreduce_time(hidden, stage.devices) if stage.tp_degree > 1 else 0.0
            per_stage.append((stage.num_layers, dense_t, comm_t))
            max_mlp = max(max_mlp, stage.num_layers * mlp_t)
        handoff = 0.0
        for link in layout.handoffs:
            handoff += link.transfer_time(hidden)
        return TokenTerms(tuple(per_stage), max_mlp * len(stages), layout.lm_head.time(tokens), handoff)

    # -- iterations ----------------------------------------------------------------------

    def iteration(
        self, chunks: Sequence[Tuple[int, int]], num_decode: int, decode_context: int | None = None
    ) -> Tuple[float, float, float]:
        """Duration, MLP and Attention module latency of one pass through the pipeline.

        Each stage's Attention covers the prefill ``chunks``, given as
        ``(new_tokens, cached_tokens)`` pairs, and, unless ``decode_context``
        is ``None``, decode Attention over ``num_decode`` requests holding
        ``decode_context`` cached tokens in all, every shard running its share
        of every request's heads.  ``None`` leaves decode Attention to the
        caller (Hetis dispatches it head-wise).  The module latencies follow
        the paper's definition: the largest per-stage time times the number of
        stages, reflecting pipeline bubbles.  Without chunks and with
        ``decode_context`` ``None`` the price depends on ``num_decode`` alone,
        so it is memoized per token count.
        """
        if chunks or decode_context is not None:
            return self._price(chunks, num_decode, decode_context)
        price = self._bare.get(num_decode)
        if price is None:
            price = self._bare[num_decode] = self._price(chunks, num_decode, None)
        return price

    def _price(
        self, chunks: Sequence[Tuple[int, int]], num_decode: int, decode_context: int | None
    ) -> Tuple[float, float, float]:
        """:meth:`iteration`, computed."""
        tokens = num_decode
        for new_tokens, _ in chunks:
            tokens += new_tokens
        terms = self._terms.get(tokens)
        if terms is None:
            terms = self._terms[tokens] = self._compile(tokens)
        stage_terms, mlp, lm_head, handoff = terms
        prefill = self.cost_model.prefill_chunk_terms(chunks) if chunks else ()
        decode = decode_context is not None and num_decode > 0
        totals = []
        max_attention = 0.0
        for (layers, dense, comm), shards in zip(stage_terms, self.shards):
            attention = 0.0
            if prefill or decode:
                for shard in shards:
                    spec = shard.spec
                    t = 0.0
                    if prefill:
                        # LayerCostModel.prefill_chunks_cost, then the executor's Attention roofline.
                        share, flops, act_bytes = shard.head_share, 0.0, 0.0
                        for chunk_flops, chunk_bytes in prefill:
                            flops += chunk_flops * share
                            act_bytes += chunk_bytes * share
                        t = (max(flops / spec.small_batch_flops, act_bytes / spec.mem_bandwidth)
                             + len(prefill) * spec.kernel_overhead)
                    if decode:
                        t += self.decode_attention_time(
                            spec, shard.heads * decode_context, shard.groups * decode_context,
                            shard.heads * num_decode,
                        )
                    attention = max(attention, t)
            totals.append(layers * (dense + attention + comm))
            max_attention = max(max_attention, layers * attention)
        return sum(totals) + lm_head + handoff, mlp, max_attention * len(totals)

    # -- decode Attention ------------------------------------------------------------------

    def decode_attention_time(self, spec: GPUSpec, head_context: int, group_context: int, heads: int) -> float:
        """Per-layer decode Attention time on ``spec`` of a batch given by its sums.

        Equal to the executor's Attention roofline over
        :meth:`~repro.models.flops.LayerCostModel.decode_attention_from_sums`.
        """
        cost_model = self.cost_model
        return decode_roofline(
            head_context, group_context, heads,
            cost_model.decode_flops_per_head_token, cost_model.decode_vector_pair_bytes,
            spec.small_batch_flops, spec.mem_bandwidth, spec.kernel_overhead,
        )

    def decode_plan(self) -> DecodePlan:
        """The layout's :class:`DecodePlan`, compiled on the first call."""
        plan = self._decode_plan
        if plan is None:
            distinct: Dict[Tuple[GPUSpec, int], int] = {}
            stages = tuple(
                (stage.num_layers, tuple(distinct.setdefault((shard.spec, shard.slot), len(distinct)) for shard in shards))
                for stage, shards in zip(self.config.stages, self.shards)
            )
            workers = enumerate(self.config.attention_workers, len(self.fractions))
            plan = self._decode_plan = DecodePlan(
                tuple(DecodePlan.device(slot, spec) for spec, slot in distinct),
                stages,
                tuple(DecodePlan.device(slot, worker.spec) for slot, worker in workers),
                self.cost_model.decode_flops_per_head_token,
                self.cost_model.decode_vector_pair_bytes,
                self.executor.model.num_layers,
            )
        return plan
