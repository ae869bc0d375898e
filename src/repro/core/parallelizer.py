"""The Parallelizer: primary-worker parallelism search (paper Sec. 4.1).

The search follows the paper's hierarchical process (Fig. 4):

1. **Device grouping.**  Enumerate feasible data-parallel instance counts;
   each instance receives an identical mix of GPU types.  Groupings without
   enough memory to host the model plus the workload's KV demand are filtered
   out.
2. **Pipeline partition under perfect scaling.**  Inside a group, GPUs of the
   same type form one unified pipeline stage; layers are assigned to stages
   proportionally to aggregate stage speed (minimizing the max per-stage cost
   ``C_p``), ignoring communication.
3. **Low-end pruning.**  Devices are removed one at a time, slowest type
   first, as long as removing them increases ``C_p`` by at most a factor
   ``1 + delta`` (default 5 %).  Removed devices become Attention workers.
4. **Intra-stage TP x PP search.**  For each unified stage, all factorizations
   of its device count into (tensor-parallel, pipeline-parallel) degrees are
   evaluated, and the cheapest is kept.  A candidate is priced by the call
   the execution units are charged through,
   :meth:`~repro.perf.pipeline_cost.PipelineCost.iteration` over its stages:
   a prefill of the hint's typical prompt, and a decode step of the
   instance's expected concurrency with decode Attention on the Primary
   shards.  Both durations cover the dense modules, TP all-reduces,
   Attention, the LM head and stage hand-offs, and the cost weighs them by
   ``PREFILL_WEIGHT``.  A plan's cost is that of its slowest instance.

The result is a :class:`~repro.parallel.config.ClusterParallelConfig` whose
instances carry both Primary workers and the pooled Attention workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hardware.cluster import Cluster
from repro.hardware.gpu import GPUDevice
from repro.models.spec import ModelSpec
from repro.parallel.config import ClusterParallelConfig, InstanceParallelConfig, StageConfig
from repro.parallel.partitioner import partition_layers_balanced
from repro.parallel.placement import feasible_instance_counts, group_devices_evenly
from repro.perf.commcost import CommModel
from repro.perf.pipeline_cost import PipelineCost
from repro.perf.roofline import RooflineExecutor

#: Weight of the prefill iteration in a layout's cost; the decode step takes the rest.
PREFILL_WEIGHT = 0.5


@dataclass(frozen=True)
class WorkloadHint:
    """The request-distribution summary ``R`` the Parallelizer plans against.

    ``expected_concurrency`` is the number of requests expected to be decoding
    at once per instance; ``avg_context_tokens`` their average context length;
    ``avg_prompt_tokens`` the typical prompt size used to weight prefill cost.
    """

    avg_prompt_tokens: int = 512
    avg_context_tokens: int = 1024
    expected_concurrency: int = 64

    def __post_init__(self) -> None:
        if self.avg_prompt_tokens <= 0 or self.avg_context_tokens <= 0:
            raise ValueError("token counts must be positive")
        if self.expected_concurrency <= 0:
            raise ValueError("expected_concurrency must be positive")

    def kv_demand_bytes(self, model: ModelSpec) -> float:
        """KV bytes needed to host the expected concurrent contexts."""
        return self.expected_concurrency * self.avg_context_tokens * model.kv_bytes_per_token()


@dataclass
class ParallelizerResult:
    """Output of the search: the configuration plus search diagnostics."""

    config: ClusterParallelConfig
    cost: float
    search_seconds: float
    configs_evaluated: int
    primary_devices: List[GPUDevice] = field(default_factory=list)
    attention_workers: List[GPUDevice] = field(default_factory=list)

    @property
    def num_instances(self) -> int:
        return self.config.num_instances


class Parallelizer:
    """Searches the primary-worker parallel configuration for a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        model: ModelSpec,
        hint: WorkloadHint | None = None,
        delta: float = 0.05,
        max_instances: Optional[int] = None,
    ) -> None:
        if delta < 0:
            raise ValueError("delta must be >= 0")
        self.cluster = cluster
        self.model = model
        self.hint = hint or WorkloadHint()
        self.delta = delta
        self.max_instances = max_instances
        self.executor = RooflineExecutor(model)
        self.comm = CommModel(cluster, model)
        self._evaluated = 0

    # -- public API ---------------------------------------------------------------------

    def plan(self) -> ParallelizerResult:
        """Run the full hierarchical search and return the best configuration."""
        start = time.perf_counter()
        self._evaluated = 0
        best: Tuple[float, ClusterParallelConfig, List[GPUDevice], List[GPUDevice]] | None = None

        for n_instances in feasible_instance_counts(self.cluster, self.max_instances):
            groups = group_devices_evenly(self.cluster, n_instances)
            instances: List[InstanceParallelConfig] = []
            cost_per_instance: List[float] = []
            primaries: List[GPUDevice] = []
            attention: List[GPUDevice] = []
            feasible = True
            for group in groups:
                planned = self._plan_instance(group, n_instances)
                if planned is None:
                    feasible = False
                    break
                inst_config, inst_cost = planned
                instances.append(inst_config)
                cost_per_instance.append(inst_cost)
                primaries.extend(inst_config.primary_devices)
                attention.extend(inst_config.attention_workers)
            if not feasible or not instances:
                continue
            # The objective is the inference latency of dense computation, so the
            # cost of a grouping is its slowest instance; per-instance load (the
            # decode concurrency) already accounts for the arrival split across
            # data-parallel replicas.
            total_cost = max(cost_per_instance)
            if best is None or total_cost < best[0]:
                best = (total_cost, ClusterParallelConfig(instances=instances), primaries, attention)

        if best is None:
            raise RuntimeError(
                f"no feasible parallel configuration found for {self.model.name} on {self.cluster!r}"
            )
        elapsed = time.perf_counter() - start
        cost, config, primaries, attention = best
        return ParallelizerResult(
            config=config,
            cost=cost,
            search_seconds=elapsed,
            configs_evaluated=self._evaluated,
            primary_devices=primaries,
            attention_workers=attention,
        )

    # -- per-instance planning ------------------------------------------------------------

    def _plan_instance(
        self, devices: Sequence[GPUDevice], n_instances: int
    ) -> Optional[Tuple[InstanceParallelConfig, float]]:
        """Plan one data-parallel instance over ``devices``."""
        hint = self.hint
        per_instance_concurrency = max(1, hint.expected_concurrency // n_instances)

        # Step 2: unified stages per GPU type (fastest first), proportional layers.
        by_type: Dict[str, List[GPUDevice]] = {}
        for dev in devices:
            by_type.setdefault(dev.spec.name, []).append(dev)
        type_order = sorted(by_type, key=lambda n: by_type[n][0].spec.matmul_flops, reverse=True)

        # Step 3: prune low-end devices by the C_p criterion (slowest type first).
        active: Dict[str, List[GPUDevice]] = {t: list(by_type[t]) for t in type_order}
        pruned: List[GPUDevice] = []
        current_cp = self._unified_cp(active, per_instance_concurrency)
        for type_name in reversed(type_order):
            while active.get(type_name):
                trial = {t: list(ds) for t, ds in active.items()}
                trial[type_name] = trial[type_name][:-1]
                if not trial[type_name]:
                    del trial[type_name]
                if not trial:
                    break
                if not self._memory_feasible(trial, per_instance_concurrency):
                    break
                new_cp = self._unified_cp(trial, per_instance_concurrency)
                if current_cp <= 0 or new_cp / current_cp <= 1.0 + self.delta:
                    pruned.append(active[type_name][-1])
                    active[type_name] = active[type_name][:-1]
                    if not active[type_name]:
                        del active[type_name]
                    current_cp = new_cp
                else:
                    break
        if not active:
            return None
        if not self._memory_feasible(active, per_instance_concurrency):
            return None

        # Step 4: intra-stage TP x PP exploration on the remaining (primary) devices.
        stages = self._search_stage_layout(active, per_instance_concurrency)
        if stages is None:
            return None
        config = InstanceParallelConfig(stages=stages, attention_workers=pruned)
        if not config.fits_in_memory(self.model):
            return None
        return config, self._stages_cost(config.stages, per_instance_concurrency)

    # -- cost models -------------------------------------------------------------------------

    def _type_speed(self, devices: Sequence[GPUDevice]) -> float:
        """Aggregate dense throughput of a same-type device group (perfect scaling)."""
        return sum(d.spec.matmul_flops for d in devices)

    def _unified_cp(self, groups: Dict[str, List[GPUDevice]], concurrency: int) -> float:
        """The C_p objective for unified per-type stages (no communication).

        Following the paper, this step assumes *perfect latency scaling* inside
        a stage and ignores communication, so the optimal (fractional) layer
        split makes every stage's time equal and C_p reduces to
        ``num_layers / total_speed``.  Using the continuous optimum here (rather
        than an integral split) is what lets the pruning loop walk past the
        intermediate states where a shrunken low-end stage would otherwise be
        forced to keep at least one layer.
        """
        if not groups:
            return float("inf")
        total_speed = sum(self._type_speed(ds) for ds in groups.values())
        self._evaluated += 1
        if total_speed <= 0:
            return float("inf")
        return self.model.num_layers / total_speed

    def _memory_feasible(self, groups: Dict[str, List[GPUDevice]], concurrency: int) -> bool:
        """Filter configurations that cannot hold the weights plus the KV demand."""
        usable = sum(d.usable_bytes for ds in groups.values() for d in ds)
        demand = self.model.param_bytes + min(
            self.hint.kv_demand_bytes(self.model), 0.5 * usable
        )
        return usable >= self.model.param_bytes and usable >= demand * 0.9

    def _search_stage_layout(
        self, groups: Dict[str, List[GPUDevice]], concurrency: int
    ) -> Optional[List[StageConfig]]:
        """Choose TP x PP within each unified per-type stage (step 4)."""
        type_order = sorted(groups, key=lambda n: groups[n][0].spec.matmul_flops, reverse=True)
        speeds = [self._type_speed(groups[t]) for t in type_order]
        layer_counts = partition_layers_balanced(self.model.num_layers, speeds)

        stages: List[StageConfig] = []
        for type_name, layers in zip(type_order, layer_counts):
            devices = groups[type_name]
            if layers == 0:
                continue
            best_layout: Optional[List[StageConfig]] = None
            best_cost = float("inf")
            for tp, pp in _factorizations(len(devices)):
                if pp > layers:
                    continue
                sub_layers = partition_layers_balanced(layers, [1.0] * pp)
                layout = []
                ok = True
                for s in range(pp):
                    stage_devices = devices[s * tp : (s + 1) * tp]
                    stage = StageConfig(devices=stage_devices, num_layers=sub_layers[s])
                    layout.append(stage)
                    # Each device must hold its weight shard.
                    for dev_id, n_bytes in stage.weight_bytes_per_device(self.model).items():
                        dev = next(d for d in stage_devices if d.device_id == dev_id)
                        if n_bytes > dev.usable_bytes:
                            ok = False
                if not ok:
                    continue
                cost = self._stages_cost(layout, concurrency)
                self._evaluated += 1
                if cost < best_cost:
                    best_cost, best_layout = cost, layout
            if best_layout is None:
                return None
            stages.extend(best_layout)
        return stages or None

    def _stages_cost(self, stages: List[StageConfig], concurrency: int) -> float:
        """Weighted prefill and decode iteration durations of a stage layout, as the units pay them."""
        pipeline = PipelineCost(InstanceParallelConfig(stages=stages), self.executor, self.comm)
        hint = self.hint
        prefill, _, _ = pipeline.iteration([(hint.avg_prompt_tokens, 0)], 0)
        decode, _, _ = pipeline.iteration([], concurrency, concurrency * hint.avg_context_tokens)
        return PREFILL_WEIGHT * prefill + (1.0 - PREFILL_WEIGHT) * decode


def _factorizations(n: int) -> List[Tuple[int, int]]:
    """All (tp, pp) pairs with tp * pp == n, tp listed largest-first."""
    pairs = []
    for tp in range(n, 0, -1):
        if n % tp == 0:
            pairs.append((tp, n // tp))
    return pairs
