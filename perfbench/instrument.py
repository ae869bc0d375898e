"""Wrap the simulator's public entry points with span and aggregate recorders.

Nothing under ``src/`` changes: :func:`instrumented` patches class and module
attributes for the duration of a ``with`` block and restores them on exit.
Layer names follow the modules they wrap (``engine``, ``units``, ``kv``,
``cost``, ``dispatch``, ...); see :mod:`perfbench.layers` for the metrics
derived from them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Tuple

import repro.api
import repro.core.dispatcher
import repro.experiments.runner
import repro.solvers.head_dispatch
from repro.core.cluster_system import ClusterServingSystem, ReplicaRouter
from repro.core.dispatcher import Dispatcher
from repro.core.hauler import Hauler
from repro.core.hetis_unit import HetisInstanceUnit  # noqa: F401  (registers the subclass)
from repro.core.redispatch import RedispatchPolicy
from repro.experiments.runner import ResultCache, RunJournal, SweepRunner
from repro.kvcache.block_manager import PagedBlockManager
from repro.kvcache.head_block_manager import HeadwiseBlockManager
from repro.kvcache.migration import ReplicaMigrationPlanner
from repro.models.flops import LayerCostModel
from repro.perf.attention_model import DeviceAttentionModel
from repro.perf.commcost import CommModel
from repro.perf.roofline import RooflineExecutor
from repro.sim.engine import Engine
from repro.sim.metrics import MetricsCollector
from repro.sim.recorder import TimeSeriesRecorder
from repro.sim.request import Request
from repro.sim.scheduler import ContinuousBatchingPolicy
from repro.sim.units import ExecutionUnit

from perfbench import workloads
from perfbench.tracing import Tracer

COST_METHODS = {
    LayerCostModel: (
        "qkv_cost", "attn_output_proj_cost", "mlp_cost", "dense_cost", "prefill_attention_cost",
        "prefill_attention_batch_cost", "decode_attention_cost", "decode_attention_batch_cost",
        "layer_cost", "lm_head_cost",
    ),
    RooflineExecutor: (
        "module_time", "attention_module_time", "dense_time", "mlp_time", "prefill_attention_time",
        "decode_attention_time", "lm_head_time", "layer_timing", "layer_time", "full_model_time",
    ),
    CommModel: (
        "pipeline_handoff_time", "tp_allreduce_time", "attention_offload_time",
        "seqwise_offload_time", "kv_migration_time",
    ),
    DeviceAttentionModel: ("attention_time",),
}

OBSERVE_METHODS = (
    "observe_arrival", "observe_rejection", "observe_deferral", "observe_dropped_retry",
    "observe_finish", "observe_module_times",
)


def _subclasses_defining(base: type, attr: str) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__ and not getattr(cls.__dict__[attr], "__isabstractmethod__", False):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(set(found), key=lambda c: c.__qualname__)


# -- return-value hooks: counts taken where the work happens ---------------------


def _on_engine_run(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counters["engine.events"] += result.wall_clock_events


def _on_next_iteration(tracer: Tracer, args: tuple, iteration: Any) -> None:
    if iteration is None:
        return
    prefill = sum(r.remaining_prefill_tokens for r in iteration.prefill_requests)
    prefill += sum(c.new_tokens for c in iteration.partial_prefills)
    tracer.samples["units.decode_batch"].append(len(iteration.decode_requests))
    tracer.samples["units.prefill_tokens"].append(prefill)


def _on_dispatch(tracer: Tracer, args: tuple, decision: Any) -> None:
    c = tracer.counters
    c["dispatch.requests"] += len(args[1])
    c[f"dispatch.method.{decision.method}"] += 1
    if not decision.feasible:
        return
    primary = args[0].primary.target_id
    offloaded = 0
    for split in decision.splits.values():
        offloaded += split.offloaded_heads(primary)
        c["dispatch.heads"] += split.total_heads
    c["dispatch.offloaded_heads"] += offloaded
    if offloaded:
        c["dispatch.offloaded"] += 1


def _on_hauler(tracer: Tracer, args: tuple, report: Any) -> None:
    tracer.counters["hauler.moved_bytes"] += report.moved_bytes


def _on_migration_plan(tracer: Tracer, args: tuple, plan: Any) -> None:
    tracer.counters["migration.requests"] += plan.num_requests
    tracer.counters["migration.bytes"] += plan.total_bytes


def _iteration_result_tag(args: tuple, result: Any):
    return None if result is None else id(result)


def _iteration_arg_tag(args: tuple, result: Any):
    return id(args[1])


def _block_crossings(tracer: Tracer, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Count appends that took a new block (``used_blocks`` grew)."""
    counters = tracer.counters

    def wrapper(manager, *args: Any, **kwargs: Any) -> Any:
        before = manager.used_blocks
        result = fn(manager, *args, **kwargs)
        if manager.used_blocks > before:
            counters["kv.block_crossings"] += 1
        return result

    return wrapper


class Instrumentation:
    """Live patches plus the objects the traced run built (for end-of-run counts)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.prepared: List[Any] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, new: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def span(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.patch(owner, attr, self.tracer.wrap_span(name, original, **hooks))

    def aggregate(self, owner: Any, attr: str, name: str, pre=None) -> None:
        fn = owner.__dict__[attr]
        if pre is not None:
            fn = pre(self.tracer, fn)
        self.patch(owner, attr, self.tracer.wrap_aggregate(name, fn))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        t = self.tracer

        # engine, units, scheduler
        self.span(Engine, "run", "engine.run", on_return=_on_engine_run)
        for cls in _subclasses_defining(ExecutionUnit, "next_iteration"):
            self.span(cls, "next_iteration", "units.next_iteration",
                      on_return=_on_next_iteration, tag=_iteration_result_tag)
        for cls in _subclasses_defining(ExecutionUnit, "complete_iteration"):
            self.span(cls, "complete_iteration", "units.complete_iteration", tag=_iteration_arg_tag)
        self.span(ContinuousBatchingPolicy, "select_prefill_chunks", "scheduler.select_prefill_chunks")
        self.patch(Request, "preempt", t.wrap_counter("units.preemptions", Request.__dict__["preempt"]))

        # kvcache: hot, so aggregated
        for cls, append in ((PagedBlockManager, "append"), (HeadwiseBlockManager, "append_token")):
            self.aggregate(cls, "can_append", "kv.can_append")
            self.aggregate(cls, append, "kv.append", pre=_block_crossings)
            self.aggregate(cls, "allocate", "kv.allocate")
            self.aggregate(cls, "free", "kv.free")

        # cost models: hot, so aggregated
        for cls, methods in COST_METHODS.items():
            for method in methods:
                self.aggregate(cls, method, f"cost.{cls.__name__}.{method}")

        # dispatcher, solvers, re-dispatch, hauler
        self.span(Dispatcher, "dispatch_new", "dispatch.dispatch_new", on_return=_on_dispatch)
        for fn_name in ("solve_lp", "solve_greedy"):
            wrapped = t.wrap_span(f"dispatch.{fn_name}", getattr(repro.solvers.head_dispatch, fn_name))
            self.patch(repro.solvers.head_dispatch, fn_name, wrapped)
            self.patch(repro.core.dispatcher, fn_name, wrapped)
        for method in ("check_compute_balance", "handle_cache_exhaustion"):
            self.span(RedispatchPolicy, method, f"redispatch.{method}")
        self.span(Hauler, "migrate", "hauler.migrate", on_return=_on_hauler)

        # cluster control plane and replica migration
        for cls in _subclasses_defining(ReplicaRouter, "select"):
            self.span(cls, "select", "router.select")
        self.span(ClusterServingSystem, "admit", "cluster.admit")
        self.span(ClusterServingSystem, "on_control_tick", "cluster.control_tick")
        self.span(ClusterServingSystem, "on_iteration", "cluster.on_iteration")
        self.span(ReplicaMigrationPlanner, "plan", "migration.plan", on_return=_on_migration_plan)

        # metrics and recorder: hot, so aggregated
        self.aggregate(TimeSeriesRecorder, "record", "recorder.record")
        self.aggregate(TimeSeriesRecorder, "record_many", "recorder.record_many")
        for method in OBSERVE_METHODS:
            self.aggregate(MetricsCollector, method, f"metrics.{method}")

        # runner
        self.span(SweepRunner, "run", "runner.sweep")
        self.span(ResultCache, "store", "runner.cache_store")
        self.span(RunJournal, "append", "runner.journal_append")
        point = t.wrap_span("runner.point", repro.experiments.runner._execute_task)
        points = [0]

        def run_point(kind: str, payload: Any) -> Any:
            base = t.run_id.split("/point", 1)[0]
            t.run_id = f"{base}/point{points[0]}"
            points[0] += 1
            try:
                return point(kind, payload)
            finally:
                t.run_id = base

        self.patch(repro.experiments.runner, "_execute_task", run_point)

        # set-up: api.build and trace generation
        def keep_prepared(tracer: Tracer, args: tuple, prepared: Any) -> None:
            self.prepared.append(prepared)

        self.span(repro.api, "build", "setup.build", on_return=keep_prepared)
        self.span(repro.api.PreparedRun, "run", "api.prepared_run")
        for fn_name in ("generate_trace", "generate_trace_stream"):
            self.span(repro.api, fn_name, "setup.trace")
        self.span(workloads, "mixed_trace", "setup.trace")


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[Instrumentation]:
    """Patch every traced entry point for the duration of the block."""
    inst = Instrumentation(tracer)
    try:
        inst.install()
        yield inst
    finally:
        inst.restore()
