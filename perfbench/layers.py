"""Per-layer metrics derived from a traced run, and the predictions they test.

Each layer is named by the modules it covers.  The README's layer table
records, before any optimisation is measured, which end-to-end metric a layer
should move and on which workload; ``PREDICTIONS`` is the part of that table
the traced run checks by itself (which layers must be idle on which workloads).

Self times of layers that only some workloads exercise (dispatcher, control
plane, runner) are reported as a *share* of the traced timed phase, so a
workload that bypasses the layer reads an honest 0 share rather than a
constant zero-second timing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from perfbench.tracing import Tracer, by_name

STATIC, HETIS, FLEET = "static-humaneval-diurnal", "hetis-chat-longdoc", "fleet-churn-sweep"
ALL = (STATIC, HETIS, FLEET)

#: metric -> workloads on which it must be nonzero; it must be 0 on the others.
PREDICTIONS: Dict[str, Sequence[str]] = {
    "engine.events": ALL,
    "units.iterations": ALL,
    "kv.append_calls": ALL,
    "cost.calls": ALL,
    "recorder.record_calls": ALL,
    "metrics.observe_calls": ALL,
    "dispatch.calls": (HETIS,),
    "dispatch.offloaded": (HETIS,),
    "redispatch.calls": (HETIS,),
    "router.select_calls": (FLEET,),
    "cluster.admit_calls": (FLEET,),
    "cluster.control_ticks": (FLEET,),
    "migration.plan_calls": (FLEET,),
    "runner.points": (FLEET,),
}

#: (name, unit, better) of every per-layer metric, in print order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("engine.events", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.events_per_s", "1/s", "higher"),
    ("units.iterations", "count", "lower"),
    ("units.next_iteration_self_s", "s", "lower"),
    ("units.complete_iteration_self_s", "s", "lower"),
    ("units.iteration_wall_us_p50", "us", "lower"),
    ("units.iteration_wall_us_p99", "us", "lower"),
    ("units.decode_batch_mean", "req", "higher"),
    ("units.prefill_tokens_per_iteration_mean", "tok", "higher"),
    ("units.preemptions", "count", "lower"),
    ("scheduler.select_prefill_chunks_calls", "count", "lower"),
    ("scheduler.select_prefill_chunks_self_s", "s", "lower"),
    ("kv.can_append_calls", "count", "lower"),
    ("kv.append_calls", "count", "lower"),
    ("kv.allocate_calls", "count", "lower"),
    ("kv.free_calls", "count", "lower"),
    ("kv.self_s", "s", "lower"),
    ("kv.can_append_per_decode_token", "ratio", "lower"),
    ("kv.block_crossing_ratio", "ratio", "lower"),
    ("cost.calls", "count", "lower"),
    ("cost.self_s", "s", "lower"),
    ("cost.calls_per_iteration", "ratio", "lower"),
    ("cost.lru_attention_transfer_bytes_hit_rate", "ratio", "higher"),
    ("cost.lru_head_coefficient_hit_rate", "ratio", "higher"),
    ("dispatch.calls", "count", "lower"),
    ("dispatch.self_share", "share", "lower"),
    ("dispatch.requests_per_call", "req", "higher"),
    ("dispatch.solve_lp_calls", "count", "lower"),
    ("dispatch.solve_lp_share", "share", "lower"),
    ("dispatch.solve_greedy_calls", "count", "lower"),
    ("dispatch.solve_greedy_share", "share", "lower"),
    ("dispatch.method_local", "count", "higher"),
    ("dispatch.method_lp", "count", "lower"),
    ("dispatch.method_lp_greedy", "count", "lower"),
    ("dispatch.method_greedy", "count", "lower"),
    ("dispatch.lp_kept_ratio", "ratio", "higher"),
    ("dispatch.offloaded", "count", "lower"),
    ("dispatch.offloaded_head_share", "share", "lower"),
    ("redispatch.calls", "count", "lower"),
    ("redispatch.self_share", "share", "lower"),
    ("redispatch.applied", "count", "lower"),
    ("hauler.migrate_calls", "count", "lower"),
    ("hauler.moved_bytes", "B", "lower"),
    ("router.select_calls", "count", "lower"),
    ("router.select_self_share", "share", "lower"),
    ("cluster.admit_calls", "count", "lower"),
    ("cluster.admit_self_share", "share", "lower"),
    ("cluster.control_ticks", "count", "lower"),
    ("cluster.control_tick_self_share", "share", "lower"),
    ("cluster.on_iteration_self_share", "share", "lower"),
    ("migration.plan_calls", "count", "lower"),
    ("migration.requests", "count", "lower"),
    ("migration.bytes", "B", "lower"),
    ("autoscaler.scale_events", "count", "lower"),
    ("recorder.record_calls", "count", "lower"),
    ("recorder.self_s", "s", "lower"),
    ("metrics.observe_calls", "count", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("runner.points", "count", "higher"),
    ("runner.point_p50_share", "share", "lower"),
    ("runner.point_max_share", "share", "lower"),
    ("runner.cache_store_share", "share", "lower"),
    ("runner.journal_append_share", "share", "lower"),
    ("runner.overhead_share", "share", "lower"),
    ("setup.build_s", "s", "lower"),
    ("setup.trace_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def iteration_walls(spans) -> List[float]:
    """Wall seconds of plan + completion per iteration, paired by iteration tag."""
    pending: Dict[int, float] = {}
    walls = []
    for s in sorted((s for s in spans if s.tag is not None), key=lambda s: s.start):
        if s.name == "units.next_iteration":
            pending[s.tag] = s.duration
        elif s.name == "units.complete_iteration" and s.tag in pending:
            walls.append(pending.pop(s.tag) + s.duration)
    return walls


def per_layer_metrics(
    tracer: Tracer,
    *,
    traced_wall: float,
    untraced_wall: float,
    untraced_events: int,
    decode_tokens: int,
    jobs: int,
    lru: Mapping[str, Tuple[int, int]],
    systems: Sequence[Any],
) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER`, from the traced timed phases (walls summed)."""
    spans = by_name(tracer.spans)
    c = tracer.counters
    aggs = tracer.aggregates

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def agg(prefix: str, key: str) -> float:
        return sum(getattr(a, key) for n, a in aggs.items() if n.startswith(prefix))

    def share(seconds: float) -> float:
        return _ratio(seconds, traced_wall)

    iterations = span("units.complete_iteration", "calls")
    walls_us = np.array(iteration_walls(tracer.spans)) * 1e6
    points = np.array(spans.get("runner.point", {}).get("durations", []))
    sweep_wall = _ratio(traced_wall, span("runner.sweep", "calls"))  # one sweep's wall
    lp_calls = span("dispatch.solve_lp", "calls")
    redispatch = ("redispatch.check_compute_balance", "redispatch.handle_cache_exhaustion")
    units = [u for system in systems for u in system.units]
    scale_events = sum(max(0, len(getattr(s, "scale_events", [])) - 1) for s in systems)

    def hit_rate(name: str) -> float:
        hits, misses = lru.get(name, (0, 0))
        return _ratio(hits, hits + misses)

    m = {
        "engine.events": c["engine.events"],
        "engine.self_s": span("engine.run", "self_s"),
        "engine.events_per_s": _ratio(untraced_events, untraced_wall),
        "units.iterations": iterations,
        "units.next_iteration_self_s": span("units.next_iteration", "self_s"),
        "units.complete_iteration_self_s": span("units.complete_iteration", "self_s"),
        "units.iteration_wall_us_p50": float(np.percentile(walls_us, 50)) if walls_us.size else 0.0,
        "units.iteration_wall_us_p99": float(np.percentile(walls_us, 99)) if walls_us.size else 0.0,
        "units.decode_batch_mean": float(np.mean(tracer.samples["units.decode_batch"] or [0])),
        "units.prefill_tokens_per_iteration_mean": float(np.mean(tracer.samples["units.prefill_tokens"] or [0])),
        "units.preemptions": c["units.preemptions"],
        "scheduler.select_prefill_chunks_calls": span("scheduler.select_prefill_chunks", "calls"),
        "scheduler.select_prefill_chunks_self_s": span("scheduler.select_prefill_chunks", "self_s"),
        "kv.can_append_calls": agg("kv.can_append", "calls"),
        "kv.append_calls": agg("kv.append", "calls"),
        "kv.allocate_calls": agg("kv.allocate", "calls"),
        "kv.free_calls": agg("kv.free", "calls"),
        "kv.self_s": agg("kv.", "self_s"),
        "kv.can_append_per_decode_token": _ratio(agg("kv.can_append", "calls"), decode_tokens),
        "kv.block_crossing_ratio": _ratio(c["kv.block_crossings"], agg("kv.append", "calls")),
        "cost.calls": agg("cost.", "calls"),
        "cost.self_s": agg("cost.", "self_s"),
        "cost.calls_per_iteration": _ratio(agg("cost.", "calls"), iterations),
        "cost.lru_attention_transfer_bytes_hit_rate": hit_rate("attention_transfer_bytes"),
        "cost.lru_head_coefficient_hit_rate": hit_rate("head_coefficient"),
        "dispatch.calls": span("dispatch.dispatch_new", "calls"),
        "dispatch.self_share": share(span("dispatch.dispatch_new", "self_s")),
        "dispatch.requests_per_call": _ratio(c["dispatch.requests"], span("dispatch.dispatch_new", "calls")),
        "dispatch.solve_lp_calls": lp_calls,
        "dispatch.solve_lp_share": share(span("dispatch.solve_lp", "total_s")),
        "dispatch.solve_greedy_calls": span("dispatch.solve_greedy", "calls"),
        "dispatch.solve_greedy_share": share(span("dispatch.solve_greedy", "total_s")),
        "dispatch.method_local": c["dispatch.method.local"],
        "dispatch.method_lp": c["dispatch.method.lp"],
        "dispatch.method_lp_greedy": c["dispatch.method.lp+greedy"],
        "dispatch.method_greedy": c["dispatch.method.greedy"],
        "dispatch.lp_kept_ratio": _ratio(c["dispatch.method.lp"], lp_calls),
        "dispatch.offloaded": c["dispatch.offloaded"],
        "dispatch.offloaded_head_share": _ratio(c["dispatch.offloaded_heads"], c["dispatch.heads"]),
        "redispatch.calls": sum(span(n, "calls") for n in redispatch),
        "redispatch.self_share": share(sum(span(n, "self_s") for n in redispatch)),
        "redispatch.applied": sum(getattr(u, "num_redispatches", 0) for u in units),
        "hauler.migrate_calls": span("hauler.migrate", "calls"),
        "hauler.moved_bytes": c["hauler.moved_bytes"],
        "router.select_calls": span("router.select", "calls"),
        "router.select_self_share": share(span("router.select", "self_s")),
        "cluster.admit_calls": span("cluster.admit", "calls"),
        "cluster.admit_self_share": share(span("cluster.admit", "self_s")),
        "cluster.control_ticks": span("cluster.control_tick", "calls"),
        "cluster.control_tick_self_share": share(span("cluster.control_tick", "self_s")),
        "cluster.on_iteration_self_share": share(span("cluster.on_iteration", "self_s")),
        "migration.plan_calls": span("migration.plan", "calls"),
        "migration.requests": c["migration.requests"],
        "migration.bytes": c["migration.bytes"],
        "autoscaler.scale_events": scale_events,
        "recorder.record_calls": aggs["recorder.record"].calls if "recorder.record" in aggs else 0,
        "recorder.self_s": agg("recorder.", "self_s"),
        "metrics.observe_calls": agg("metrics.", "calls"),
        "metrics.self_s": agg("metrics.", "self_s"),
        "runner.points": points.size,
        "runner.point_p50_share": _ratio(float(np.percentile(points, 50)), sweep_wall) if points.size else 0.0,
        "runner.point_max_share": _ratio(float(points.max()), sweep_wall) if points.size else 0.0,
        "runner.cache_store_share": share(span("runner.cache_store", "total_s")),
        "runner.journal_append_share": share(span("runner.journal_append", "total_s")),
        "runner.overhead_share": 1.0 - _ratio(float(points.sum()), jobs * traced_wall) if points.size else 0.0,
        "setup.build_s": span("setup.build", "total_s"),
        "setup.trace_s": span("setup.trace", "total_s"),
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
    }
    return {name: float(m[name]) for name, _unit, _better in PER_LAYER}


def prediction_violations(workload: str, metrics: Mapping[str, float]) -> List[str]:
    """Which :data:`PREDICTIONS` the per-layer metrics of ``workload`` break."""
    problems = []
    for name, active_on in PREDICTIONS.items():
        value = metrics[name]
        if workload in active_on and value <= 0:
            problems.append(f"{name} = {value:g}, predicted nonzero on {workload}")
        elif workload not in active_on and value != 0:
            problems.append(f"{name} = {value:g}, predicted 0 on {workload}")
    return problems
