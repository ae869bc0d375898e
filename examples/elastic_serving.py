#!/usr/bin/env python
"""Elastic cluster serving: autoscaling, heterogeneous mixes, admission control.

This walkthrough exercises the three elasticity features of
:class:`~repro.core.cluster_system.ClusterServingSystem` on bursty traffic:

1. **Replica autoscaling** -- a target-KV-utilization autoscaler watches a
   4-replica deployment under a flash-crowd (spike) schedule.  Replicas start
   at the minimum, are activated as the bursts build KV pressure, and drain
   back down in the idle valleys (drained replicas finish their in-flight
   requests but receive no new arrivals).
2. **Heterogeneous replica mixes** -- a big A100 replica next to a small
   RTX-3090 replica, compared under plain round-robin (blind, overloads the
   small replica) and the capacity-weighted routers (traffic proportional to
   each replica's KV capacity).
3. **Router-aware admission control** -- the same overload scenario with and
   without a queue-threshold admission controller, showing the goodput /
   SLO-attainment block of the metrics summary: rejecting the overflow keeps
   the served requests inside their latency objective instead of letting every
   request miss it.

Run with:

    PYTHONPATH=src python examples/elastic_serving.py
"""

from repro.api import build, run
from repro.config import DeploymentSpec
from repro.workloads.arrivals import spike_phases

#: Static tensor-parallel Llama-13B replicas behind least-KV routing.
BASE = DeploymentSpec().with_overrides(
    {"model": "llama-13b", "system.name": "static-tp", "router.name": "least-kv"}
)


def autoscaling_demo() -> None:
    """Active-replica count follows a two-burst flash-crowd schedule."""
    print("== 1. replica autoscaling under a flash-crowd schedule ==")
    phases = spike_phases(
        base_rate=0.5, spike_rate=8.0, base_duration=30.0, spike_duration=20.0, num_spikes=2
    )
    result = run(BASE.with_overrides({
        "cluster.kind": "small",
        "cluster.replicas": 4,
        "elasticity.autoscaler": "target-kv",
        "elasticity.autoscaler_options": {"target_utilization": 0.3, "interval": 2.0, "min_replicas": 1},
        "workload.request_rate": 0.0,  # the piecewise schedule drives arrivals
        "workload.num_requests": 400,
        "workload.phases": phases,
    }))
    timeline = result.recorder.raw("active_replicas", "cluster")
    peak = int(max(v for _, v in timeline))
    print(f"finished {result.summary.num_finished} requests; "
          f"active replicas peaked at {peak}/4")
    print("active-replica timeline (t -> n):")
    changes = [(t, int(v)) for i, (t, v) in enumerate(timeline)
               if i == 0 or int(v) != int(timeline[i - 1][1])]
    print("  " + ", ".join(f"{t:5.0f}s -> {n}" for t, n in changes))


def heterogeneous_demo() -> None:
    """Capacity-weighted routers vs. blind round-robin on an asymmetric mix."""
    print("\n== 2. heterogeneous replica mix (a100:1,rtx3090:2 + rtx3090:2) ==")
    print(f"{'router':>24} {'mean s/tok':>12} {'p95 TTFT':>10} {'split big/small':>16}")
    mix = BASE.with_overrides({
        "cluster.replica_kinds": ["a100:1,rtx3090:2", "rtx3090:2"],
        "workload.request_rate": 10.0,
        "workload.num_requests": 96,
    })
    for router in ("round-robin", "weighted-round-robin", "weighted-least-kv",
                   "weighted-power-of-two"):
        prepared = build(mix.with_overrides({"router.name": router}))
        result = prepared.run()
        s = result.summary
        big, small = prepared.system.requests_per_replica
        print(f"{router:>24} {s.mean_normalized_latency:>12.4f} {s.p95_ttft:>10.3f}"
              f" {f'{big}/{small}':>16}")
    print("weighted routers shift load toward the larger a100 replica;")
    print("blind round-robin splits 50/50 and queues up the small replica.")


def admission_demo() -> None:
    """Goodput with and without admission control on a saturated deployment."""
    print("\n== 3. router-aware admission control under overload ==")
    overload = BASE.with_overrides({
        "cluster.replica_kinds": ["rtx3090:2", "rtx3090:2"],
        "workload.dataset": "longbench",
        "workload.request_rate": 20.0,
        "workload.num_requests": 64,
    })
    print(f"{'policy':>16} {'finished':>9} {'rejected':>9} {'SLO att.':>9} "
          f"{'goodput':>9} {'p95 TTFT':>9}")
    for label, admission in (
        ("admit-all", {}),
        ("queue<=4", {
            "elasticity.admission": "queue-threshold",
            "elasticity.admission_options": {"max_queue_depth": 4, "mode": "reject"},
        }),
    ):
        result = run(overload.with_overrides(admission))
        s = result.summary
        print(f"{label:>16} {s.num_finished:>9} {s.num_rejected:>9} "
              f"{s.slo_attainment:>9.1%} {s.goodput_rps:>9.3f} {s.p95_ttft:>9.2f}")
    print("rejecting overflow trades completed requests for SLO-attaining ones.")


def main() -> None:
    autoscaling_demo()
    heterogeneous_demo()
    admission_demo()


if __name__ == "__main__":
    main()
