"""Tests for the elasticity subsystem: autoscaling and admission control."""

import pytest

from repro.api import build, run, run_system
from repro.config import DeploymentSpec
from repro.core.cluster_system import ClusterServingSystem
from repro.core.elasticity import (
    KVThresholdAdmission,
    QueueDepthAutoscaler,
    QueueThresholdAdmission,
    ReplicaState,
    TargetKVUtilizationAutoscaler,
    make_admission,
    make_autoscaler,
)
from repro.sim.request import Request
from repro.workloads.arrivals import RatePhase, diurnal_phases, spike_phases
from repro.workloads.trace import generate_trace


def states(utils, queues=None, active=None, capacity=1e9):
    queues = queues or [0] * len(utils)
    active = active if active is not None else [True] * len(utils)
    return [
        ReplicaState(
            index=i,
            active=active[i],
            kv_utilization=utils[i],
            queue_depth=queues[i],
            num_running=0,
            capacity_bytes=capacity,
        )
        for i in range(len(utils))
    ]


def req(request_id=0):
    return Request(request_id=request_id, arrival_time=0.0, prompt_tokens=16, output_tokens=4)


class TestAutoscalerPolicies:
    def test_factory_resolves_names_and_rejects_unknown(self):
        assert make_autoscaler("target-kv").name == "target-kv"
        assert make_autoscaler("queue-depth").name == "queue-depth"
        assert make_autoscaler(None) is None
        policy = TargetKVUtilizationAutoscaler()
        assert make_autoscaler(policy) is policy
        with pytest.raises(ValueError, match="unknown autoscaler"):
            make_autoscaler("yolo-scaler")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TargetKVUtilizationAutoscaler(target_utilization=0.0)
        with pytest.raises(ValueError):
            TargetKVUtilizationAutoscaler(interval=0.0)
        with pytest.raises(ValueError):
            QueueDepthAutoscaler(target_queue_per_replica=0)
        with pytest.raises(ValueError):
            TargetKVUtilizationAutoscaler(min_replicas=0)

    def test_target_kv_scales_up_proportionally(self):
        policy = TargetKVUtilizationAutoscaler(target_utilization=0.5, queue_pressure=0.0)
        # 2 active replicas at 0.9 utilization -> ceil(2 * 0.9 / 0.5) = 4.
        s = states([0.9, 0.9, 0.0, 0.0], active=[True, True, False, False])
        assert policy.desired_active(s, now=0.0) == 4

    def test_target_kv_queue_pressure_counts_cold_backlog(self):
        eager = TargetKVUtilizationAutoscaler(target_utilization=0.5, queue_pressure=0.1)
        s = states([0.0, 0.0], queues=[10, 10], active=[True, False])
        # KV empty but 10 queued at the single active replica: 0.1 * 10 / 0.5 = 2.
        assert eager.desired_active(s, now=0.0) == 2

    def test_target_kv_scale_down_needs_patience_and_is_gradual(self):
        policy = TargetKVUtilizationAutoscaler(
            target_utilization=0.5, queue_pressure=0.0, scale_down_patience=2
        )
        s = states([0.01, 0.01, 0.01], active=[True, True, True])
        assert policy.desired_active(s, now=0.0) == 3  # first low tick: hold
        assert policy.desired_active(s, now=5.0) == 2  # second: drain ONE replica
        drained = states([0.01, 0.01, 0.0], active=[True, True, False])
        assert policy.desired_active(drained, now=10.0) == 2  # patience restarts

    def test_queue_depth_policy(self):
        policy = QueueDepthAutoscaler(target_queue_per_replica=4.0)
        # 16 queued across 2 active replicas -> 4 replicas wanted (fleet has 4).
        s = states([0.5, 0.5, 0.0, 0.0], queues=[8, 8, 0, 0],
                   active=[True, True, False, False])
        assert policy.desired_active(s, now=0.0) == 4
        idle = states([0.1, 0.1], queues=[0, 0], active=[True, True])
        assert policy.desired_active(idle, now=1.0) == 2  # first idle tick holds
        assert policy.desired_active(idle, now=2.0) == 1

    def test_desired_never_exceeds_fleet_or_drops_below_min(self):
        policy = TargetKVUtilizationAutoscaler(target_utilization=0.1, min_replicas=2)
        hot = states([1.0, 1.0, 1.0], active=[True, True, True])
        assert policy.desired_active(hot, now=0.0) == 3
        cold = states([0.0, 0.0, 0.0], active=[True, True, True])
        policy2 = TargetKVUtilizationAutoscaler(target_utilization=0.9, min_replicas=2,
                                                scale_down_patience=1)
        assert policy2.desired_active(cold, now=0.0) >= 2


class TestAdmissionControllers:
    def test_factory_resolves_names_and_rejects_unknown(self):
        assert make_admission("kv-threshold").name == "kv-threshold"
        assert make_admission("queue-threshold").name == "queue-threshold"
        assert make_admission(None) is None
        ctrl = KVThresholdAdmission()
        assert make_admission(ctrl) is ctrl
        with pytest.raises(ValueError, match="unknown admission"):
            make_admission("coin-flip")

    def test_admits_while_any_active_replica_has_room(self):
        ctrl = KVThresholdAdmission(max_utilization=0.8)
        s = states([0.9, 0.3], active=[True, True])
        assert ctrl.decide(req(), s, now=0.0).action == "admit"

    def test_rejects_when_all_active_replicas_overloaded(self):
        ctrl = KVThresholdAdmission(max_utilization=0.8, mode="reject")
        s = states([0.9, 0.85], active=[True, True])
        assert ctrl.decide(req(), s, now=0.0).action == "reject"

    def test_drained_replicas_do_not_count_as_room(self):
        ctrl = KVThresholdAdmission(max_utilization=0.8)
        s = states([0.95, 0.0], active=[True, False])
        assert ctrl.decide(req(), s, now=0.0).action == "reject"

    def test_defer_mode_bounds_retries_then_rejects(self):
        ctrl = QueueThresholdAdmission(
            max_queue_depth=1, mode="defer", retry_delay=0.5, max_defers=3
        )
        s = states([0.5], queues=[5])
        r = req(7)
        for _ in range(3):
            decision = ctrl.decide(r, s, now=0.0)
            assert decision.action == "defer"
            assert decision.retry_delay == 0.5
        assert ctrl.decide(r, s, now=0.0).action == "reject"
        # Retry budget resets once the request is finally admitted elsewhere.
        assert ctrl.decide(req(8), s, now=0.0).action == "defer"

    def test_validation(self):
        with pytest.raises(ValueError):
            KVThresholdAdmission(max_utilization=0.0)
        with pytest.raises(ValueError):
            QueueThresholdAdmission(max_queue_depth=0)
        with pytest.raises(ValueError):
            KVThresholdAdmission(mode="drop")


#: Four static-tp replicas on small clusters behind least-kv routing.
FLEET = DeploymentSpec().with_overrides(
    {"system.name": "static-tp", "cluster.kind": "small", "cluster.replicas": 4, "router.name": "least-kv"}
)
#: Two small RTX-3090 replicas behind least-kv routing, serving LongBench.
TWO_3090 = FLEET.with_overrides(
    {"cluster.replica_kinds": ["rtx3090:2", "rtx3090:2"], "cluster.replicas": 2, "workload.dataset": "longbench"}
)


@pytest.mark.slow
class TestElasticIntegration:
    def test_autoscaler_rises_in_bursts_and_drains_idle(self):
        """Acceptance: on the Fig.-14 piecewise workload the active-replica
        count rises during the burst phases and drains back in the idle
        phases."""
        phases = [
            RatePhase(rate=8.0, duration=25.0),
            RatePhase(rate=1e-6, duration=25.0),
            RatePhase(rate=4.0, duration=25.0),
            RatePhase(rate=1e-6, duration=25.0),
        ]
        system = build(FLEET.with_overrides({
            "elasticity.autoscaler": "target-kv",
            "elasticity.autoscaler_options": {"target_utilization": 0.25, "interval": 2.0, "min_replicas": 1},
        })).system
        assert system.num_active == 1  # starts at the minimum
        trace = generate_trace("sharegpt", 0.0, 300, seed=0, phases=phases)
        result = run_system(system, trace)
        assert result.summary.num_finished == len(trace)
        series = result.recorder.raw("active_replicas", "cluster")
        assert series, "autoscaler must record the active-replica series"
        burst1 = [v for t, v in series if t <= 25.0]
        idle1 = [v for t, v in series if 25.0 < t <= 50.0]
        assert max(burst1) > 1.0, "burst phase must scale out beyond the minimum"
        assert idle1 and idle1[-1] < max(burst1), "idle phase must drain replicas"
        assert min(v for _, v in series) >= 1.0
        # scale_events mirrors the recorder series transitions.
        assert system.scale_events
        assert max(n for _, n in system.scale_events) == int(max(v for _, v in series))

    def test_drained_replicas_finish_in_flight_work(self):
        """Draining must never strand requests: everything routed to a replica
        that later drains still completes."""
        system = build(FLEET.with_overrides({
            "cluster.replicas": 3,
            "elasticity.autoscaler": "queue-depth",
            "elasticity.autoscaler_options": {"target_queue_per_replica": 2.0, "interval": 1.0, "min_replicas": 1},
        })).system
        trace = generate_trace("sharegpt", 10.0, 60, seed=1)
        result = run_system(system, trace)
        assert result.summary.num_finished == 60
        assert result.num_dropped == 0
        assert sum(system.requests_per_replica) == 60

    def test_disabled_autoscaler_schedules_no_control_ticks(self):
        system = build(FLEET).system
        assert system.control_interval() is None
        trace = generate_trace("sharegpt", 10.0, 16, seed=0)
        result = run_system(system, trace)
        assert result.recorder.raw("active_replicas", "cluster") == []
        assert system.num_active == len(system.replicas)

    def test_admission_rejections_feed_goodput_block(self):
        system = build(TWO_3090.with_overrides({
            "elasticity.admission": "queue-threshold",
            "elasticity.admission_options": {"max_queue_depth": 1, "mode": "reject"},
        })).system
        trace = generate_trace("longbench", 20.0, 48, seed=0)
        result = run_system(system, trace)
        s = result.summary
        assert s.num_rejected > 0
        assert s.num_finished + s.num_rejected == 48
        assert s.rejection_rate == pytest.approx(s.num_rejected / 48)
        assert 0.0 <= s.slo_attainment <= 1.0
        assert s.goodput_rps <= s.throughput_rps

    def test_policy_instances_are_reusable_across_runs(self):
        """The same controller/autoscaler instance run twice must give
        identical results: per-run state resets on system construction."""
        adm = QueueThresholdAdmission(max_queue_depth=1, mode="defer",
                                      retry_delay=0.5, max_defers=5)
        auto = TargetKVUtilizationAutoscaler(target_utilization=0.3, interval=2.0)
        replica = DeploymentSpec().with_overrides(
            {"system.name": "static-tp", "cluster.kind": "rtx3090:2", "workload.dataset": "longbench"}
        )
        trace = generate_trace("longbench", 20.0, 24, seed=0)
        results = []
        for _ in range(2):
            system = ClusterServingSystem(
                [build(replica).system, build(replica).system],
                router="least-kv", admission=adm, autoscaler=auto,
            )
            results.append(run_system(system, trace))
        a, b = results
        assert a.summary.num_rejected == b.summary.num_rejected
        assert a.summary.num_deferrals == b.summary.num_deferrals
        assert [r.finish_time for r in a.metrics.records] == [
            r.finish_time for r in b.metrics.records
        ]

    def test_rejection_rate_counts_unfinished_admits(self):
        """Offered-load denominator includes admitted-but-unfinished requests
        (truncated runs must not overstate the rejection rate)."""
        from repro.sim.metrics import MetricsCollector

        collector = MetricsCollector()
        for t in range(90):
            collector.observe_arrival(float(t))
        for t in range(10):
            collector.observe_rejection(req(t), float(t))
        # No request ever finishes (run truncated): rate is 10/100, not 10/10.
        assert collector.summary().rejection_rate == pytest.approx(0.1)

    def test_deferral_opens_the_duration_window(self):
        """A run whose first arrivals are deferred must count the original
        offered-load time in its duration, not just the retry time."""
        from repro.sim.metrics import MetricsCollector
        from repro.sim.request import Request

        collector = MetricsCollector()
        collector.observe_deferral(Request(0, 0.0, 16, 4), now=0.0)
        collector.observe_arrival(now=2.0)
        assert collector._start_time == 0.0

    def test_single_replica_admission_accepts_explicit_cluster(self):
        small = DeploymentSpec().with_overrides({
            "system.name": "static-tp",
            "cluster.kind": "small",
            "workload.request_rate": 8.0,
            "workload.num_requests": 6,
        })
        prepared = build(small.with_overrides({
            "elasticity.admission": "queue-threshold",
            "elasticity.admission_options": {"max_queue_depth": 8},
        }))
        # The one admitted replica runs on the chosen cluster, not the paper one.
        assert isinstance(prepared.system, ClusterServingSystem)
        assert prepared.system.available_cache_bytes() == build(small).system.available_cache_bytes()
        assert prepared.run().summary.num_finished == 6

    def test_defer_mode_serves_more_than_reject_mode(self):
        spec = TWO_3090.with_overrides({
            "workload.request_rate": 20.0,
            "workload.num_requests": 32,
            "elasticity.admission": "queue-threshold",
        })
        rejecting = run(spec.with_overrides(
            {"elasticity.admission_options": {"max_queue_depth": 1, "mode": "reject"}}
        ))
        deferring = run(spec.with_overrides({
            "elasticity.admission_options": {
                "max_queue_depth": 1, "mode": "defer", "retry_delay": 1.0, "max_defers": 200,
            },
        }))
        assert deferring.summary.num_deferrals > 0
        assert deferring.summary.num_finished >= rejecting.summary.num_finished
        assert deferring.summary.num_rejected <= rejecting.summary.num_rejected

    def test_autoscaled_run_is_deterministic(self):
        phases = spike_phases(base_rate=1.0, spike_rate=8.0, base_duration=15.0,
                              spike_duration=10.0, num_spikes=1)
        results = []
        for _ in range(2):
            system = build(FLEET.with_overrides({
                "cluster.replicas": 3,
                "elasticity.autoscaler": "target-kv",
                "elasticity.autoscaler_options": {"target_utilization": 0.3, "interval": 2.0},
                "elasticity.admission": "kv-threshold",
                "elasticity.admission_options": {"max_utilization": 0.95},
            })).system
            trace = generate_trace("sharegpt", 0.0, 120, seed=3, phases=phases)
            results.append(run_system(system, trace))
        a, b = results
        assert [r.finish_time for r in a.metrics.records] == [
            r.finish_time for r in b.metrics.records
        ]
        assert a.recorder.raw("active_replicas", "cluster") == b.recorder.raw(
            "active_replicas", "cluster"
        )

    def test_diurnal_schedule_drives_multiple_scale_cycles(self):
        phases = diurnal_phases(base_rate=0.5, peak_rate=8.0, period=120.0,
                                num_segments=8, cycles=1)
        system = build(FLEET.with_overrides({
            "cluster.replicas": 3,
            "elasticity.autoscaler": "target-kv",
            "elasticity.autoscaler_options": {"target_utilization": 0.3, "interval": 3.0},
        })).system
        trace = generate_trace("sharegpt", 0.0, 400, seed=0, phases=phases)
        result = run_system(system, trace)
        assert result.summary.num_finished == len(trace)
        series = result.recorder.raw("active_replicas", "cluster")
        assert max(v for _, v in series) > 1.0


class TestCostAwareScaleUp:
    def mixed_states(self):
        """An inactive heterogeneous pool behind one hot active replica."""
        return [
            ReplicaState(0, True, 0.95, 8, 4, capacity_bytes=10e9, cost_per_hour=3.0),
            ReplicaState(1, False, 0.0, 0, 0, capacity_bytes=20e9, cost_per_hour=6.0),
            ReplicaState(2, False, 0.0, 0, 0, capacity_bytes=4e9, cost_per_hour=0.7),
            ReplicaState(3, False, 0.0, 0, 0, capacity_bytes=8e9, cost_per_hour=1.7),
        ]

    def test_default_choice_is_index_order(self):
        policy = TargetKVUtilizationAutoscaler(target_utilization=0.6)
        assert policy.choose_scale_up(self.mixed_states(), 2, 0.0) == [1, 2]

    def test_cost_aware_picks_cheapest_clearing_blueprint(self):
        # Deficit = 0.95*10e9 - 0.6*10e9 = 3.5e9 bytes: every inactive
        # replica clears it, so the cheapest ($0.7) wins outright.
        policy = TargetKVUtilizationAutoscaler(target_utilization=0.6, cost_aware=True)
        assert policy.choose_scale_up(self.mixed_states(), 1, 0.0) == [2]

    def test_cost_aware_requires_capacity_to_clear_deficit(self):
        # Deficit 3.5e9 with the cheap replica shrunk below it: only the
        # bigger blueprints clear the deficit, and the cheaper of those wins.
        states = self.mixed_states()
        states[2] = ReplicaState(2, False, 0.0, 0, 0, capacity_bytes=1e9, cost_per_hour=0.7)
        policy = TargetKVUtilizationAutoscaler(target_utilization=0.6, cost_aware=True)
        assert policy.choose_scale_up(states, 1, 0.0) == [3]

    def test_cost_aware_falls_back_to_capacity_per_dollar(self):
        # Nothing clears a huge deficit: rank by cost per byte instead.
        states = [
            ReplicaState(0, True, 1.0, 0, 0, capacity_bytes=100e9, cost_per_hour=3.0),
            ReplicaState(1, False, 0.0, 0, 0, capacity_bytes=2e9, cost_per_hour=1.0),
            ReplicaState(2, False, 0.0, 0, 0, capacity_bytes=8e9, cost_per_hour=2.0),
        ]
        policy = TargetKVUtilizationAutoscaler(target_utilization=0.1, cost_aware=True)
        # replica 2: 0.25 $/GB beats replica 1: 0.5 $/GB.
        assert policy.choose_scale_up(states, 1, 0.0) == [2]

    def test_cost_aware_multi_pick_decrements_deficit(self):
        policy = TargetKVUtilizationAutoscaler(target_utilization=0.6, cost_aware=True)
        picks = policy.choose_scale_up(self.mixed_states(), 3, 0.0)
        assert picks[0] == 2  # cheapest clears the deficit first
        assert sorted(picks) == [1, 2, 3]

    def test_choice_ignores_active_replicas(self):
        policy = TargetKVUtilizationAutoscaler(cost_aware=True)
        states = self.mixed_states()
        assert 0 not in policy.choose_scale_up(states, 4, 0.0)

    def test_cost_aware_integration_activates_cheapest_first(self):
        """End to end: a heterogeneous fleet under load brings up the
        cheapest inactive blueprint, not the lowest-index one."""
        system = build(FLEET.with_overrides({
            "cluster.replica_kinds": ["rtx3090:2", "a100:2", "t4:4"],
            "cluster.replicas": 3,
            "elasticity.autoscaler": "target-kv",
            "elasticity.autoscaler_options": {
                "target_utilization": 0.2, "interval": 1.0, "min_replicas": 1, "cost_aware": True,
            },
        })).system
        states = system.replica_states(0.0)
        assert [s.cost_per_hour for s in states] == pytest.approx([1.7, 6.0, 1.4])
        # The policy's blueprint choice on the live fleet: the cheap T4
        # replica (index 2) before the expensive A100 one (index 1).
        assert system.autoscaler.choose_scale_up(states, 2, 0.0) == [2, 1]
        trace = generate_trace("sharegpt", 14.0, 80, seed=0)
        result = run_system(system, trace)
        assert result.summary.num_finished == 80
        assert max(n for _, n in system.scale_events) >= 2
        # The cheap replica saw traffic; scale-up actually used the choice.
        assert system.requests_per_replica[2] > 0
