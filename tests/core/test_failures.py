"""Tests for failure injection and KV-aware live migration on replicated fleets."""

import pytest

from repro import api
from repro.api import run_system
from repro.config import DeploymentSpec
from repro.core.cluster_system import ClusterServingSystem, replica_cost_per_hour
from repro.workloads.trace import generate_trace

pytestmark = pytest.mark.slow

#: Two static-tp replicas, each on its own small cluster.
TWO_SMALL = DeploymentSpec().with_overrides(
    {"system.name": "static-tp", "cluster.kind": "small", "cluster.replicas": 2}
)
#: Replica 0 of TWO_SMALL fails at t=1 s and never recovers.
ONE_FAILS = TWO_SMALL.with_overrides({"failures.events": [[1.0, 0]], "failures.recovery_time": 1e9})

CHURN = DeploymentSpec.from_dict({
    "system": {"name": "static-tp"},
    "cluster": {"kind": "rtx3090:2", "replicas": 4},
    "slo": {"ttft_s": 2.0, "tpot_s": 0.2},
    "failures": {"events": [[5.0, 0]], "recovery_time": 120.0},
    "workload": {"request_rate": 14.0, "num_requests": 200, "seed": 3},
})


def churn_run(migration, n=200):
    return api.run(CHURN.with_overrides({"elasticity.migration": migration, "workload.num_requests": n}))


class TestFailureInjection:
    def test_schedule_validates_replica_bounds(self):
        system = api.build(TWO_SMALL).system
        with pytest.raises(ValueError, match="replica"):
            ClusterServingSystem(
                system.replicas, router="round-robin", failure_schedule=[(1.0, 5)]
            )

    def test_failure_fires_and_is_recorded(self):
        system = api.build(ONE_FAILS).system
        trace = generate_trace("sharegpt", 8.0, 32, seed=0)
        result = run_system(system, trace, max_simulated_time=60.0)
        assert system.failure_events == [(1.0, 0)]
        assert not system.active[0]
        times = [t for t, _ in result.recorder.raw("failures", "cluster")]
        assert times and times[0] >= 1.0

    def test_failed_replica_is_a_real_outage(self):
        """While down, a failed replica makes no progress on its queue."""
        system = api.build(ONE_FAILS).system
        for unit in system.replicas[0].units:
            assert unit.paused_until == 0.0
        trace = generate_trace("sharegpt", 10.0, 24, seed=0)
        run_system(system, trace, max_simulated_time=30.0)
        for unit in system.replicas[0].units:
            assert unit.paused_until > 1e8

    def test_recovered_replica_rejoins_without_autoscaler(self):
        system = api.build(ONE_FAILS.with_overrides({"failures.recovery_time": 3.0})).system
        trace = generate_trace("sharegpt", 8.0, 48, seed=0)
        result = run_system(system, trace, max_simulated_time=600.0)
        assert system.active == [True, True]
        assert result.summary.num_finished == 48

    def test_initial_activation_recorded_at_t0(self):
        """The activation series starts at t=0, not at the first control tick."""
        system = api.build(ONE_FAILS.with_overrides({"failures.events": [[2.0, 0]]})).system
        trace = generate_trace("sharegpt", 8.0, 16, seed=0)
        result = run_system(system, trace, max_simulated_time=30.0)
        series = result.recorder.raw("active_replicas", "cluster")
        assert series[0] == (0.0, 2.0)
        assert system.scale_events[0] == (0.0, 2)

    def test_route_falls_back_to_least_loaded_drained_replica(self):
        """With every replica down, arrivals route to the least-loaded one."""
        system = api.build(ONE_FAILS.with_overrides({
            "router.name": "least-kv",
            "failures.events": [[0.5, 0], [0.5, 1]],
            "failures.check_interval": 0.25,
        })).system
        trace = generate_trace("sharegpt", 10.0, 32, seed=0)
        result = run_system(system, trace, max_simulated_time=10.0)
        assert system.num_drained_routes > 0
        routed = result.recorder.raw("drained_routes", "cluster")
        assert len(routed) == system.num_drained_routes
        assert all(v in (0.0, 1.0) for _, v in routed)


class TestLiveMigration:
    def test_migration_moves_work_and_counts_bytes(self):
        result = churn_run(migration=True, n=120)
        # The failed replica held queued work at t=5; with migration on it
        # must have moved, with a positive priced byte volume.
        assert result.summary.num_finished == 120

    def test_migration_counters_and_series(self):
        system = api.build(ONE_FAILS.with_overrides({"elasticity.migration": True})).system
        trace = generate_trace("sharegpt", 12.0, 48, seed=0)
        result = run_system(system, trace, max_simulated_time=120.0)
        assert system.migration_enabled
        assert system.num_migrated_requests > 0
        assert system.migrated_bytes > 0
        moved = result.recorder.raw("migrations", "cluster")
        assert sum(v for _, v in moved) == system.num_migrated_requests
        assert result.summary.num_finished == 48

    def test_migration_beats_no_migration_under_churn(self):
        """The churn experiment's acceptance property, in miniature."""
        on = churn_run(migration=True)
        off = churn_run(migration=False)
        assert on.summary.num_finished == off.summary.num_finished
        assert on.summary.slo_attainment > off.summary.slo_attainment
        assert on.summary.goodput_rps > off.summary.goodput_rps

    def test_churn_runs_are_bit_identical(self):
        a = churn_run(migration=True, n=100)
        b = churn_run(migration=True, n=100)
        assert a.summary == b.summary
        assert [r.finish_time for r in a.metrics.records] == [
            r.finish_time for r in b.metrics.records
        ]

    def test_migration_off_by_default_is_inert(self):
        system = api.build(TWO_SMALL).system
        assert not system.migration_enabled
        assert system.num_migrated_requests == 0

    def test_failed_hetis_replica_drops_its_kv_and_migrates_its_work(self):
        """A Hetis replica that fails must not sit on its running work.

        Its running requests lose their head-sliced KV and, with migration
        on, move to the survivor.  The replica never recovers here, so work
        left behind would never finish.
        """
        spec = DeploymentSpec.from_dict({
            "model": "llama-13b",
            "system": {"name": "hetis"},
            "cluster": {"kind": "small", "replicas": 2},
            "elasticity": {"migration": True},
            "failures": {"events": [[4.0, 0]], "recovery_time": 1e9},
            "workload": {"dataset": "sharegpt", "request_rate": 6.0, "num_requests": 60, "seed": 1},
            "max_simulated_time": 600.0,
        })
        prepared = api.build(spec)
        result = prepared.run()
        system = prepared.system
        assert system.failure_events == [(4.0, 0)]
        assert system.num_migrated_requests > 0
        assert not result.truncated
        assert result.summary.num_finished == 60
        for unit in system.replicas[0].units:
            assert unit.load == 0
            assert set(unit.kv_utilization().values()) == {0.0}


class TestReplicaCosts:
    def test_replica_cost_sums_catalog_prices(self):
        spec = TWO_SMALL.with_overrides({"cluster.replica_kinds": ["rtx3090:2", "a100:2"]})
        system = api.build(spec).system
        states = system.replica_states(0.0)
        assert states[0].cost_per_hour == pytest.approx(2 * 0.85)
        assert states[1].cost_per_hour == pytest.approx(2 * 3.00)
        for replica, state in zip(system.replicas, states):
            assert replica_cost_per_hour(replica) == pytest.approx(state.cost_per_hour)
