"""Tests for the multi-replica ClusterServingSystem and its routers."""

import pytest

from repro.api import build, run, run_system
from repro.config import DeploymentSpec
from repro.core.cluster_system import (
    ClusterServingSystem,
    LeastKVLoadRouter,
    PowerOfTwoChoicesRouter,
    RoundRobinRouter,
    make_router,
    replica_kv_utilization,
)
from repro.workloads.trace import generate_trace

pytestmark = pytest.mark.slow


#: Two static-tp replicas, each on its own small cluster, round-robin routed.
TWO_SMALL = DeploymentSpec().with_overrides(
    {"system.name": "static-tp", "cluster.kind": "small", "cluster.replicas": 2}
)


class TestConstruction:
    def test_requires_replicas(self):
        with pytest.raises(ValueError, match="at least one replica"):
            ClusterServingSystem([], router="round-robin")

    def test_unknown_router_rejected(self):
        with pytest.raises(ValueError, match="unknown router"):
            make_router("random-drop")

    def test_router_instance_passthrough(self):
        router = RoundRobinRouter()
        assert make_router(router) is router

    def test_units_are_union_of_replica_units(self):
        system = build(TWO_SMALL).system
        per_replica = [len(r.units) for r in system.replicas]
        assert len(system.units) == sum(per_replica)
        assert len({id(u) for u in system.units}) == len(system.units)

    def test_cache_bytes_sum_over_replicas(self):
        system = build(TWO_SMALL).system
        assert system.available_cache_bytes() == pytest.approx(
            sum(r.available_cache_bytes() for r in system.replicas)
        )

    def test_describe_mentions_router_and_replicas(self):
        system = build(TWO_SMALL.with_overrides({"router.name": "least-kv"})).system
        text = system.describe()
        assert "least-kv" in text
        assert "2x" in system.name


class TestRouterDeterminism:
    @pytest.mark.parametrize("router", ["round-robin", "least-kv", "power-of-two"])
    def test_same_seed_same_results(self, router):
        """Two runs with identical seeds must produce identical metrics."""
        spec = TWO_SMALL.with_overrides(
            {"router.name": router, "workload.request_rate": 10.0, "workload.num_requests": 32}
        )
        a, b = run(spec), run(spec)
        assert a.summary.mean_normalized_latency == b.summary.mean_normalized_latency
        assert a.summary.p95_ttft == b.summary.p95_ttft
        assert [r.finish_time for r in a.metrics.records] == [
            r.finish_time for r in b.metrics.records
        ]

    def test_round_robin_cycles(self):
        system = build(TWO_SMALL).system
        trace = generate_trace("sharegpt", 8.0, 16, seed=0)
        run_system(system, trace)
        # Round-robin alternates strictly, so a 16-request trace splits 8/8.
        assert system.requests_per_replica == [8, 8]

    def test_power_of_two_seed_changes_sampling(self):
        picks = {}
        for seed in (0, 1):
            router = PowerOfTwoChoicesRouter(seed=seed)
            system = build(TWO_SMALL).system
            picks[seed] = [router.select(None, system.replicas, 0.0) for _ in range(32)]
        assert picks[0] != picks[1]


class TestRouterBalancing:
    def test_least_kv_prefers_emptier_replica(self):
        system = build(TWO_SMALL.with_overrides({"router.name": "least-kv"})).system
        # Load replica 0 by running a burst through it directly.
        busy = system.replicas[0]
        trace = generate_trace("sharegpt", 50.0, 8, seed=1)
        for idx, entry in enumerate(list(trace)[:4]):
            unit = busy.units[0]
            from repro.sim.request import Request

            req = Request(idx + 1000, entry.arrival_time, entry.prompt_tokens, entry.output_tokens)
            unit.enqueue(req, 0.0)
            it = unit.next_iteration(0.0)
            assert it is not None
        assert replica_kv_utilization(system.replicas[0]) > 0.0
        router = LeastKVLoadRouter()
        assert router.select(None, system.replicas, 0.0) == 1

    def test_power_of_two_never_exceeds_capacity(self):
        """Property test: under power-of-two routing at a saturating rate, no
        device of any replica ever reports utilization above 1.0, and the
        block managers never overcommit."""
        system = build(TWO_SMALL.with_overrides({"router.name": "power-of-two", "workload.seed": 3})).system
        trace = generate_trace("sharegpt", 40.0, 64, seed=3)
        result = run_system(system, trace)
        assert result.summary.num_finished > 0
        for replica in system.replicas:
            for unit in replica.units:
                for device, util in unit.kv_utilization().items():
                    assert 0.0 <= util <= 1.0, f"{device} overcommitted: {util}"
        # The recorder's cache_usage series must stay within [0, 1] too.
        for key in result.recorder.keys("cache_usage"):
            assert all(0.0 <= v <= 1.0 for _, v in result.recorder.raw("cache_usage", key))

    def test_recorder_keys_disambiguate_replicas(self):
        """Same-blueprint replicas must not merge their device time series."""
        system = build(TWO_SMALL).system
        trace = generate_trace("sharegpt", 10.0, 16, seed=0)
        result = run_system(system, trace)
        keys = result.recorder.keys("cache_usage")
        assert keys, "expected cache_usage series"
        assert all(k.startswith(("r0/", "r1/")) for k in keys)
        assert any(k.startswith("r0/") for k in keys)
        assert any(k.startswith("r1/") for k in keys)


class TestClusterAccounting:
    def test_requests_per_replica_sums_to_total_arrivals(self):
        for router in ("round-robin", "least-kv", "power-of-two",
                       "weighted-round-robin", "weighted-least-kv",
                       "weighted-power-of-two"):
            system = build(TWO_SMALL.with_overrides({"router.name": router})).system
            trace = generate_trace("sharegpt", 10.0, 24, seed=0)
            run_system(system, trace)
            assert sum(system.requests_per_replica) == len(trace), router
            assert all(c >= 0 for c in system.requests_per_replica)

    def test_requests_per_replica_counts_admitted_only(self):
        system = build(TWO_SMALL.with_overrides({
            "cluster.replica_kinds": ["rtx3090:2", "rtx3090:2"],
            "router.name": "least-kv",
            "elasticity.admission": "queue-threshold",
            "elasticity.admission_options": {"max_queue_depth": 1, "mode": "reject"},
        })).system
        trace = generate_trace("longbench", 20.0, 32, seed=0)
        result = run_system(system, trace)
        routed = sum(system.requests_per_replica)
        assert routed == len(trace) - result.summary.num_rejected
        assert result.summary.num_rejected > 0

    def test_cache_bytes_sum_over_heterogeneous_replicas(self):
        system = build(TWO_SMALL.with_overrides({
            "cluster.replica_kinds": ["a100:1,rtx3090:2", "rtx3090:2"],
            "router.name": "weighted-least-kv",
        })).system
        assert system.available_cache_bytes() == pytest.approx(
            sum(r.available_cache_bytes() for r in system.replicas)
        )
        caps = [r.available_cache_bytes() for r in system.replicas]
        assert caps[0] > caps[1]  # the a100 replica really is bigger

    def test_recorder_prefixes_never_collide_after_stripping(self):
        """Prefixed keys map 1:1 onto (replica, device) pairs: stripping the
        r<N>/ prefix yields the same per-replica key set for every replica."""
        system = build(TWO_SMALL).system
        trace = generate_trace("sharegpt", 10.0, 16, seed=0)
        result = run_system(system, trace)
        keys = result.recorder.keys("cache_usage")
        by_replica = {}
        for key in keys:
            prefix, _, device = key.partition("/")
            assert device and "/" not in device
            by_replica.setdefault(prefix, set()).add(device)
        assert set(by_replica) == {"r0", "r1"}
        assert by_replica["r0"] == by_replica["r1"]
        # Total key count == replicas x devices: nothing merged or dropped.
        assert len(keys) == sum(len(v) for v in by_replica.values())

    def test_same_timestamp_burst_spreads_under_least_kv(self):
        """Memoised loads must be invalidated per routed replica: a burst of
        arrivals at one identical timestamp still spreads across replicas
        instead of piling onto the pre-burst minimum."""
        from repro.workloads.trace import Trace, TraceEntry

        system = build(TWO_SMALL.with_overrides({"router.name": "least-kv"})).system
        entries = [TraceEntry(1.0, 512, 8) for _ in range(4)]
        run_system(system, Trace(entries=entries, dataset="sharegpt"))
        # Stale caching would send all 4 to replica 0; invalidation makes the
        # second arrival see replica 0's fresh allocation and go to replica 1
        # (later ties resolve to index 0 again, matching pre-memoisation
        # recompute-every-arrival behaviour).
        assert system.requests_per_replica == [3, 1]

    def test_same_timestamp_states_refresh_for_admission(self):
        """replica_states at one timestamp reflects arrivals routed earlier in
        that same timestamp (queue/KV state is re-read after invalidation)."""
        from repro.sim.request import Request

        system = build(TWO_SMALL).system
        before = system.replica_states(1.0)
        assert all(s.kv_utilization == 0.0 for s in before)
        unit = system.route(Request(0, 1.0, 512, 8), 1.0)
        unit.enqueue(Request(0, 1.0, 512, 8), 1.0)
        after = system.replica_states(1.0)
        assert after[0].queue_depth == 1  # round-robin sent it to replica 0
        assert after[1] is before[1]      # untouched replica: cached snapshot

    def test_legacy_router_subclass_without_super_init_still_works(self):
        """Pre-elasticity user routers subclassed an ABC with no __init__;
        the base-class caches must lazy-init rather than require super()."""
        from repro.core.cluster_system import ReplicaRouter

        class LegacyRouter(ReplicaRouter):
            name = "legacy"

            def __init__(self):  # deliberately no super().__init__()
                self._i = 0

            def select(self, request, replicas, now):
                self._i += 1
                return min(
                    range(len(replicas)), key=lambda i: self.kv_load(replicas[i], now)
                )

        system = build(TWO_SMALL).system
        system.router = LegacyRouter()
        trace = generate_trace("sharegpt", 10.0, 8, seed=0)
        result = run_system(system, trace)
        assert result.summary.num_finished == 8
        assert sum(system.requests_per_replica) == 8

    def test_weighted_routers_shift_load_toward_capacity(self):
        system = build(TWO_SMALL.with_overrides({
            "cluster.replica_kinds": ["a100:1,rtx3090:2", "rtx3090:2"],
            "router.name": "weighted-round-robin",
        })).system
        trace = generate_trace("sharegpt", 10.0, 60, seed=0)
        run_system(system, trace)
        big, small = system.requests_per_replica
        assert big + small == 60
        assert big > small, "capacity weighting must favour the larger replica"


class TestEndToEnd:
    def test_two_replicas_beat_one_at_high_rate(self):
        """Data parallelism must relieve a saturated deployment."""
        spec = TWO_SMALL.with_overrides({"workload.request_rate": 16.0, "workload.num_requests": 48})
        single = run(spec.with_overrides({"cluster.replicas": 1})).summary
        double = run(spec).summary
        assert double.mean_normalized_latency < single.mean_normalized_latency
        assert double.num_finished >= single.num_finished

    def test_replicas_never_share_a_cluster(self):
        """Device objects are mutable, so each replica gets its own cluster,
        also when two replicas name the same blueprint."""
        for spec in (TWO_SMALL, TWO_SMALL.with_overrides({"cluster.replica_kinds": ["small", "small"]})):
            per_replica = [
                {id(d) for unit in replica.units for d in unit.config.all_devices}
                for replica in build(spec).system.replicas
            ]
            assert all(per_replica)
            assert per_replica[0].isdisjoint(per_replica[1])

    @pytest.mark.parametrize("system_name", ["hetis", "splitwise", "hexgen"])
    def test_every_system_runs_replicated(self, system_name):
        result = run(TWO_SMALL.with_overrides({
            "system.name": system_name,
            "router.name": "least-kv",
            "workload.request_rate": 8.0,
            "workload.num_requests": 16,
        }))
        assert result.summary.num_finished == 16
