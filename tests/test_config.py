"""Tests for the declarative deployment-spec layer (repro.config)."""

import itertools
import json

import pytest

from repro.api import build, run, run_system
from repro.config import (
    ClusterSpec,
    ConfigError,
    DeploymentSpec,
    ElasticitySpec,
    FailureSpec,
    RouterSpec,
    SystemSpec,
    WorkloadSpec,
    expand_grid,
    parse_grid_axis,
)
from repro.core.cluster_system import ROUTERS
from repro.core.elasticity import ADMISSIONS, AUTOSCALERS
from repro.sim.metrics import SLOSpec
from repro.systems import SYSTEMS
from repro.workloads.arrivals import RatePhase
from repro.workloads.trace import generate_trace


class TestRoundTrip:
    def test_default_spec_round_trips(self):
        spec = DeploymentSpec()
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec

    def test_every_registered_combination_round_trips(self):
        """from_dict(to_dict(spec)) is equality-preserving for the full
        system x router x autoscaler x admission product."""
        autoscalers = [None, *AUTOSCALERS.available()]
        admissions = [None, *ADMISSIONS.available()]
        combos = itertools.product(
            SYSTEMS.available(), ROUTERS.available(), autoscalers, admissions
        )
        for system, router, autoscaler, admission in combos:
            elasticity = None
            if autoscaler is not None or admission is not None:
                elasticity = ElasticitySpec(autoscaler=autoscaler, admission=admission)
            spec = DeploymentSpec(
                model="llama-13b",
                system=SystemSpec(name=system, prefill_chunk_tokens=256),
                cluster=ClusterSpec(kind="small", replicas=2),
                router=RouterSpec(name=router),
                elasticity=elasticity,
                slo=SLOSpec(ttft_s=2.0, tpot_s=0.2),
                workload=WorkloadSpec(
                    dataset="humaneval", request_rate=9.0, num_requests=12, seed=3
                ),
            )
            rebuilt = DeploymentSpec.from_dict(spec.to_dict())
            assert rebuilt == spec, f"{system}/{router}/{autoscaler}/{admission}"
            # And the dict itself is JSON-stable.
            assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()

    def test_phases_and_options_round_trip(self):
        spec = DeploymentSpec(
            system=SystemSpec(
                name="hetis",
                limits={"max_running_requests": 64},
                options={"theta": 0.4},
            ),
            cluster=ClusterSpec(kind="a100:1,rtx3090:2", replica_kinds=("a100:1", "rtx3090:2")),
            elasticity=ElasticitySpec(
                autoscaler="target-kv",
                autoscaler_options={"interval": 2.0, "target_utilization": 0.5},
                admission="queue-threshold",
                admission_options={"max_queue_depth": 4, "mode": "defer"},
            ),
            workload=WorkloadSpec(
                phases=(RatePhase(rate=8.0, duration=5.0), RatePhase(rate=1.0, duration=5.0)),
            ),
        )
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = DeploymentSpec(cluster=ClusterSpec(kind="small", replicas=2))
        path = tmp_path / "deploy.json"
        spec.save(path)
        assert DeploymentSpec.load(path) == spec

    def test_toml_file_loads(self, tmp_path):
        path = tmp_path / "deploy.toml"
        path.write_text(
            'model = "llama-13b"\n'
            "[system]\nname = \"static-tp\"\n"
            "[cluster]\nkind = \"small\"\nreplicas = 2\n"
            "[workload]\ndataset = \"sg\"\nrequest_rate = 6.0\nnum_requests = 8\n"
        )
        spec = DeploymentSpec.load(path)
        assert spec.system.name == "static-tp"
        assert spec.cluster.replicas == 2
        assert spec.workload.dataset == "sharegpt"  # alias normalised

    def test_load_rejects_unknown_extension_and_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            DeploymentSpec.load(tmp_path / "nope.json")
        bad = tmp_path / "deploy.yaml"
        bad.write_text("model: llama-13b\n")
        with pytest.raises(ConfigError, match="use .json or .toml"):
            DeploymentSpec.load(bad)

    def test_load_points_at_file_on_bad_content(self, tmp_path):
        path = tmp_path / "deploy.json"
        path.write_text('{"model": "llama-13b", "system": {"name": "orca"}}')
        with pytest.raises(ConfigError, match=r"deploy.json.*unknown system 'orca'"):
            DeploymentSpec.load(path)


class TestValidation:
    def test_unknown_names_fail_at_parse_time(self):
        with pytest.raises(ConfigError, match="system.name: unknown system 'orca'"):
            SystemSpec(name="orca")
        with pytest.raises(ConfigError, match="router.name: unknown router"):
            RouterSpec(name="teleport")
        with pytest.raises(ConfigError, match="workload.dataset: unknown dataset"):
            WorkloadSpec(dataset="mmlu")
        with pytest.raises(ConfigError, match="unknown model"):
            DeploymentSpec(model="gpt-17")
        with pytest.raises(ConfigError, match="elasticity.autoscaler: unknown autoscaler"):
            ElasticitySpec(autoscaler="magic")

    def test_system_name_normalised_through_aliases(self):
        assert SystemSpec(name="STATIC_TP").name == "static-tp"

    def test_cluster_validation(self):
        with pytest.raises(ConfigError, match="cluster.replicas"):
            ClusterSpec(replicas=0)
        with pytest.raises(ConfigError, match="unknown cluster kind"):
            ClusterSpec(kind="exascale")
        with pytest.raises(ConfigError, match="cluster.kind"):
            ClusterSpec(kind="a100:0")
        with pytest.raises(ConfigError, match=r"replica_kinds\[1\]"):
            ClusterSpec(replica_kinds=("a100:1", "warp:2"))
        with pytest.raises(ConfigError, match="2 entries"):
            ClusterSpec(replicas=3, replica_kinds=("a100:1", "rtx3090:1"))

    def test_replica_kinds_imply_replica_count(self):
        spec = ClusterSpec(replica_kinds=("a100:1", "rtx3090:2"))
        assert spec.replicas == 2

    def test_scheduler_limits_validated_eagerly(self):
        with pytest.raises(ConfigError, match="unknown field"):
            SystemSpec(limits={"max_runnign_requests": 8})
        with pytest.raises(ConfigError, match="system.limits"):
            SystemSpec(limits={"max_running_requests": -1})
        limits = SystemSpec(limits={"max_running_requests": 8}).scheduler_limits()
        assert limits.max_running_requests == 8

    def test_prefill_chunk_size_set_twice_must_agree(self):
        data = {
            "system": {
                "name": "static-tp",
                "prefill_chunk_tokens": 512,
                "limits": {"prefill_chunk_tokens": 2048},
            },
            "cluster": {"kind": "small"},
        }
        with pytest.raises(
            ConfigError,
            match=r"system\.prefill_chunk_tokens \(512\) and system\.limits\.prefill_chunk_tokens \(2048\)",
        ):
            DeploymentSpec.from_dict(data)
        data["system"]["limits"]["prefill_chunk_tokens"] = 512
        assert DeploymentSpec.from_dict(data).system.scheduler_limits().prefill_chunk_tokens == 512
        assert SystemSpec(prefill_chunk_tokens=256).scheduler_limits().prefill_chunk_tokens == 256
        assert SystemSpec().scheduler_limits() is None

    def test_elasticity_options_validated_eagerly(self):
        with pytest.raises(ConfigError, match="elasticity.autoscaler_options"):
            ElasticitySpec(autoscaler="target-kv", autoscaler_options={"target_utilization": 7})
        with pytest.raises(ConfigError, match="elasticity.admission_options"):
            ElasticitySpec(admission="kv-threshold", admission_options={"bogus": 1})
        with pytest.raises(ConfigError, match="options given without"):
            ElasticitySpec(autoscaler_options={"interval": 1.0})

    def test_fractional_queue_depth_rejected_on_every_path(self):
        """A queue depth counts requests: config files, --set and sweeps reject
        1.5 at parse time, and a whole float is stored as an int."""
        queue = {"elasticity.admission": "queue-threshold"}
        with pytest.raises(ConfigError, match="max_queue_depth must be a whole number"):
            DeploymentSpec().with_overrides(
                {**queue, "elasticity.admission_options.max_queue_depth": 1.5}
            )
        spec = DeploymentSpec().with_overrides(
            {**queue, "elasticity.admission_options.max_queue_depth": 2.0}
        )
        depth = spec.elasticity.build_admission().max_queue_depth
        assert depth == 2 and isinstance(depth, int)

    def test_unknown_keys_rejected_with_expected_list(self):
        with pytest.raises(ConfigError, match="unknown key.*'requests'.*expected"):
            DeploymentSpec.from_dict({"workload": {"requests": 10}})
        with pytest.raises(ConfigError, match="unknown key"):
            DeploymentSpec.from_dict({"modle": "llama-13b"})

    def test_bad_phases_pointed_at(self):
        with pytest.raises(ConfigError, match=r"workload.phases\[1\]"):
            WorkloadSpec(phases=[{"rate": 5, "duration": 2}, {"rate": 5}])

    def test_slo_validation(self):
        with pytest.raises(ConfigError, match="ttft_s"):
            DeploymentSpec.from_dict({"slo": {"ttft_s": -1.0}})
        with pytest.raises(ConfigError, match="slo spec"):
            DeploymentSpec.from_dict({"slo": {"p99_ttft": 1.0}})


class TestOverrides:
    def test_nested_override(self):
        spec = DeploymentSpec()
        out = spec.with_overrides({"workload.request_rate": 9.0, "router.name": "least-kv"})
        assert out.workload.request_rate == 9.0
        assert out.router.name == "least-kv"
        assert spec.workload.request_rate == 5.0  # original untouched

    def test_override_creates_null_subtrees(self):
        out = DeploymentSpec().with_overrides({"slo.ttft_s": 2.0})
        assert out.slo == SLOSpec(ttft_s=2.0, tpot_s=SLOSpec.tpot_s)
        out = DeploymentSpec().with_overrides({"elasticity.autoscaler": "target-kv"})
        assert out.elasticity.autoscaler == "target-kv"

    def test_override_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field 'rps'"):
            DeploymentSpec().with_overrides({"workload.rps": 3})

    def test_override_revalidates(self):
        with pytest.raises(ConfigError, match="unknown router"):
            DeploymentSpec().with_overrides({"router.name": "teleport"})

    def test_override_unknown_intermediate_segment_pointed_error(self):
        # A typo in a non-leaf segment must fail at parse time, naming the
        # bad segment and the full override path -- not explode later inside
        # dataclasses.replace with an unrelated TypeError.
        with pytest.raises(
            ConfigError, match=r"override path 'clusterx\.replicas'.*unknown section 'clusterx'"
        ):
            DeploymentSpec().with_overrides({"clusterx.replicas": 2})
        with pytest.raises(ConfigError, match=r"unknown section 'bogus'"):
            DeploymentSpec().with_overrides({"elasticity.bogus.x": 1})
        # Free-form option maps still accept arbitrary nesting below them.
        out = DeploymentSpec().with_overrides({"system.options.limits.max_batch": 4})
        assert out.system.options["limits"]["max_batch"] == 4

    def test_options_accept_free_form_keys(self):
        out = DeploymentSpec().with_overrides(
            {"elasticity.autoscaler": "target-kv",
             "elasticity.autoscaler_options.target_utilization": 0.4}
        )
        assert out.elasticity.autoscaler_options["target_utilization"] == 0.4


class TestGrid:
    def test_parse_grid_axis(self):
        key, values = parse_grid_axis("workload.request_rate=2,4.5,8")
        assert key == "workload.request_rate"
        assert values == [2, 4.5, 8]
        key, values = parse_grid_axis("router.name=round-robin,least-kv")
        assert values == ["round-robin", "least-kv"]
        with pytest.raises(ConfigError, match="grid axis"):
            parse_grid_axis("no-equals-sign")
        with pytest.raises(ConfigError, match="no values"):
            parse_grid_axis("workload.seed=")

    def test_expand_grid_cartesian_order(self):
        spec = DeploymentSpec()
        combos = expand_grid(
            spec,
            {"workload.request_rate": [2, 4], "workload.seed": [0, 1, 2]},
        )
        assert len(combos) == 6
        # First axis varies slowest.
        assert [o["workload.request_rate"] for o, _ in combos] == [2, 2, 2, 4, 4, 4]
        assert [o["workload.seed"] for o, _ in combos] == [0, 1, 2, 0, 1, 2]
        assert combos[3][1].workload.request_rate == 4.0
        assert combos[3][1].workload.seed == 0

    def test_expand_grid_validates_points(self):
        with pytest.raises(ConfigError, match="unknown router"):
            expand_grid(DeploymentSpec(), {"router.name": ["round-robin", "teleport"]})


class TestOwnTraceEquivalence:
    """run(spec) and run_system(build(spec).system, <the spec's trace>) are the
    same run, so a second build of a spec starts from nothing the first left."""

    def _check(self, spec):
        wl = spec.workload
        trace = generate_trace(wl.dataset, wl.request_rate, wl.num_requests, seed=wl.seed)
        a = run(spec)
        b = run_system(build(spec).system, trace)
        assert a.summary.mean_normalized_latency == b.summary.mean_normalized_latency
        assert a.summary.p95_ttft == b.summary.p95_ttft
        assert a.summary.p95_tpot == b.summary.p95_tpot
        assert a.summary.throughput_tokens_per_s == b.summary.throughput_tokens_per_s
        assert a.summary.num_finished == b.summary.num_finished
        ra = sorted(a.metrics.records, key=lambda r: r.request_id)
        rb = sorted(b.metrics.records, key=lambda r: r.request_id)
        assert [r.finish_time for r in ra] == [r.finish_time for r in rb]

    def test_single_replica(self):
        self._check(DeploymentSpec(
            model="llama-13b",
            system=SystemSpec(name="static-tp"),
            cluster=ClusterSpec(kind="small"),
            workload=WorkloadSpec(dataset="sharegpt", request_rate=8.0, num_requests=10, seed=0),
        ))

    def test_replicated_elastic(self):
        self._check(DeploymentSpec(
            model="llama-13b",
            system=SystemSpec(name="static-tp"),
            cluster=ClusterSpec(kind="small", replicas=2),
            router=RouterSpec(name="least-kv"),
            elasticity=ElasticitySpec(admission="queue-threshold"),
            workload=WorkloadSpec(dataset="sharegpt", request_rate=16.0, num_requests=12, seed=1),
        ))

    def test_heterogeneous_router(self):
        self._check(DeploymentSpec(
            model="llama-13b",
            system=SystemSpec(name="static-tp"),
            cluster=ClusterSpec(replica_kinds=("a100:1", "rtx3090:2")),
            router=RouterSpec(name="weighted-least-kv"),
            workload=WorkloadSpec(dataset="humaneval", request_rate=20.0, num_requests=12, seed=0),
        ))


class TestSLOPlumbing:
    def test_slo_changes_attainment(self):
        spec = DeploymentSpec(
            system=SystemSpec(name="static-tp"),
            cluster=ClusterSpec(kind="small"),
            workload=WorkloadSpec(request_rate=8.0, num_requests=8),
        )
        loose = run(spec)
        tight = run(spec.with_overrides({"slo.ttft_s": 1e-9, "slo.tpot_s": 1e-9}))
        assert loose.summary.slo_attainment == 1.0
        assert tight.summary.slo_attainment == 0.0
        assert tight.summary.goodput_rps == 0.0
        # SLO scoring must not perturb the simulation itself.
        assert tight.summary.mean_normalized_latency == loose.summary.mean_normalized_latency

    def test_spec_slo_reaches_metrics(self):
        spec = DeploymentSpec(
            model="llama-13b",
            system=SystemSpec(name="static-tp"),
            cluster=ClusterSpec(kind="small"),
            slo=SLOSpec(ttft_s=1e-9, tpot_s=1e-9),
            workload=WorkloadSpec(request_rate=8.0, num_requests=6, seed=0),
        )
        result = run(spec)
        assert result.summary.slo_attainment == 0.0

    def test_prepared_run_exposes_parts(self):
        spec = DeploymentSpec(
            model="llama-13b",
            system=SystemSpec(name="static-tp"),
            cluster=ClusterSpec(kind="small"),
            workload=WorkloadSpec(request_rate=8.0, num_requests=4, seed=0),
        )
        prepared = build(spec)
        assert len(prepared.trace) == 4
        assert "static-tp" in prepared.describe()
        result = prepared.run()
        assert result.summary.num_finished == 4


class TestReviewHardening:
    def test_slo_non_numeric_is_config_error(self):
        with pytest.raises(ConfigError, match="slo.ttft_s must be a number"):
            DeploymentSpec.from_dict({"slo": {"ttft_s": "fast"}})
        with pytest.raises(ConfigError, match="slo.tpot_s must be a number"):
            DeploymentSpec.from_dict({"slo": {"tpot_s": None, "ttft_s": 1.0}})

    def test_empty_replica_kinds_list_rejected_not_ignored(self):
        with pytest.raises(ConfigError, match="replica_kinds must not be empty"):
            DeploymentSpec.from_dict({"cluster": {"replica_kinds": []}})

    def test_empty_phases_list_rejected_not_ignored(self):
        with pytest.raises(ConfigError, match="phases must not be empty"):
            DeploymentSpec.from_dict({"workload": {"phases": []}})

    def test_grid_axis_json_list_preserves_commas(self):
        key, values = parse_grid_axis('cluster.kind=["a100:2,t4:4","small"]')
        assert key == "cluster.kind"
        assert values == ["a100:2,t4:4", "small"]

    def test_build_does_not_generate_traces(self, monkeypatch):
        import repro.api as api

        def boom(*args, **kwargs):
            raise AssertionError("trace generated during system construction")

        monkeypatch.setattr(api, "generate_trace", boom)
        spec = DeploymentSpec().with_overrides(
            {"system.name": "static-tp", "cluster.kind": "small", "cluster.replicas": 2}
        )
        assert len(api.build(spec).system.replicas) == 2


class TestMetricsSpec:
    def test_defaults_round_trip(self):
        from repro.config import MetricsSpec

        spec = DeploymentSpec.from_dict({"metrics": {"mode": "bounded"}})
        assert isinstance(spec.metrics, MetricsSpec)
        assert spec.metrics.bounded
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec
        # Absent section stays None (exact mode, legacy-identical).
        assert DeploymentSpec.from_dict({}).metrics is None

    def test_validation(self):
        from repro.config import MetricsSpec

        with pytest.raises(ConfigError, match="metrics.mode"):
            MetricsSpec(mode="approximate")
        with pytest.raises(ConfigError, match="quantile_epsilon"):
            MetricsSpec(quantile_epsilon=0.5)
        with pytest.raises(ConfigError, match="max_recorder_samples_per_key"):
            MetricsSpec(max_recorder_samples_per_key=1)
        with pytest.raises(ConfigError, match="unknown key"):
            DeploymentSpec.from_dict({"metrics": {"md": "exact"}})

    def test_override_path(self):
        spec = DeploymentSpec.from_dict({}).with_overrides({"metrics.mode": "bounded"})
        assert spec.metrics is not None and spec.metrics.bounded
        with pytest.raises(ConfigError, match="unknown field"):
            DeploymentSpec.from_dict({}).with_overrides({"metrics.bogus": 1})

    def test_builders(self):
        from repro.config import MetricsSpec

        collector = MetricsSpec(mode="bounded", quantile_epsilon=0.02).build_collector()
        assert collector.bounded_memory and collector.quantile_epsilon == 0.02
        recorder = MetricsSpec(max_recorder_samples_per_key=16).build_recorder()
        assert recorder.max_samples_per_key == 16

    def test_workload_streaming_round_trip(self):
        spec = DeploymentSpec.from_dict({"workload": {"streaming": True, "num_requests": 8}})
        assert spec.workload.streaming
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ConfigError, match="num_requests > 0"):
            DeploymentSpec.from_dict({"workload": {"streaming": True, "num_requests": 0}})

    def test_streaming_bounded_run_end_to_end(self):
        spec = DeploymentSpec.from_dict(
            {
                "system": {"name": "static-tp"},
                "cluster": {"kind": "small"},
                "workload": {
                    "dataset": "sharegpt",
                    "request_rate": 8.0,
                    "num_requests": 12,
                    "streaming": True,
                },
                "metrics": {"mode": "bounded", "max_recorder_samples_per_key": 64},
            }
        )
        result = run(spec)
        assert result.summary.num_finished == 12
        assert result.metrics.bounded_memory
        assert result.metrics.records == []
        assert result.recorder.max_samples_per_key == 64
        assert not result.truncated


class TestFailureSpec:
    def test_round_trip(self):
        fs = FailureSpec(
            events=[[5.0, 0], {"time": 12.0, "replica": 2}],
            rate=0.05, num_failures=3, seed=7, recovery_time=60.0, check_interval=0.5,
        )
        assert fs.events == ((5.0, 0), (12.0, 2))
        rebuilt = FailureSpec.from_dict(fs.to_dict())
        assert rebuilt == fs
        spec = DeploymentSpec(
            cluster=ClusterSpec(kind="small", replicas=3), failures=fs
        )
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec
        assert spec.is_replicated

    def test_enabled(self):
        assert not FailureSpec().enabled
        assert FailureSpec(events=[[1.0, 0]]).enabled
        assert FailureSpec(rate=0.1, num_failures=2).enabled

    def test_validation(self):
        with pytest.raises(ConfigError, match="time"):
            FailureSpec(events=[[-1.0, 0]])
        with pytest.raises(ConfigError, match="replica"):
            FailureSpec(events=[[1.0, -2]])
        with pytest.raises(ConfigError, match="pairs"):
            FailureSpec(events=[[1.0]])
        with pytest.raises(ConfigError, match="rate"):
            FailureSpec(rate=-0.1)
        with pytest.raises(ConfigError, match="num_failures"):
            FailureSpec(rate=0.5)
        with pytest.raises(ConfigError, match="recovery_time"):
            FailureSpec(recovery_time=-1.0)
        with pytest.raises(ConfigError, match="check_interval"):
            FailureSpec(check_interval=0.0)
        with pytest.raises(ConfigError, match="unknown"):
            FailureSpec.from_dict({"rates": 0.5})

    def test_failure_count_without_rate_rejected_in_configs(self):
        """A count with a zero rate would generate nothing while describe()
        still counted it as churn, so every config path rejects it."""
        with pytest.raises(ConfigError, match="num_failures > 0 requires failures.rate > 0"):
            FailureSpec(num_failures=2)
        spec = DeploymentSpec(cluster=ClusterSpec(kind="small", replicas=2))
        with pytest.raises(ConfigError, match="requires failures.rate > 0"):
            spec.with_overrides({"failures.num_failures": 3})
        with pytest.raises(ConfigError, match="requires failures.rate > 0"):
            DeploymentSpec.from_dict(
                {"failures": {"events": [[1.0, 0]], "num_failures": 1}}
            )

    def test_build_schedule_deterministic_and_sorted(self):
        fs = FailureSpec(events=[[30.0, 1]], rate=0.1, num_failures=4, seed=3)
        a = fs.build_schedule(4)
        b = fs.build_schedule(4)
        assert a == b
        assert a == sorted(a)
        assert len(a) == 5
        assert all(0 <= idx < 4 for _, idx in a)
        # A different seed produces a different generated schedule.
        assert FailureSpec(rate=0.1, num_failures=4, seed=4).build_schedule(4) != \
            FailureSpec(rate=0.1, num_failures=4, seed=3).build_schedule(4)

    def test_build_schedule_rejects_out_of_range_replica(self):
        fs = FailureSpec(events=[[1.0, 5]])
        with pytest.raises(ConfigError, match="only 2 replicas"):
            fs.build_schedule(2)

    def test_override_paths(self):
        spec = DeploymentSpec(cluster=ClusterSpec(kind="small", replicas=2))
        ov = spec.with_overrides({"failures.rate": 0.2, "failures.num_failures": 1})
        assert ov.failures is not None and ov.failures.rate == 0.2
        with pytest.raises(ConfigError, match="unknown field"):
            spec.with_overrides({"failures.cadence": 1.0})

    def test_migration_round_trip_and_override(self):
        spec = DeploymentSpec(
            cluster=ClusterSpec(kind="small", replicas=2),
            elasticity=ElasticitySpec(migration=True, migration_bandwidth_gbps=40.0),
        )
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec
        assert spec.is_replicated and spec.elasticity.enabled
        flipped = spec.with_overrides({"elasticity.migration": False})
        assert not flipped.elasticity.migration
        with pytest.raises(ConfigError, match="migration_bandwidth_gbps"):
            ElasticitySpec(migration_bandwidth_gbps=0.0)


class TestExecutionSpec:
    """The [execution] fault-tolerance block: parsing, validation, isolation."""

    def test_defaults_and_round_trip(self):
        from repro.config import ExecutionSpec

        spec = ExecutionSpec()
        assert spec.task_timeout is None and spec.max_retries == 0
        assert spec.backoff_base == 0.5 and spec.journal is None
        full = ExecutionSpec(
            task_timeout=30, max_retries=2, backoff_base=1, journal="run.journal"
        )
        assert ExecutionSpec.from_dict(full.to_dict()) == full
        # numeric fields coerce to float so TOML ints and floats compare equal
        assert isinstance(full.task_timeout, float)
        assert isinstance(full.backoff_base, float)

    def test_validation_rejects_bad_values(self):
        from repro.config import ExecutionSpec

        with pytest.raises(ConfigError, match="task_timeout"):
            ExecutionSpec(task_timeout=0)
        with pytest.raises(ConfigError, match="max_retries"):
            ExecutionSpec(max_retries=-1)
        with pytest.raises(ConfigError, match="backoff_base"):
            ExecutionSpec(backoff_base=-0.1)
        with pytest.raises(ConfigError, match="journal"):
            ExecutionSpec(journal="")
        with pytest.raises(ConfigError, match="unknown"):
            ExecutionSpec.from_dict({"retries": 3})

    def test_extract_execution_pops_in_place(self):
        from repro.config import ExecutionSpec, extract_execution

        data = {"model": "llama-13b", "execution": {"max_retries": 1}}
        spec = extract_execution(data)
        assert spec == ExecutionSpec(max_retries=1)
        assert "execution" not in data
        assert extract_execution({"model": "llama-13b"}) is None
        with pytest.raises(ConfigError, match="execution must be a mapping"):
            extract_execution({"execution": [1, 2]})

    def test_execution_never_perturbs_spec_hashes(self, tmp_path):
        """Execution knobs change how points run, never what they compute."""
        from repro.config import extract_execution, load_config_mapping
        from repro.experiments.runner import ResultCache

        path = tmp_path / "deploy.json"
        base = {"model": "llama-13b", "cluster": {"kind": "small"}}
        path.write_text(json.dumps(base))
        plain = DeploymentSpec.from_dict(load_config_mapping(path))
        path.write_text(json.dumps({**base, "execution": {"task_timeout": 5.0}}))
        data = load_config_mapping(path)
        extract_execution(data)
        with_exec = DeploymentSpec.from_dict(data)
        assert plain == with_exec
        assert ResultCache.key("deployment", plain.to_dict()) == ResultCache.key(
            "deployment", with_exec.to_dict()
        )

    def test_to_dict_matches_sweeprunner_signature(self):
        from repro.config import ExecutionSpec
        from repro.experiments.runner import SweepRunner

        spec = ExecutionSpec(task_timeout=10.0, max_retries=3, backoff_base=0.1)
        runner = SweepRunner(**spec.to_dict())
        assert runner.task_timeout == 10.0
        assert runner.max_retries == 3
        assert runner.backoff_base == 0.1
        assert runner.journal is None


# Every numeric field of every spec section, with values that must fail at
# parse time: a boolean everywhere (Python counts True as the int 1), and a
# fraction wherever the field counts something.
NUMERIC_FIELDS = {
    "max_simulated_time": [True],
    "system.prefill_chunk_tokens": [True, 0.5],
    "system.limits.max_running_requests": [True, 2.5],
    "system.limits.max_prefill_tokens_per_iteration": [True, 0.5],
    "system.limits.max_prefills_per_iteration": [True, 1.5],
    "system.limits.prefill_chunk_tokens": [True, 0.5],
    "cluster.replicas": [True, 1.5],
    "elasticity.migration_bandwidth_gbps": [True],
    "slo.ttft_s": [True],
    "slo.tpot_s": [True],
    "workload.request_rate": [True],
    "workload.num_requests": [True, 1.5],
    "workload.seed": [True, 1.5],
    "workload.phases": [[[True, 5.0]], [[5.0, True]]],
    "metrics.quantile_epsilon": [True],
    "metrics.max_recorder_samples_per_key": [True, 2.5],
    "failures.events": [[[True, 0]], [[1.0, True]], [[1.0, 0.5]]],
    "failures.rate": [True],
    "failures.num_failures": [True, 1.5],
    "failures.seed": [True, 1.5],
    "failures.recovery_time": [True],
    "failures.check_interval": [True],
    "execution.task_timeout": [True],
    "execution.max_retries": [True, 1.5],
    "execution.backoff_base": [True],
    "planner.target_attainment": [True],
    "planner.budget": [True, 1.5],
    "planner.seed": [True, 1.5],
    "planner.generations": [True, 1.5],
    "planner.population": [True, 1.5],
    "planner.inventory": [{"a100": True}, {"a100": 1.5}],
}


@pytest.mark.parametrize(
    "path,value",
    [(path, value) for path, values in NUMERIC_FIELDS.items() for value in values],
    ids=[f"{path}={json.dumps(value)}" for path, values in NUMERIC_FIELDS.items() for value in values],
)
def test_booleans_and_fractions_fail_numeric_fields_naming_the_field(path, value):
    from repro.config import ExecutionSpec
    from repro.experiments.planner import PlannerSpec

    section, _, key = path.partition(".")
    with pytest.raises(ConfigError) as excinfo:
        if section == "execution":
            ExecutionSpec.from_dict({key: value})
        elif section == "planner":
            PlannerSpec.from_dict({"deployment": {"cluster": {"kind": "a100:1"}}, key: value})
        else:
            DeploymentSpec().with_overrides({path: value})
    assert all(part in str(excinfo.value) for part in path.split("."))
