"""Tests for the top-level API."""

import pytest

import repro
from repro.api import build, build_cluster, default_hint, run, run_system
from repro.config import DeploymentSpec
from repro.core.cluster_system import ClusterServingSystem
from repro.workloads.trace import generate_trace


def test_version_exposed():
    assert repro.__version__


def test_available_listings():
    assert "llama-70b" in repro.available_models()
    assert set(repro.available_systems()) == {"hetis", "hexgen", "splitwise", "static-tp"}
    assert set(repro.available_datasets()) == {"sharegpt", "humaneval", "longbench"}


def test_build_cluster_kinds():
    assert build_cluster("paper").num_devices == 12
    assert build_cluster("small").num_devices == 3
    with pytest.raises(ValueError):
        build_cluster("exascale")


def test_build_cluster_inline_blueprints():
    assert build_cluster("a100:2").num_devices == 2
    mixed = build_cluster("a100:2,t4:4")
    assert mixed.num_devices == 6
    assert set(mixed.gpu_types) == {"a100", "t4"}
    with pytest.raises(Exception):
        build_cluster("warpdrive:2")


def test_build_cluster_rejects_malformed_blueprints():
    """Malformed blueprints fail with a pointed error naming the host entry."""
    with pytest.raises(ValueError, match="no GPU count"):
        build_cluster("a100:")
    with pytest.raises(ValueError, match="count >= 1, got 0"):
        build_cluster("a100:0")
    with pytest.raises(ValueError, match="count >= 1, got -2"):
        build_cluster("a100:-2")
    with pytest.raises(ValueError, match="empty host entry"):
        build_cluster("a100:2,,t4:1")
    with pytest.raises(ValueError, match="non-integer GPU count 'two'"):
        build_cluster("a100:two")
    with pytest.raises(ValueError, match="unknown GPU type 'warpdrive'"):
        build_cluster("warpdrive:2")
    # A bare type inside a blueprint still means one GPU.
    assert build_cluster("a100:2,t4").num_devices == 3


def test_elasticity_listings():
    assert set(repro.available_autoscalers()) == {"target-kv", "queue-depth"}
    assert set(repro.available_admission_policies()) == {"kv-threshold", "queue-threshold"}
    assert {"weighted-round-robin", "weighted-least-kv", "weighted-power-of-two"} <= set(
        repro.available_routers()
    )


def test_single_entry_replica_kinds_is_honoured():
    """A one-entry replica_kinds must build that blueprint, not the default
    paper cluster."""
    paper = DeploymentSpec().with_overrides(
        {"system.name": "static-tp", "workload.request_rate": 8.0, "workload.num_requests": 4}
    )
    one = paper.with_overrides({"cluster.replica_kinds": ["rtx3090:2"]})
    system = build(one).system
    assert len(system.replicas) == 1
    assert system.available_cache_bytes() == system.replicas[0].available_cache_bytes()
    result = run(one)
    assert result.available_cache_bytes < run(paper).available_cache_bytes


def test_single_replica_is_wrapped_only_when_replicated():
    """One fixed replica builds the bare system; one with an elasticity
    policy still gets the ClusterServingSystem wrapper."""
    small = DeploymentSpec().with_overrides({"system.name": "static-tp", "cluster.kind": "small"})
    assert not isinstance(build(small).system, ClusterServingSystem)
    wrapped = build(small.with_overrides({"elasticity.admission": "queue-threshold"})).system
    assert isinstance(wrapped, ClusterServingSystem)
    assert len(wrapped.replicas) == 1


def test_default_hint_reflects_dataset():
    lb = default_hint("longbench", "llama-13b")
    sg = default_hint("sharegpt", "llama-13b")
    assert lb.avg_prompt_tokens > sg.avg_prompt_tokens


def test_build_system_unknown_name():
    with pytest.raises(ValueError):
        build(DeploymentSpec().with_overrides({"system.name": "orca"}))


@pytest.mark.parametrize("system", ["hetis", "hexgen", "splitwise", "static-tp"])
def test_build_system_all_kinds(system):
    serving = build(DeploymentSpec().with_overrides({"system.name": system})).system
    assert serving.available_cache_bytes() > 0
    assert serving.units


def test_run_end_to_end():
    result = run(DeploymentSpec().with_overrides({"workload.num_requests": 10}))
    assert result.summary.num_finished == 10
    assert result.normalized_latency > 0
    assert result.p95_ttft > 0
    assert result.p95_tpot >= 0


def test_run_deterministic():
    spec = DeploymentSpec().with_overrides({
        "system.name": "hexgen", "workload.dataset": "humaneval",
        "workload.request_rate": 10.0, "workload.num_requests": 8, "workload.seed": 3,
    })
    a = run(spec)
    b = run(spec)
    assert a.normalized_latency == pytest.approx(b.normalized_latency)


def test_run_system_with_custom_trace():
    spec = DeploymentSpec().with_overrides({"system.name": "static-tp", "cluster.kind": "small"})
    system = build(spec).system
    trace = generate_trace("humaneval", 8.0, 6, seed=0)
    result = run_system(system, trace)
    assert result.summary.num_finished == 6
