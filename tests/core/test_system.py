"""Tests for the Hetis serving system and its builder."""

import pytest

from repro.core.system import HetisSystem, build_hetis_system
from repro.core.parallelizer import WorkloadHint
from repro.hardware.cluster import paper_cluster, simple_cluster
from repro.models.spec import get_model_spec
from repro.sim.engine import Engine
from repro.workloads.trace import generate_trace


@pytest.fixture(scope="module")
def small_hetis():
    cluster = simple_cluster("a100", "rtx3090", n_high=1, n_low=2)
    return build_hetis_system(cluster, get_model_spec("llama-13b"), hint=WorkloadHint())


def test_builder_produces_instances(small_hetis):
    assert small_hetis.name == "hetis"
    assert len(small_hetis.units) >= 1
    assert small_hetis.plan is not None
    assert "hetis" in small_hetis.describe()


def test_empty_system_rejected():
    with pytest.raises(ValueError):
        HetisSystem([])


def test_route_least_loaded():
    cluster = paper_cluster()
    system = build_hetis_system(cluster, get_model_spec("llama-13b"), hint=WorkloadHint())
    if len(system.units) < 2:
        pytest.skip("planner chose a single instance for this model")
    from repro.sim.request import Request

    first = system.route(Request(request_id=0, arrival_time=0, prompt_tokens=10, output_tokens=1), 0.0)
    first.enqueue(Request(request_id=1, arrival_time=0, prompt_tokens=10, output_tokens=1), 0.0)
    second = system.route(Request(request_id=2, arrival_time=0, prompt_tokens=10, output_tokens=1), 0.0)
    assert second is not first


def test_end_to_end_run_records_heads_and_cache(small_hetis):
    trace = generate_trace("sharegpt", 4.0, 12, seed=0)
    result = Engine(small_hetis).run(trace)
    assert result.summary.num_finished == 12
    assert "heads" in result.recorder.series_names()
    assert "cache_usage" in result.recorder.series_names()
    assert result.available_cache_bytes > 0

