"""Tests for the discrete-event engine with simple serving systems."""

import pytest

from repro.baselines.splitwise import build_splitwise_system
from repro.baselines.static_tp import build_static_tp_system
from repro.hardware.cluster import paper_cluster, simple_cluster
from repro.models.spec import get_model_spec
from repro.sim.engine import Engine
from repro.workloads.trace import Trace, TraceEntry, generate_trace


def small_trace(n=12, rate=4.0, dataset="sharegpt", seed=0):
    return generate_trace(dataset, rate, n, seed=seed)


def test_engine_completes_all_requests_static_tp():
    cluster = simple_cluster("a100", "rtx3090", n_high=1, n_low=2)
    system = build_static_tp_system(cluster, get_model_spec("llama-13b"))
    result = Engine(system).run(small_trace(10))
    assert result.summary.num_finished == 10
    assert result.summary.mean_normalized_latency > 0
    assert result.system_name == "static-tp"


def test_engine_results_deterministic():
    def run_once():
        cluster = simple_cluster("a100", "rtx3090", n_high=1, n_low=2)
        system = build_static_tp_system(cluster, get_model_spec("llama-13b"))
        return Engine(system).run(small_trace(8, seed=3)).summary

    a, b = run_once(), run_once()
    assert a.mean_normalized_latency == pytest.approx(b.mean_normalized_latency)
    assert a.p95_ttft == pytest.approx(b.p95_ttft)


def test_engine_latency_increases_with_load():
    def latency(rate):
        cluster = simple_cluster("a100", "rtx3090", n_high=1, n_low=2)
        system = build_static_tp_system(cluster, get_model_spec("llama-13b"))
        return Engine(system).run(small_trace(30, rate=rate, seed=1)).summary.mean_normalized_latency

    assert latency(40.0) > latency(0.5)


def test_engine_empty_trace():
    cluster = simple_cluster("a100", "rtx3090", n_high=1, n_low=2)
    system = build_static_tp_system(cluster, get_model_spec("llama-13b"))
    result = Engine(system).run(Trace(entries=[]))
    assert result.summary.num_finished == 0


def test_engine_max_time_cutoff():
    cluster = simple_cluster("a100", "rtx3090", n_high=1, n_low=2)
    system = build_static_tp_system(cluster, get_model_spec("llama-13b"))
    entries = [TraceEntry(arrival_time=1e6, prompt_tokens=100, output_tokens=10)]
    result = Engine(system, max_simulated_time=10.0).run(Trace(entries=entries))
    assert result.summary.num_finished == 0


def test_engine_records_module_times_for_decode_iterations():
    cluster = simple_cluster("a100", "rtx3090", n_high=1, n_low=2)
    system = build_static_tp_system(cluster, get_model_spec("llama-13b"))
    result = Engine(system).run(small_trace(10))
    assert "mlp" in result.metrics.module_samples
    assert "attention" in result.metrics.module_samples


def test_engine_records_cache_usage_series():
    cluster = simple_cluster("a100", "rtx3090", n_high=1, n_low=2)
    system = build_static_tp_system(cluster, get_model_spec("llama-13b"))
    result = Engine(system).run(small_trace(10))
    assert "cache_usage" in result.recorder.series_names()


def test_splitwise_handoff_path_end_to_end():
    cluster = paper_cluster()
    system = build_splitwise_system(cluster, get_model_spec("llama-13b"))
    result = Engine(system).run(small_trace(10))
    assert result.summary.num_finished == 10
    assert system.num_migrations == 10
    assert system.total_migrated_bytes > 0
    # TTFT must include the migration delay, so it can't be smaller than the
    # raw prefill time alone would suggest; here we just require positivity
    # and that every request produced its full output.
    assert result.summary.mean_ttft > 0


def test_truncated_defer_retries_counted_as_rejections():
    """Regression: a deferred arrival whose retry lands past the horizon
    must still be counted (as a rejection) instead of vanishing from the
    rejection-rate denominator."""
    from repro.api import build, run_system
    from repro.config import DeploymentSpec

    system = build(DeploymentSpec.from_dict({
        "system": {"name": "static-tp"},
        "cluster": {"kind": "small"},
        "elasticity": {
            "admission": "queue-threshold",
            "admission_options": {"max_queue_depth": 1, "mode": "defer", "retry_delay": 5.0},
        },
    })).system
    # Saturate instantly: everything past the first few arrivals defers, and
    # the tight horizon strands the retries.
    trace = generate_trace("sharegpt", 50.0, 40, seed=0)
    result = run_system(system, trace, max_simulated_time=1.0)
    s = result.summary
    assert result.truncated and result.truncation_reason == "max_simulated_time"
    assert s.num_dropped_retries > 0
    assert s.num_rejected >= s.num_dropped_retries
    # Offered load is conserved: every trace entry arrived before the cutoff
    # and was either admitted or (eventually) rejected, so the rejection-rate
    # denominator is exactly the trace length -- dropped retries included.
    assert s.rejection_rate == pytest.approx(s.num_rejected / len(trace))


def test_defer_retry_served_within_horizon_not_counted_dropped():
    from repro.api import build, run_system
    from repro.config import DeploymentSpec

    system = build(DeploymentSpec.from_dict({
        "system": {"name": "static-tp"},
        "cluster": {"kind": "small"},
        "elasticity": {
            "admission": "queue-threshold",
            "admission_options": {"max_queue_depth": 2, "mode": "defer", "retry_delay": 0.25},
        },
    })).system
    trace = generate_trace("sharegpt", 20.0, 24, seed=0)
    result = run_system(system, trace, max_simulated_time=600.0)
    s = result.summary
    assert not result.truncated
    assert s.num_dropped_retries == 0
    assert s.num_finished == 24
