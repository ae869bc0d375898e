"""Tests for the Profiler and its accuracy report."""

import pytest

from repro.hardware.cluster import paper_cluster
from repro.models.spec import get_model_spec
from repro.perf.profiler import Profiler


@pytest.fixture(scope="module")
def profiler():
    return Profiler(paper_cluster(), get_model_spec("opt-30b"), seed=0)


@pytest.fixture(scope="module")
def cluster_and_devices():
    cluster = paper_cluster()
    return cluster, cluster.devices_of_type("a100")[0], cluster.devices_of_type("p100")[0]


def test_profile_attention_returns_positive_model(profiler, cluster_and_devices):
    _, a100, _ = cluster_and_devices
    fitted = profiler.profile_attention(a100)
    assert fitted.a > 0 or fitted.b > 0
    assert fitted.predict(64, 64_000) > 0


def test_faster_device_has_smaller_cache_coefficient(cluster_and_devices):
    cluster, a100, p100 = cluster_and_devices
    profiler = Profiler(cluster, get_model_spec("opt-30b"), seed=1)
    fast = profiler.profile_attention(a100)
    slow = profiler.profile_attention(p100)
    assert slow.b > fast.b


def test_profile_transfer_positive_gamma(profiler, cluster_and_devices):
    _, a100, p100 = cluster_and_devices
    fitted = profiler.profile_transfer(a100, p100)
    assert fitted.gamma > 0


def test_accuracy_report_reasonable(profiler, cluster_and_devices):
    """The paper reports >=93.8% computation and >=92.4% transfer accuracy."""
    _, a100, p100 = cluster_and_devices
    profiler.profile_attention(a100)
    profiler.profile_transfer(a100, p100)
    report = profiler.report
    assert report.min_compute_accuracy >= 0.90
    assert report.min_transfer_accuracy >= 0.90


def test_invalid_grid_rejected(cluster_and_devices):
    cluster, *_ = cluster_and_devices
    with pytest.raises(ValueError):
        Profiler(cluster, get_model_spec("opt-30b"), num_head_samples=1)
