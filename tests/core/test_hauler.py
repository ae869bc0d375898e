"""Tests for the Hauler (migration planning + pricing)."""

import pytest

from repro.core.hauler import Hauler
from repro.hardware.cluster import paper_cluster
from repro.models.spec import get_model_spec


@pytest.fixture
def setup():
    cluster = paper_cluster()
    model = get_model_spec("llama-70b")
    hauler = Hauler(cluster, model, interference_factor=0.1)
    # device_host map including the aggregate-primary pseudo device (-1).
    hosts = {d.device_id: d.host_id for d in cluster.devices}
    hosts[-1] = 0
    return cluster, model, hauler, hosts


def test_interference_factor_validated(setup):
    cluster, model, *_ = setup
    with pytest.raises(ValueError):
        Hauler(cluster, model, interference_factor=1.5)


def test_no_change_no_cost(setup):
    _, _, hauler, hosts = setup
    report = hauler.migrate(1, 1000, {-1: 64}, {-1: 64}, hosts)
    assert report.is_empty
    assert report.transfer_seconds == 0.0
    assert report.blocking_seconds == 0.0


def test_partial_move_priced_and_counted(setup):
    _, model, hauler, hosts = setup
    report = hauler.migrate(1, 2000, {-1: 64}, {-1: 32, 8: 32}, hosts)
    assert not report.is_empty
    assert report.moved_bytes == pytest.approx(32 * 2000 * model.kv_bytes_per_token() / 64)
    assert report.transfer_seconds > 0
    assert report.blocking_seconds == pytest.approx(report.transfer_seconds * 0.1)


def test_longer_context_costs_more(setup):
    _, _, hauler, hosts = setup
    short = hauler.migrate(1, 500, {-1: 64}, {-1: 32, 8: 32}, hosts)
    long = hauler.migrate(2, 5000, {-1: 64}, {-1: 32, 8: 32}, hosts)
    assert long.transfer_seconds > short.transfer_seconds


def test_parallel_sources_overlap(setup):
    _, _, hauler, hosts = setup
    # Two donors feeding one receiver: transfers from distinct sources overlap,
    # so the total is the max of the two, not the sum.
    report = hauler.migrate(1, 2000, {4: 32, 5: 32}, {8: 64}, hosts)
    single = hauler.migrate(2, 2000, {4: 32}, {8: 32, 4: 0}, hosts)
    assert report.transfer_seconds == pytest.approx(single.transfer_seconds, rel=0.2)


def test_zero_interference_fully_hidden(setup):
    cluster, model, _, hosts = setup
    hauler = Hauler(cluster, model, interference_factor=0.0)
    report = hauler.migrate(1, 1000, {-1: 64}, {8: 64}, hosts)
    assert report.blocking_seconds == 0.0
    assert report.transfer_seconds > 0.0
