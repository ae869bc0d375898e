"""Tests for parallel-configuration objects."""

import pytest

from repro.hardware.cluster import paper_cluster
from repro.models.spec import get_model_spec
from repro.parallel.config import ClusterParallelConfig, InstanceParallelConfig, StageConfig


@pytest.fixture
def cluster():
    return paper_cluster()


@pytest.fixture
def llama13b():
    return get_model_spec("llama-13b")


def make_instance(cluster, model, with_attention=False):
    a100s = cluster.devices_of_type("a100")
    r3090s = cluster.devices_of_type("rtx3090")
    p100s = cluster.devices_of_type("p100")
    stages = [
        StageConfig(devices=a100s, num_layers=28),
        StageConfig(devices=r3090s, num_layers=model.num_layers - 28),
    ]
    workers = p100s if with_attention else []
    return InstanceParallelConfig(stages=stages, attention_workers=workers)


class TestStageConfig:
    def test_even_fractions_by_default(self, cluster):
        stage = StageConfig(devices=cluster.devices_of_type("a100"), num_layers=10)
        assert stage.fractions() == [0.25] * 4
        assert stage.tp_degree == 4

    def test_explicit_fractions_must_sum_to_one(self, cluster):
        devs = cluster.devices_of_type("a100")[:2]
        with pytest.raises(ValueError, match="sum to 1"):
            StageConfig(devices=devs, num_layers=4, shard_fractions=[0.7, 0.7])

    def test_fraction_length_mismatch(self, cluster):
        with pytest.raises(ValueError):
            StageConfig(devices=cluster.devices_of_type("a100"), num_layers=4, shard_fractions=[1.0])

    def test_asymmetric_weight_split(self, cluster, llama13b):
        devs = cluster.devices_of_type("a100")[:2]
        stage = StageConfig(devices=devs, num_layers=10, shard_fractions=[0.75, 0.25])
        weights = stage.weight_bytes_per_device(llama13b)
        assert weights[devs[0].device_id] == pytest.approx(3 * weights[devs[1].device_id], rel=1e-6)

    def test_requires_devices_and_layers(self, cluster):
        with pytest.raises(ValueError):
            StageConfig(devices=[], num_layers=1)
        with pytest.raises(ValueError):
            StageConfig(devices=cluster.devices_of_type("a100"), num_layers=0)


class TestInstanceParallelConfig:
    def test_layer_count_validation(self, cluster, llama13b):
        inst = make_instance(cluster, llama13b)
        inst.validate_layer_count(llama13b)  # should not raise
        bad = InstanceParallelConfig(
            stages=[StageConfig(devices=cluster.devices_of_type("a100"), num_layers=7)]
        )
        with pytest.raises(ValueError, match="layers"):
            bad.validate_layer_count(llama13b)

    def test_primary_and_attention_devices(self, cluster, llama13b):
        inst = make_instance(cluster, llama13b, with_attention=True)
        assert len(inst.primary_devices) == 8
        assert len(inst.attention_workers) == 4
        assert len(inst.all_devices) == 12

    def test_device_cannot_be_both_roles(self, cluster, llama13b):
        a100s = cluster.devices_of_type("a100")
        with pytest.raises(ValueError, match="both a primary and an attention worker"):
            InstanceParallelConfig(
                stages=[StageConfig(devices=a100s, num_layers=llama13b.num_layers)],
                attention_workers=[a100s[0]],
            )

    def test_weight_bytes_cover_whole_model(self, cluster, llama13b):
        inst = make_instance(cluster, llama13b)
        weights = inst.weight_bytes_per_device(llama13b)
        total = sum(weights.values())
        assert total == pytest.approx(llama13b.param_bytes, rel=0.02)

    def test_attention_workers_hold_no_weights(self, cluster, llama13b):
        inst = make_instance(cluster, llama13b, with_attention=True)
        weights = inst.weight_bytes_per_device(llama13b)
        for worker in inst.attention_workers:
            assert weights[worker.device_id] == 0

    def test_kv_capacity_positive_after_weights(self, cluster, llama13b):
        inst = make_instance(cluster, llama13b)
        kv = inst.kv_capacity_per_device(llama13b)
        assert all(v > 0 for v in kv.values())

    def test_fits_in_memory_false_for_huge_model_on_small_devices(self, cluster):
        llama70b = get_model_spec("llama-70b")
        p100s = cluster.devices_of_type("p100")
        inst = InstanceParallelConfig(
            stages=[StageConfig(devices=p100s, num_layers=llama70b.num_layers)]
        )
        assert not inst.fits_in_memory(llama70b)


class TestClusterParallelConfig:
    def test_duplicate_device_across_instances_rejected(self, cluster, llama13b):
        inst = make_instance(cluster, llama13b)
        with pytest.raises(ValueError, match="multiple instances"):
            ClusterParallelConfig(instances=[inst, inst])

    def test_total_kv_capacity(self, cluster, llama13b):
        inst = make_instance(cluster, llama13b, with_attention=True)
        config = ClusterParallelConfig(instances=[inst])
        assert config.total_kv_capacity_bytes(llama13b) == inst.total_kv_capacity_bytes(llama13b)
        assert config.num_instances == 1
