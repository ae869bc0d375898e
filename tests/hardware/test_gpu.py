"""Tests for GPU specs, the catalog, and device memory accounting."""

import pytest

from repro.hardware.gpu import GPU_CATALOG, GPUDevice, GPUSpec, get_gpu_spec, register_gpu_spec
from repro.utils.units import gb_to_bytes, giga, tera


def test_catalog_contains_paper_gpus():
    for name in ("a100", "rtx3090", "p100"):
        assert name in GPU_CATALOG


def test_get_gpu_spec_case_insensitive():
    assert get_gpu_spec("A100") is get_gpu_spec("a100")


def test_get_gpu_spec_unknown_raises():
    with pytest.raises(KeyError, match="unknown GPU type"):
        get_gpu_spec("h100-nvl-mega")


def test_catalog_memory_matches_paper_table1():
    assert get_gpu_spec("a100").memory_gb == pytest.approx(80.0)
    assert get_gpu_spec("rtx3090").memory_gb == pytest.approx(24.0)
    assert get_gpu_spec("p100").memory_gb == pytest.approx(12.0)


def test_register_duplicate_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_gpu_spec(get_gpu_spec("a100"))


def test_spec_validation_rejects_nonpositive_memory():
    with pytest.raises(ValueError):
        GPUSpec(
            name="bogus",
            memory_bytes=0,
            matmul_flops=tera(1),
            small_batch_flops=tera(1),
            mem_bandwidth=giga(1),
        )


def test_spec_scaled_changes_rates_only():
    base = get_gpu_spec("p100")
    fast = base.scaled(compute_factor=2.0, bandwidth_factor=3.0)
    assert fast.matmul_flops == pytest.approx(base.matmul_flops * 2)
    assert fast.small_batch_flops == pytest.approx(base.small_batch_flops * 2)
    assert fast.mem_bandwidth == pytest.approx(base.mem_bandwidth * 3)
    assert fast.memory_bytes == base.memory_bytes


def test_gpu_ordering_by_compute():
    assert get_gpu_spec("a100").matmul_flops > get_gpu_spec("rtx3090").matmul_flops
    assert get_gpu_spec("rtx3090").matmul_flops > get_gpu_spec("p100").matmul_flops


class TestGPUDevice:
    def make(self, name="a100", reserved=0.10):
        return GPUDevice(device_id=0, spec=get_gpu_spec(name), reserved_fraction=reserved)

    def test_usable_bytes_applies_reserve(self):
        dev = self.make()
        assert dev.usable_bytes == int(gb_to_bytes(80) * 0.9)

    def test_kv_capacity_shrinks_with_weights(self):
        dev = self.make()
        dev.assign_weights(gb_to_bytes(20))
        assert dev.kv_capacity_bytes == dev.usable_bytes - gb_to_bytes(20)

    def test_assign_weights_too_large_raises(self):
        dev = self.make("p100")
        with pytest.raises(MemoryError):
            dev.assign_weights(gb_to_bytes(20))

    def test_negative_weights_rejected(self):
        dev = self.make()
        with pytest.raises(ValueError):
            dev.assign_weights(-1)

    def test_invalid_reserved_fraction(self):
        with pytest.raises(ValueError):
            GPUDevice(device_id=0, spec=get_gpu_spec("a100"), reserved_fraction=1.5)

    def test_name_includes_type_and_id(self):
        dev = GPUDevice(device_id=7, spec=get_gpu_spec("rtx3090"))
        assert dev.name == "rtx3090:7"
