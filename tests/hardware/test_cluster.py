"""Tests for hosts, the cluster builder, and the paper's testbed topology."""

import pytest

from repro.hardware.cluster import Cluster, ClusterBuilder, large_scale_cluster, paper_cluster, simple_cluster
from repro.hardware.gpu import GPUDevice, get_gpu_spec
from repro.hardware.node import Host


class TestHost:
    def test_add_device_sets_host_id(self):
        host = Host(host_id=3)
        dev = host.add_device(GPUDevice(device_id=0, spec=get_gpu_spec("a100")))
        assert dev.host_id == 3
        assert host.num_devices == 1

    def test_total_gpu_memory(self):
        host = Host(host_id=0)
        host.add_device(GPUDevice(device_id=0, spec=get_gpu_spec("a100")))
        host.add_device(GPUDevice(device_id=1, spec=get_gpu_spec("p100")))
        assert host.total_gpu_memory_bytes == get_gpu_spec("a100").memory_bytes + get_gpu_spec("p100").memory_bytes

    def test_invalid_cpu_cores(self):
        with pytest.raises(ValueError):
            Host(host_id=0, cpu_cores=0)


class TestPaperCluster:
    def setup_method(self):
        self.cluster = paper_cluster()

    def test_device_counts(self):
        counts = self.cluster.counts_by_type()
        assert counts == {"a100": 4, "rtx3090": 4, "p100": 4}

    def test_host_layout(self):
        assert len(self.cluster.hosts) == 4
        assert [h.num_devices for h in self.cluster.hosts] == [4, 2, 2, 4]

    def test_device_ids_unique_and_ordered(self):
        ids = [d.device_id for d in self.cluster.devices]
        assert ids == sorted(set(ids))
        assert len(ids) == 12

    def test_gpu_types_ordered_fastest_first(self):
        assert self.cluster.gpu_types == ["a100", "rtx3090", "p100"]

    def test_total_memory(self):
        assert self.cluster.total_memory_bytes == pytest.approx((4 * 80 + 4 * 24 + 4 * 12) * 1e9)

    def test_device_lookup(self):
        dev = self.cluster.device(5)
        assert dev.device_id == 5
        with pytest.raises(KeyError):
            self.cluster.device(99)

    def test_devices_of_type(self):
        assert len(self.cluster.devices_of_type("p100")) == 4
        assert all(d.spec.name == "p100" for d in self.cluster.devices_of_type("P100"))

    def test_p2p_time_intra_vs_inter_host(self):
        a100s = self.cluster.devices_of_type("a100")
        p100s = self.cluster.devices_of_type("p100")
        intra = self.cluster.p2p_time(1e8, a100s[0], a100s[1])
        inter = self.cluster.p2p_time(1e8, a100s[0], p100s[0])
        assert inter > intra


class TestLargeScaleCluster:
    def test_five_types_of_equal_count(self):
        cluster = large_scale_cluster(16)
        assert cluster.counts_by_type() == {t: 16 for t in ("a100", "a6000", "v100", "rtx3090", "p100")}
        assert cluster.num_devices == 80

    @pytest.mark.parametrize("gpus_per_type, host_sizes", [(8, [8]), (12, [8, 4]), (32, [8, 8, 8, 8])])
    def test_hosts_hold_at_most_eight_of_one_type(self, gpus_per_type, host_sizes):
        cluster = large_scale_cluster(gpus_per_type)
        assert [h.num_devices for h in cluster.hosts] == host_sizes * 5
        assert all(len({d.spec.name for d in h.devices}) == 1 for h in cluster.hosts)

class TestClusterBuilder:
    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterBuilder().build()

    def test_unknown_gpu_rejected_eagerly(self):
        with pytest.raises(KeyError):
            ClusterBuilder().add_host("gtx480", count=2)

    def test_heterogeneous_host(self):
        cluster = ClusterBuilder().add_host(["a100", "p100"]).build()
        assert cluster.hosts[0].num_devices == 2
        assert cluster.counts_by_type() == {"a100": 1, "p100": 1}

    def test_empty_host_rejected(self):
        with pytest.raises(ValueError):
            ClusterBuilder().add_host([])

    def test_simple_cluster_shape(self):
        cluster = simple_cluster("a100", "rtx3090", n_high=1, n_low=2)
        assert cluster.counts_by_type() == {"a100": 1, "rtx3090": 2}
        assert len(cluster.hosts) == 2


def test_cluster_duplicate_device_ids_detected():
    spec = get_gpu_spec("a100")
    host = Host(host_id=0, devices=[GPUDevice(device_id=0, spec=spec), GPUDevice(device_id=0, spec=spec)])
    cluster = Cluster(hosts=[host])
    # devices property sorts by id; duplicate ids collapse in lookups, which the
    # builder prevents -- here we just document that manual construction allows it.
    assert cluster.num_devices == 2
