"""Tests for links, the alpha-beta model, and collective cost estimates."""

import pytest

from repro.hardware.interconnect import DEFAULT_LINKS, Interconnect, Link, LinkKind


class TestLink:
    def test_transfer_time_alpha_beta(self):
        link = Link(latency=1e-3, bandwidth=1e9)
        assert link.transfer_time(1e9) == pytest.approx(1.001)

    def test_zero_bytes_is_free(self):
        link = Link(latency=5e-3, bandwidth=1e9)
        assert link.transfer_time(0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            Link(latency=0, bandwidth=1e9).transfer_time(-1)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Link(latency=0, bandwidth=0)

    def test_lan_default_is_100gbit(self):
        lan = DEFAULT_LINKS[LinkKind.LAN]
        assert lan.bandwidth == pytest.approx(12.5e9)


class TestInterconnect:
    def setup_method(self):
        self.net = Interconnect()

    def test_same_host_uses_pcie(self):
        assert self.net.link_between(0, 0).kind == LinkKind.PCIE

    def test_cross_host_uses_lan(self):
        assert self.net.link_between(0, 1).kind == LinkKind.LAN

    def test_same_device_is_loopback(self):
        assert self.net.link_between(0, 0, same_device=True).kind == LinkKind.LOOPBACK

    def test_p2p_cross_host_slower_than_intra_host(self):
        n_bytes = 100e6
        assert self.net.p2p_time(n_bytes, 0, 1) > self.net.p2p_time(n_bytes, 0, 0)

    def test_allreduce_single_member_free(self):
        assert self.net.allreduce_time(1e6, (0,)) == 0.0

    def test_allreduce_grows_with_group_span(self):
        intra = self.net.allreduce_time(1e8, (0, 0, 0, 0))
        inter = self.net.allreduce_time(1e8, (0, 1, 2, 3))
        assert inter > intra
