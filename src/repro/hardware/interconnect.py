"""Interconnect topology and the alpha-beta communication cost model.

The paper models point-to-point transfer overhead with the classic
"alpha-beta" (latency + inverse-bandwidth) model (its Eq. 4); collective
communication inside a tensor-parallel group is modelled with the standard
ring-allreduce cost.  This module provides those primitives on top of an
explicit link topology: PCIe links inside a host and a shared LAN between
hosts, exactly mirroring the testbed (PCIe intra-host, 100 Gbps Ethernet
inter-host).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.utils.units import gbit_per_s_to_bytes_per_s, giga
from repro.utils.validation import check_positive


class LinkKind(str, enum.Enum):
    """The physical medium a link uses (affects default latency/bandwidth)."""

    PCIE = "pcie"
    NVLINK = "nvlink"
    LAN = "lan"
    LOOPBACK = "loopback"


@dataclass(frozen=True)
class Link:
    """A point-to-point channel characterised by latency and bandwidth.

    Attributes
    ----------
    latency:
        One-way latency in seconds (the "alpha" term).
    bandwidth:
        Sustained bandwidth in bytes/second (the inverse of the "beta" term).
    kind:
        The medium; reported in traces and used to pick sensible defaults.
    """

    latency: float
    bandwidth: float
    kind: LinkKind = LinkKind.LAN

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        check_positive("bandwidth", self.bandwidth)

    def transfer_time(self, n_bytes: float) -> float:
        """Alpha-beta transfer time for a message of ``n_bytes``."""
        if n_bytes < 0:
            raise ValueError("message size must be >= 0")
        if n_bytes == 0:
            return 0.0
        return self.latency + n_bytes / self.bandwidth


# Reasonable defaults for the media found in the testbed.
DEFAULT_LINKS: Dict[LinkKind, Link] = {
    LinkKind.LOOPBACK: Link(latency=1e-6, bandwidth=giga(900.0), kind=LinkKind.LOOPBACK),
    LinkKind.NVLINK: Link(latency=3e-6, bandwidth=giga(250.0), kind=LinkKind.NVLINK),
    LinkKind.PCIE: Link(latency=8e-6, bandwidth=giga(24.0), kind=LinkKind.PCIE),
    LinkKind.LAN: Link(
        latency=30e-6,
        bandwidth=gbit_per_s_to_bytes_per_s(100.0),
        kind=LinkKind.LAN,
    ),
}


class Interconnect:
    """Pairwise communication costs between devices of a cluster.

    The topology is intentionally simple (it matches the testbed): two GPUs on
    the same host talk over PCIe (or NVLink if configured); GPUs on different
    hosts share a LAN.  ``Interconnect`` resolves a (device, device) pair to a
    :class:`Link` and exposes the cost primitives the planners and the
    simulator need: point-to-point transfers and all-reduce.
    """

    def __init__(
        self,
        intra_host: Link | None = None,
        inter_host: Link | None = None,
    ) -> None:
        self.intra_host = intra_host or DEFAULT_LINKS[LinkKind.PCIE]
        self.inter_host = inter_host or DEFAULT_LINKS[LinkKind.LAN]
        self._loopback = DEFAULT_LINKS[LinkKind.LOOPBACK]

    # -- link resolution ------------------------------------------------------

    def link_between(self, host_a: int, host_b: int, same_device: bool = False) -> Link:
        """Return the link used between two devices identified by their hosts."""
        if same_device:
            return self._loopback
        if host_a == host_b:
            return self.intra_host
        return self.inter_host

    # -- point-to-point -------------------------------------------------------

    def p2p_time(self, n_bytes: float, host_a: int, host_b: int, same_device: bool = False) -> float:
        """Time to move ``n_bytes`` from one device to another."""
        return self.link_between(host_a, host_b, same_device).transfer_time(n_bytes)

    # -- collectives ----------------------------------------------------------

    def allreduce_time(self, n_bytes: float, hosts: Tuple[int, ...]) -> float:
        """Ring all-reduce across the devices living on ``hosts``.

        Uses the standard cost model ``2 (p-1)/p * n / bw + 2 (p-1) * alpha``
        where the (alpha, bw) of the slowest link in the ring is used -- a ring
        spanning hosts is gated by the LAN hop even if most members share a
        host, which is exactly the effect the paper's O1 observation is about.
        """
        p = len(hosts)
        if p <= 1 or n_bytes == 0:
            return 0.0
        link = self._bottleneck_link(hosts)
        steps = 2 * (p - 1)
        return steps * link.latency + (steps / p) * (n_bytes / link.bandwidth)

    # -- helpers --------------------------------------------------------------

    def _bottleneck_link(self, hosts: Tuple[int, ...]) -> Link:
        if len(set(hosts)) > 1:
            return self.inter_host
        return self.intra_host
