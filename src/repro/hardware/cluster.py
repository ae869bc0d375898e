"""Cluster topology: hosts, devices, and the interconnect between them.

:func:`paper_cluster` rebuilds the evaluation testbed of the paper:

* one host with four A100-80GB GPUs,
* two hosts with two RTX 3090 GPUs each,
* one host with four P100-12GB GPUs,
* 100 Gbps LAN between hosts, PCIe within each host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.hardware.gpu import GPUDevice, GPUSpec, get_gpu_spec
from repro.hardware.interconnect import Interconnect, Link
from repro.hardware.node import Host


@dataclass
class Cluster:
    """A heterogeneous GPU cluster.

    The cluster owns the hosts (and therefore the devices) and the
    interconnect.  Devices are globally indexed by ``device_id`` so that
    planners and the simulator can refer to them uniformly.
    """

    hosts: List[Host] = field(default_factory=list)
    interconnect: Interconnect = field(default_factory=Interconnect)

    # -- device access --------------------------------------------------------

    @property
    def devices(self) -> List[GPUDevice]:
        """All devices in global ``device_id`` order."""
        devs = [d for h in self.hosts for d in h.devices]
        return sorted(devs, key=lambda d: d.device_id)

    def device(self, device_id: int) -> GPUDevice:
        """Look up a device by its global id."""
        for dev in self.devices:
            if dev.device_id == device_id:
                return dev
        raise KeyError(f"no device with id {device_id}")

    def devices_of_type(self, type_name: str) -> List[GPUDevice]:
        """All devices whose spec name matches ``type_name`` (case-insensitive)."""
        key = type_name.lower()
        return [d for d in self.devices if d.spec.name == key]

    @property
    def gpu_types(self) -> List[str]:
        """Distinct GPU type names present, ordered from fastest to slowest.

        Ordering uses the effective dense throughput, which is the notion of
        "high-end vs low-end" the paper's Parallelizer uses when pruning
        devices from primary-worker parallelism.
        """
        specs: Dict[str, GPUSpec] = {d.spec.name: d.spec for d in self.devices}
        return sorted(specs, key=lambda n: specs[n].matmul_flops, reverse=True)

    # -- aggregate properties --------------------------------------------------

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def total_memory_bytes(self) -> int:
        return sum(d.spec.memory_bytes for d in self.devices)

    @property
    def cost_per_hour(self) -> float:
        """Aggregate rental price ($/hr) of every device in the cluster."""
        return sum(d.spec.cost_per_hour for d in self.devices)

    def counts_by_type(self) -> Dict[str, int]:
        """Number of devices of each type, keyed by spec name."""
        counts: Dict[str, int] = {}
        for dev in self.devices:
            counts[dev.spec.name] = counts.get(dev.spec.name, 0) + 1
        return counts

    # -- communication helpers -------------------------------------------------

    def link_between(self, src: GPUDevice, dst: GPUDevice) -> Link:
        """The link a transfer from ``src`` to ``dst`` uses."""
        return self.interconnect.link_between(src.host_id, dst.host_id, same_device=src.device_id == dst.device_id)

    def p2p_time(self, n_bytes: float, src: GPUDevice, dst: GPUDevice) -> float:
        """Point-to-point transfer time between two devices of this cluster."""
        return self.link_between(src, dst).transfer_time(n_bytes)

    def allreduce_time(self, n_bytes: float, devices: Sequence[GPUDevice]) -> float:
        """Ring all-reduce time across ``devices``."""
        return self.interconnect.allreduce_time(n_bytes, tuple(d.host_id for d in devices))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = ", ".join(f"{v}x{k}" for k, v in self.counts_by_type().items())
        return f"Cluster({counts}, hosts={len(self.hosts)})"


class ClusterBuilder:
    """Fluent builder for clusters used by tests, examples, and experiments.

    Example
    -------
    >>> cluster = (ClusterBuilder()
    ...            .add_host("a100", count=4)
    ...            .add_host("rtx3090", count=2)
    ...            .add_host("rtx3090", count=2)
    ...            .add_host("p100", count=4)
    ...            .build())
    >>> cluster.num_devices
    12
    """

    def __init__(self, interconnect: Optional[Interconnect] = None) -> None:
        self._interconnect = interconnect or Interconnect()
        self._host_specs: List[List[str]] = []

    def add_host(self, gpu_type: str | Sequence[str], count: int = 1) -> "ClusterBuilder":
        """Add a host with ``count`` GPUs of ``gpu_type``.

        ``gpu_type`` may also be an explicit list of type names (heterogeneous
        host), in which case ``count`` is ignored.
        """
        if isinstance(gpu_type, str):
            names = [gpu_type] * count
        else:
            names = list(gpu_type)
        if not names:
            raise ValueError("a host must contain at least one GPU")
        # Validate eagerly so misconfigurations fail at build-description time.
        for name in names:
            get_gpu_spec(name)
        self._host_specs.append(names)
        return self

    def build(self) -> Cluster:
        """Materialise the cluster with globally unique device ids."""
        hosts: List[Host] = []
        device_id = 0
        for host_id, names in enumerate(self._host_specs):
            host = Host(host_id=host_id)
            for name in names:
                host.add_device(GPUDevice(device_id=device_id, spec=get_gpu_spec(name)))
                device_id += 1
            hosts.append(host)
        if not hosts:
            raise ValueError("cannot build an empty cluster")
        return Cluster(hosts=hosts, interconnect=self._interconnect)


def parse_blueprint(spec: str) -> List[tuple]:
    """Parse an inline cluster blueprint into ``(gpu_type, count)`` host tuples.

    The blueprint grammar is comma-separated ``type:count`` hosts --
    ``"a100:4"``, ``"a100:2,t4:4"`` -- with ``:count`` optional (``"a100"``
    means one GPU).  Every malformed shape gets a pointed error naming the
    offending host entry, instead of a bare ``int()`` traceback or a silently
    empty cluster:

    * empty blueprint / empty host entry (``"a100:2,,t4:1"``),
    * a trailing colon with no count (``"a100:"``),
    * a non-integer count (``"a100:two"``),
    * a zero or negative count (``"a100:0"``, ``"a100:-2"``),
    * an unknown GPU type (via :func:`~repro.hardware.gpu.get_gpu_spec`).
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(
            f"empty cluster blueprint {spec!r}; expected comma-separated "
            "type:count hosts like 'a100:2,t4:4'"
        )
    hosts: List[tuple] = []
    for raw in spec.split(","):
        entry = raw.strip()
        if not entry:
            raise ValueError(
                f"empty host entry in cluster blueprint {spec!r}; expected "
                "comma-separated type:count hosts like 'a100:2,t4:4'"
            )
        name, sep, count_str = entry.partition(":")
        name = name.strip()
        count_str = count_str.strip()
        if not name:
            raise ValueError(
                f"host entry {entry!r} in cluster blueprint {spec!r} is missing "
                "a GPU type before ':'"
            )
        if sep and not count_str:
            raise ValueError(
                f"host entry {entry!r} in cluster blueprint {spec!r} has a ':' "
                "but no GPU count; write 'a100:2' or just 'a100'"
            )
        if not sep:
            count = 1
        else:
            try:
                count = int(count_str)
            except ValueError:
                raise ValueError(
                    f"host entry {entry!r} in cluster blueprint {spec!r} has a "
                    f"non-integer GPU count {count_str!r}"
                ) from None
        if count < 1:
            raise ValueError(
                f"host entry {entry!r} in cluster blueprint {spec!r} must have "
                f"a GPU count >= 1, got {count}"
            )
        # Validate the GPU type eagerly so the error points at the blueprint.
        try:
            get_gpu_spec(name)
        except KeyError:
            raise ValueError(
                f"host entry {entry!r} in cluster blueprint {spec!r} names an "
                f"unknown GPU type {name!r}"
            ) from None
        hosts.append((name, count))
    return hosts


def cluster_from_blueprint(spec: str, interconnect: Optional[Interconnect] = None) -> Cluster:
    """Build a cluster from an inline ``type:count,...`` blueprint string."""
    builder = ClusterBuilder(interconnect=interconnect)
    for name, count in parse_blueprint(spec):
        builder.add_host(name, count=count)
    return builder.build()


def paper_cluster() -> Cluster:
    """The default evaluation cluster of the paper.

    4x A100-80GB on one host, 2x RTX 3090 on each of two hosts, and
    4x P100-12GB on one host; 100 Gbps LAN, PCIe intra-host.
    """
    return (
        ClusterBuilder()
        .add_host("a100", count=4)
        .add_host("rtx3090", count=2)
        .add_host("rtx3090", count=2)
        .add_host("p100", count=4)
        .build()
    )


def large_scale_cluster(gpus_per_type: int = 32) -> Cluster:
    """Sec. 7.4's large-scale cluster: five GPU types with ``gpus_per_type`` devices
    each, 8 per host."""
    builder = ClusterBuilder()
    for gpu_type in ("a100", "a6000", "v100", "rtx3090", "p100"):
        remaining = gpus_per_type
        while remaining > 0:
            per_host = min(8, remaining)
            builder.add_host(gpu_type, count=per_host)
            remaining -= per_host
    return builder.build()


def simple_cluster(high: str = "a100", low: str = "rtx3090", n_high: int = 1, n_low: int = 2) -> Cluster:
    """A small two-type cluster (one host per type) for unit tests and the
    Fig.-14 ablation (one A100 primary worker + two 3090 Attention workers)."""
    builder = ClusterBuilder().add_host(high, count=n_high)
    builder.add_host(low, count=n_low)
    return builder.build()
