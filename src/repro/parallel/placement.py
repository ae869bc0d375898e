"""Device grouping into data-parallel serving instances.

Step 1 of the Parallelizer's hierarchical search (paper Fig. 4) splits the
cluster into serving instances such that "GPUs of different types are evenly
divided across all instances".  These helpers enumerate the feasible instance
counts and produce the per-instance device groups, keeping devices of a host
together when possible (to favour PCIe over LAN traffic); the static
baselines then cut an instance into one pipeline stage per host and GPU type.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.hardware.cluster import Cluster
from repro.hardware.gpu import GPUDevice


def feasible_instance_counts(cluster: Cluster, max_instances: int | None = None) -> List[int]:
    """Instance counts that divide every GPU type's device count evenly.

    The paper's grouping rule requires each instance to receive the same mix
    of GPU types, so a count is feasible iff it divides the population of every
    type.  ``1`` is always feasible.
    """
    counts = cluster.counts_by_type().values()
    limit = min(counts)
    if max_instances is not None:
        limit = min(limit, max_instances)
    feasible = [k for k in range(1, limit + 1) if all(c % k == 0 for c in counts)]
    return feasible or [1]


def group_devices_evenly(cluster: Cluster, num_instances: int) -> List[List[GPUDevice]]:
    """Split the cluster's devices into ``num_instances`` identical-mix groups.

    Devices of each type are dealt round-robin to instances in host order, so
    co-located devices tend to land in the same instance.  Raises
    ``ValueError`` when the count is infeasible for the cluster mix.
    """
    if num_instances <= 0:
        raise ValueError("num_instances must be > 0")
    by_type: Dict[str, List[GPUDevice]] = {}
    for dev in cluster.devices:
        by_type.setdefault(dev.spec.name, []).append(dev)
    for type_name, devs in by_type.items():
        if len(devs) % num_instances != 0:
            raise ValueError(
                f"{len(devs)} x {type_name} cannot be divided evenly into {num_instances} instances"
            )
    groups: List[List[GPUDevice]] = [[] for _ in range(num_instances)]
    for type_name in sorted(by_type):
        devs = sorted(by_type[type_name], key=lambda d: (d.host_id, d.device_id))
        per_instance = len(devs) // num_instances
        for i in range(num_instances):
            groups[i].extend(devs[i * per_instance : (i + 1) * per_instance])
    return groups


def stage_groups(devices: List[GPUDevice]) -> List[List[GPUDevice]]:
    """Group devices into homogeneous per-host pipeline stages.

    Devices sharing a host and a GPU type form one tensor-parallel stage;
    stages are ordered fastest type first so prefill activations flow from
    high-end to low-end hardware, matching the paper's HexGen deployment.
    """
    groups: Dict[Tuple[int, str], List[GPUDevice]] = {}
    for dev in devices:
        groups.setdefault((dev.host_id, dev.spec.name), []).append(dev)
    return sorted(groups.values(), key=lambda ds: (-ds[0].spec.matmul_flops, ds[0].host_id))
