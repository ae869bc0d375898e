"""Dynamic Attention parallelism primitives (paper Sec. 4.2).

The core data structure is :class:`HeadSplit` -- a per-request mapping from
dispatch target to an integral number of query heads, always summing to the
model's head count (head-level integrity, Eq. 5) and always in multiples of
the KV-head group size ``r``.

The module also quantifies the communication overhead of the three candidate
splitting dimensions (batch-wise, sequence-wise, head-wise) used in the
motivation figure (Fig. 5): head-wise splitting moves only the offloaded
heads' vectors, sequence-wise replicates the full query vector to every holder
of a cache slice, and batch-wise migrates whole requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.hardware.cluster import Cluster
from repro.hardware.gpu import GPUDevice
from repro.models.spec import ModelSpec
from repro.perf.commcost import attention_transfer_bytes, kv_cache_bytes, seqwise_transfer_bytes


@dataclass
class HeadSplit:
    """Per-request head allocation across dispatch targets.

    ``allocation`` maps a target id (device id, or the aggregate primary's
    pseudo-id) to the number of query heads it computes and stores for this
    request.
    """

    request_id: int
    total_heads: int
    group_size: int
    allocation: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.total_heads <= 0 or self.group_size <= 0:
            raise ValueError("total_heads and group_size must be positive")
        if self.total_heads % self.group_size != 0:
            raise ValueError("total_heads must be a multiple of group_size")
        self.validate()

    def validate(self) -> None:
        """Enforce head-level integrity and group-size divisibility."""
        total = 0
        for target, heads in self.allocation.items():
            if heads < 0:
                raise ValueError(f"negative head count on target {target}")
            if heads % self.group_size != 0:
                raise ValueError(
                    f"allocation on target {target} ({heads}) is not a multiple of r={self.group_size}"
                )
            total += heads
        if self.allocation and total != self.total_heads:
            raise ValueError(
                f"head-level integrity violated: allocated {total} of {self.total_heads} heads"
            )

    # -- queries --------------------------------------------------------------------

    def heads_on(self, target: int) -> int:
        return self.allocation.get(target, 0)

    def targets(self) -> Iterable[int]:
        return (t for t, h in self.allocation.items() if h > 0)

    def offloaded_heads(self, primary_target: int) -> int:
        """Heads not kept on ``primary_target``."""
        return self.total_heads - self.heads_on(primary_target)


# -- communication-overhead comparison (Fig. 5) ----------------------------------------


def headwise_transfer_overhead(
    model: ModelSpec,
    cluster: Cluster,
    primary: GPUDevice,
    workers: Iterable[GPUDevice],
    offloaded_heads_per_worker: float,
) -> float:
    """Per-layer decode-step communication time under head-wise splitting.

    Each worker receives only the offloaded heads' query/key/value vectors and
    returns partial outputs; flows to distinct workers overlap, so the cost is
    the root-side scatter/gather time over the per-worker volume.
    """
    workers = list(workers)
    if not workers or offloaded_heads_per_worker <= 0:
        return 0.0
    # Scatter (queries out) and gather (partial outputs back) travel in opposite
    # directions and overlap with the per-layer computation, so the critical
    # path is the largest single per-worker flow -- which shrinks as the load is
    # spread over more workers (the effect Fig. 5b measures).
    per_worker_bytes = attention_transfer_bytes(model, offloaded_heads_per_worker)
    return max(
        cluster.interconnect.p2p_time(per_worker_bytes, primary.host_id, w.host_id)
        for w in workers
    )


def seqwise_transfer_overhead(
    model: ModelSpec,
    cluster: Cluster,
    primary: GPUDevice,
    workers: Iterable[GPUDevice],
    num_requests_split: int = 1,
) -> float:
    """Per-layer decode-step communication time under sequence-wise splitting.

    Every worker holding a slice of a split request's cache needs the full
    query vector of that request and returns a full-width partial output plus
    softmax statistics, so the per-worker volume does not shrink as more
    workers are added -- it is replicated.
    """
    workers = list(workers)
    if not workers or num_requests_split <= 0:
        return 0.0
    # Every worker holding a cache slice needs the *full* query vector of each
    # split request, so the per-worker volume does not shrink with more workers;
    # additionally all replicas leave the primary's NIC, which serialises them.
    per_worker_bytes = num_requests_split * seqwise_transfer_bytes(model, 1)
    per_flow = max(
        cluster.interconnect.p2p_time(per_worker_bytes, primary.host_id, w.host_id)
        for w in workers
    )
    remote = [w for w in workers if w.host_id != primary.host_id]
    link = cluster.interconnect.inter_host
    nic_serialisation = 0.0
    if remote:
        nic_serialisation = link.latency + len(remote) * per_worker_bytes / link.bandwidth
    return max(per_flow, nic_serialisation)


def batchwise_transfer_overhead(
    model: ModelSpec,
    cluster: Cluster,
    primary: GPUDevice,
    worker: GPUDevice,
    context_tokens: int,
) -> float:
    """Cost of moving an entire request (its whole KV cache) to another device.

    Batch-wise splitting operates at whole-request granularity, so rebalancing
    load means full cache migrations -- the coarse-grained behaviour the paper
    argues against.
    """
    return cluster.p2p_time(kv_cache_bytes(model, context_tokens), primary, worker)
