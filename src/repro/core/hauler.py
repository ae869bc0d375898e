"""The Hauler: interference-aware, head-wise partial cache migration (Sec. 6).

When a request is re-dispatched, only the head groups whose placement actually
changed have to move; the Hauler plans that minimal transfer (via
:func:`repro.kvcache.migration.plan_head_migration`), prices it with the
cluster's link model, and -- because the real system runs migrations on
low-priority CUDA streams -- reports how much of the transfer overlaps with
ongoing inference versus how much leaks into iteration latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.hardware.cluster import Cluster
from repro.kvcache.migration import MigrationPlan, plan_head_migration
from repro.models.spec import ModelSpec


@dataclass
class MigrationReport:
    """Cost of executing one migration plan.

    ``transfer_seconds`` is the raw wire time of all steps (steps between
    distinct device pairs overlap; steps sharing a source serialise);
    ``blocking_seconds`` is the portion charged to the serving iteration given
    the low-priority-stream interference factor.
    """

    plan: MigrationPlan
    transfer_seconds: float
    blocking_seconds: float

    @property
    def moved_bytes(self) -> float:
        return self.plan.total_bytes

    @property
    def is_empty(self) -> bool:
        return self.plan.is_empty


class Hauler:
    """Plans and prices head-wise KV-cache migrations.

    Parameters
    ----------
    interference_factor:
        Fraction of the transfer time that still blocks inference despite the
        low-priority stream (0 = perfectly hidden, 1 = fully blocking).  The
        paper's design goal is to keep this near zero; the ablation benchmarks
        sweep it.
    """

    def __init__(self, cluster: Cluster, model: ModelSpec, interference_factor: float = 0.05) -> None:
        if not 0.0 <= interference_factor <= 1.0:
            raise ValueError("interference_factor must be in [0, 1]")
        self.cluster = cluster
        self.model = model
        self.interference_factor = interference_factor

    def plan(
        self,
        seq_id: int,
        context_tokens: int,
        old_allocation: Mapping[int, int],
        new_allocation: Mapping[int, int],
    ) -> MigrationPlan:
        """Minimal head-wise movement between two allocations of one request."""
        return plan_head_migration(self.model, seq_id, context_tokens, old_allocation, new_allocation)

    def price(self, plan: MigrationPlan, device_host: Mapping[int, int]) -> MigrationReport:
        """Compute the wire time and the blocking time of a plan.

        ``device_host`` maps device ids to host ids so pseudo-devices (the
        aggregate Primary target) can be priced too.  Transfers from distinct
        sources overlap; transfers sharing a source serialise on its NIC.
        """
        per_source: Dict[int, float] = {}
        for step in plan.steps:
            src_host = device_host.get(step.src_device, 0)
            dst_host = device_host.get(step.dst_device, 0)
            link = self.cluster.interconnect.link_between(src_host, dst_host)
            per_source[step.src_device] = per_source.get(step.src_device, 0.0) + link.transfer_time(
                step.n_bytes
            )
        transfer = max(per_source.values()) if per_source else 0.0
        return MigrationReport(
            plan=plan,
            transfer_seconds=transfer,
            blocking_seconds=transfer * self.interference_factor,
        )

    def migrate(
        self,
        seq_id: int,
        context_tokens: int,
        old_allocation: Mapping[int, int],
        new_allocation: Mapping[int, int],
        device_host: Mapping[int, int],
    ) -> MigrationReport:
        """Plan + price in one call (the common path for the serving loop)."""
        plan = self.plan(seq_id, context_tokens, old_allocation, new_allocation)
        return self.price(plan, device_host)
