"""The Hetis serving system: data-parallel Hetis instances plus routing.

:func:`build_hetis_system` runs the Parallelizer against a cluster and a
workload hint, instantiates one :class:`~repro.core.hetis_unit.HetisInstanceUnit`
per planned instance, and wraps them in a :class:`HetisSystem` that the
discrete-event engine can drive.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.hetis_unit import HetisInstanceUnit
from repro.core.parallelizer import Parallelizer, ParallelizerResult, WorkloadHint
from repro.hardware.cluster import Cluster
from repro.models.spec import ModelSpec
from repro.sim.engine import ServingSystem
from repro.sim.request import Request
from repro.sim.scheduler import SchedulerLimits
from repro.sim.units import ExecutionUnit


class HetisSystem(ServingSystem):
    """Routes arrivals across Hetis instances; each instance writes its own Fig. 14 series."""

    def __init__(self, instances: List[HetisInstanceUnit], plan: Optional[ParallelizerResult] = None) -> None:
        if not instances:
            raise ValueError("need at least one Hetis instance")
        self.name = "hetis"
        self._instances = instances
        self.plan = plan

    @property
    def units(self) -> List[ExecutionUnit]:
        return list(self._instances)

    def route(self, request: Request, now: float) -> ExecutionUnit:
        """Join-the-least-loaded-instance routing across data-parallel replicas."""
        return min(self._instances, key=lambda u: u.load)

    # -- reporting ---------------------------------------------------------------------

    def describe(self) -> str:
        parts = []
        for unit in self._instances:
            primaries = ",".join(d.name for d in unit.config.primary_devices)
            workers = ",".join(d.name for d in unit.config.attention_workers) or "-"
            parts.append(f"{unit.name}[primary={primaries}; attention={workers}]")
        return "hetis: " + " | ".join(parts)


def build_hetis_system(
    cluster: Cluster,
    model: ModelSpec,
    hint: WorkloadHint | None = None,
    limits: SchedulerLimits | None = None,
    theta: float = 0.5,
    solver: str = "lp",
    enable_redispatch: bool = True,
    profiling_error: float = 0.0,
    local_preference: float = 0.15,
    delta: float = 0.05,
    max_instances: Optional[int] = None,
    seed: int = 0,
) -> HetisSystem:
    """Plan and instantiate a Hetis deployment on ``cluster`` for ``model``."""
    parallelizer = Parallelizer(cluster, model, hint=hint, delta=delta, max_instances=max_instances)
    plan = parallelizer.plan()
    instances: List[HetisInstanceUnit] = []
    for idx, inst_config in enumerate(plan.config.instances):
        instances.append(
            HetisInstanceUnit(
                name=f"hetis-{idx}",
                config=inst_config,
                model=model,
                cluster=cluster,
                limits=limits,
                theta=theta,
                solver=solver,
                local_preference=local_preference,
                enable_redispatch=enable_redispatch,
                profiling_error=profiling_error,
                seed=seed + idx,
            )
        )
    return HetisSystem(instances, plan=plan)
