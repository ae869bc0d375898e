"""Serving-system plugin registry.

Every named serving system -- the paper's Hetis plus the baselines -- registers
a builder here, and :func:`repro.api.build` calls the one a spec's
``system.name`` names.  A builder has the uniform signature::

    builder(cluster, model, dataset="sharegpt", limits=None, **kwargs) -> ServingSystem

where ``model`` is a resolved :class:`~repro.models.spec.ModelSpec` and
``dataset`` names the workload the deployment is being planned for (Hetis
derives its Parallelizer hint from the dataset's length statistics; builders
that do not plan against the workload simply ignore it).  A spec's
``system.limits`` and ``system.prefill_chunk_tokens`` arrive as ``limits`` and
its ``system.options`` as ``kwargs``.

Third-party systems join the catalog with::

    from repro.systems import SYSTEMS

    @SYSTEMS.register("my-system", help="one line for the CLI listing")
    def build_my_system(cluster, model, dataset="sharegpt", limits=None, **kwargs):
        ...

after which ``"my-system"`` is valid everywhere a system name is accepted:
:class:`~repro.config.SystemSpec` (and so config files and ``build``), the
CLI, and the sweep runner.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines import build_hexgen_system, build_splitwise_system, build_static_tp_system
from repro.core.parallelizer import WorkloadHint
from repro.core.system import build_hetis_system
from repro.registry import Registry
from repro.sim.engine import ServingSystem
from repro.sim.scheduler import SchedulerLimits
from repro.workloads.datasets import get_dataset_spec

SYSTEMS: Registry = Registry("system")


def default_hint(dataset: str, model_name: Optional[str] = None) -> WorkloadHint:
    """A reasonable planning hint derived from a dataset's length statistics."""
    spec = get_dataset_spec(dataset)
    return WorkloadHint(
        avg_prompt_tokens=int(spec.mean_prompt_tokens),
        avg_context_tokens=int(spec.mean_prompt_tokens + spec.mean_output_tokens),
        expected_concurrency=64,
    )


@SYSTEMS.register(
    "hetis",
    help="the paper's system: fine-grained dynamic parallelism via the Parallelizer",
)
def _build_hetis(cluster, model, dataset: str = "sharegpt", limits: Optional[SchedulerLimits] = None, **kwargs) -> ServingSystem:
    hint = kwargs.pop("hint", None)
    if hint is None:
        hint = default_hint(dataset, model.name)
    return build_hetis_system(cluster, model, hint=hint, limits=limits, **kwargs)


@SYSTEMS.register(
    "hexgen",
    help="HexGen baseline: asymmetric pipeline/tensor parallelism over all GPUs",
)
def _build_hexgen(cluster, model, dataset: str = "sharegpt", limits: Optional[SchedulerLimits] = None, **kwargs) -> ServingSystem:
    return build_hexgen_system(cluster, model, limits=limits, **kwargs)


@SYSTEMS.register(
    "splitwise",
    help="Splitwise baseline: disaggregated prefill/decode device pools",
)
def _build_splitwise(cluster, model, dataset: str = "sharegpt", limits: Optional[SchedulerLimits] = None, **kwargs) -> ServingSystem:
    return build_splitwise_system(cluster, model, limits=limits, **kwargs)


@SYSTEMS.register(
    "static-tp",
    help="uniform static tensor-parallel baseline on the high-end GPUs",
    aliases=("static_tp", "static"),
)
def _build_static_tp(cluster, model, dataset: str = "sharegpt", limits: Optional[SchedulerLimits] = None, **kwargs) -> ServingSystem:
    return build_static_tp_system(cluster, model, limits=limits, **kwargs)
