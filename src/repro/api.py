"""High-level public API, built on declarative deployment specs.

Every deployment is a :class:`~repro.config.DeploymentSpec` -- a
serializable, parse-time-validated description of one system, model,
cluster, and workload -- and these entry points turn it into a simulation:

``build(spec) -> PreparedRun``
    Construct the cluster(s), serving system, and workload trace described by
    the spec, without simulating anything (the CLI's ``--dry-run``).

``run(spec) -> SimulationResult``
    ``build`` followed by a full discrete-event simulation.

``run_system(system, trace)``
    Simulate an already built system against any trace, e.g.
    ``build(spec).system`` against a hand-made one.

A spec holds names and plain values only.  Builder arguments go under
``system.options`` (``{"system.options.theta": 0.3}``), scheduler limits
under ``system.limits``, and router and policy arguments under
``router.options`` and ``elasticity.*_options``.

System, router, autoscaler, admission, and dataset names all resolve through
the plugin registries (:mod:`repro.registry`); registering a plugin makes it
valid everywhere a name is accepted, including config files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import DeploymentSpec, ElasticitySpec, FailureSpec, MetricsSpec, SystemSpec
from repro.core.cluster_system import ROUTERS, ClusterServingSystem
from repro.core.elasticity import ADMISSIONS, AUTOSCALERS
from repro.hardware.cluster import Cluster, cluster_from_blueprint, paper_cluster, simple_cluster
from repro.models.spec import MODEL_CATALOG, get_model_spec
from repro.sim.engine import Engine, ServingSystem, SimulationResult
from repro.sim.metrics import SLOSpec
from repro.systems import SYSTEMS, default_hint  # noqa: F401  (re-exported API surface)
from repro.workloads.datasets import DATASETS
from repro.workloads.trace import (
    StreamingTrace,
    Trace,
    generate_trace,
    generate_trace_stream,
)


def available_models() -> List[str]:
    """Model names available in the catalog."""
    return sorted(MODEL_CATALOG)


def available_systems() -> List[str]:
    """Serving-system names a spec's ``system.name`` accepts."""
    return SYSTEMS.available()


def available_datasets() -> List[str]:
    """Dataset (workload) names available for trace generation."""
    return DATASETS.available()


def available_routers() -> List[str]:
    """Replica-router names a spec's ``router.name`` accepts."""
    return ROUTERS.available()


def available_autoscalers() -> List[str]:
    """Autoscaler names a spec's ``elasticity.autoscaler`` accepts."""
    return AUTOSCALERS.available()


def available_admission_policies() -> List[str]:
    """Admission-controller names a spec's ``elasticity.admission`` accepts."""
    return ADMISSIONS.available()


def build_cluster(kind: str = "paper") -> Cluster:
    """Construct a cluster from a named topology or an inline blueprint spec.

    ``"paper"`` is the evaluation testbed (4x A100, 4x 3090 across two hosts,
    4x P100); ``"small"`` is a compact 1x A100 + 2x 3090 cluster handy for
    tests and the Fig.-14 study.  Any other value is parsed as an inline
    blueprint: comma-separated ``type:count`` hosts, e.g. ``"a100:4"`` (one
    4-GPU A100 host) or ``"a100:2,t4:4"`` (an A100 host plus a T4 host) --
    the per-replica blueprint syntax for heterogeneous replica mixes.
    Malformed blueprints fail with an error naming the offending host entry.
    """
    if kind == "paper":
        return paper_cluster()
    if kind == "small":
        return simple_cluster("a100", "rtx3090", n_high=1, n_low=2)
    if ":" in kind:
        return cluster_from_blueprint(kind)
    raise ValueError(
        f"unknown cluster kind {kind!r}; use 'paper', 'small', or a blueprint "
        "spec like 'a100:2,t4:4'"
    )


def _instantiate_system(
    spec: SystemSpec, cluster: Cluster, model_name: str, dataset: str
) -> ServingSystem:
    """Build one serving system from a :class:`SystemSpec` on a live cluster."""
    return SYSTEMS.create(
        spec.name,
        cluster,
        get_model_spec(model_name),
        dataset=dataset,
        limits=spec.scheduler_limits(),
        **spec.options,
    )


@dataclass
class PreparedRun:
    """A fully constructed deployment plus its workload, ready to simulate.

    ``build`` returns this so callers can inspect the system (``describe()``),
    validate configs without simulating (the CLI's ``--dry-run``), or reuse
    the system with its own trace through :func:`run_system`.  The trace is
    generated lazily on first access -- callers that only want the system
    never pay for workload sampling -- and is a pure function of the spec's
    workload, so laziness cannot perturb determinism.
    """

    spec: DeploymentSpec
    system: ServingSystem
    slo: Optional[SLOSpec] = None
    max_simulated_time: float = 24 * 3600.0
    _trace: "Optional[Trace | StreamingTrace]" = None

    @property
    def trace(self) -> "Trace | StreamingTrace":
        if self._trace is None:
            wl = self.spec.workload
            if wl.streaming:
                self._trace = generate_trace_stream(
                    wl.dataset,
                    wl.request_rate,
                    wl.num_requests,
                    seed=wl.seed,
                    phases=wl.phases,
                )
            else:
                self._trace = generate_trace(
                    wl.dataset,
                    wl.request_rate,
                    wl.num_requests,
                    seed=wl.seed,
                    phases=wl.phases,
                )
        return self._trace

    def describe(self) -> str:
        return self.system.describe()

    def run(self) -> SimulationResult:
        """Simulate the prepared deployment against its trace."""
        return run_system(
            self.system,
            self.trace,
            max_simulated_time=self.max_simulated_time,
            slo=self.slo,
            metrics=self.spec.metrics,
        )


def build(spec: DeploymentSpec) -> PreparedRun:
    """Materialise a :class:`DeploymentSpec` into a ready-to-run deployment.

    A spec with one fixed replica builds the bare serving system.  One that
    asks for replicas, elasticity or failures
    (:attr:`~repro.config.DeploymentSpec.is_replicated`) builds one system per
    replica, each on its own freshly built cluster, behind a
    :class:`~repro.core.cluster_system.ClusterServingSystem`.
    """
    if not isinstance(spec, DeploymentSpec):
        raise TypeError(f"build() takes a DeploymentSpec, got {type(spec).__name__}")
    cs = spec.cluster
    dataset = spec.workload.dataset
    if not spec.is_replicated:
        serving: ServingSystem = _instantiate_system(
            spec.system, build_cluster(cs.kind), spec.model, dataset
        )
    else:
        elasticity = spec.elasticity if spec.elasticity is not None else ElasticitySpec()
        failures = spec.failures if spec.failures is not None else FailureSpec()
        autoscaler = elasticity.build_autoscaler()
        admission = elasticity.build_admission()
        kinds = cs.replica_kinds if cs.replica_kinds is not None else (cs.kind,) * cs.replicas
        replicas = [
            _instantiate_system(spec.system, build_cluster(kind), spec.model, dataset)
            for kind in kinds
        ]
        serving = ClusterServingSystem(
            replicas,
            router=spec.router.build(spec.workload.seed),
            seed=spec.workload.seed,
            autoscaler=autoscaler,
            admission=admission,
            migration=elasticity.migration,
            migration_bandwidth_gbps=elasticity.migration_bandwidth_gbps,
            failure_schedule=failures.build_schedule(cs.replicas) if failures.enabled else None,
            failure_recovery_time=failures.recovery_time,
            failure_check_interval=failures.check_interval,
        )

    return PreparedRun(
        spec=spec,
        system=serving,
        slo=spec.slo,
        max_simulated_time=spec.max_simulated_time,
    )


def run(spec: DeploymentSpec) -> SimulationResult:
    """Build and simulate a :class:`DeploymentSpec` end to end."""
    return build(spec).run()


def run_system(
    system: ServingSystem,
    trace: "Trace | StreamingTrace",
    max_simulated_time: float = 24 * 3600.0,
    slo: Optional[SLOSpec] = None,
    metrics: Optional[MetricsSpec] = None,
) -> SimulationResult:
    """Run a prepared system against a prepared (possibly streaming) trace.

    ``metrics`` opts the run into a non-default collection mode (e.g.
    ``MetricsSpec(mode="bounded")`` for flat-memory aggregation over large
    traces); ``None`` keeps the exact default.
    """
    engine = Engine(
        system,
        max_simulated_time=max_simulated_time,
        slo=slo,
        collector=metrics.build_collector(slo) if metrics is not None else None,
        recorder=metrics.build_recorder() if metrics is not None else None,
    )
    return engine.run(trace)
