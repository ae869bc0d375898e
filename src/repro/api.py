"""High-level public API, built on declarative deployment specs.

The primary entry points take a :class:`~repro.config.DeploymentSpec` -- a
serializable, parse-time-validated description of a deployment -- and turn it
into running simulations:

``build(spec) -> PreparedRun``
    Construct the cluster(s), serving system, and workload trace described by
    the spec, without simulating anything (the CLI's ``--dry-run``).

``run(spec) -> SimulationResult``
    ``build`` followed by a full discrete-event simulation.

The historical keyword helpers -- :func:`quick_serve`,
:func:`build_replicated_system`, :func:`build_system` -- are thin shims that
assemble the equivalent spec and delegate to the same construction path, so
both styles are behaviourally identical (the snapshot gates enforce this
bit-for-bit).  Live, non-serializable objects (a prebuilt
:class:`~repro.hardware.cluster.Cluster`, a router or policy instance, a
``hint=``) travel through ``build``'s keyword overrides rather than the spec.

System, router, autoscaler, admission, and dataset names all resolve through
the plugin registries (:mod:`repro.registry`); registering a plugin makes it
valid everywhere a name is accepted, including config files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.config import (
    ClusterSpec,
    DeploymentSpec,
    ElasticitySpec,
    FailureSpec,
    MetricsSpec,
    RouterSpec,
    SystemSpec,
    WorkloadSpec,
)
from repro.core.cluster_system import ROUTERS, ClusterServingSystem, ReplicaRouter
from repro.core.elasticity import (
    ADMISSIONS,
    AUTOSCALERS,
    AdmissionController,
    AutoscalerPolicy,
)
from repro.hardware.cluster import Cluster, cluster_from_blueprint, paper_cluster, simple_cluster
from repro.models.spec import MODEL_CATALOG, get_model_spec
from repro.sim.engine import Engine, ServingSystem, SimulationResult
from repro.sim.metrics import SLOSpec
from repro.sim.scheduler import SchedulerLimits
from repro.systems import SYSTEMS, default_hint  # noqa: F401  (re-exported API surface)
from repro.workloads.arrivals import RatePhase
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
    """Serving systems that :func:`build_system` can construct."""
    return SYSTEMS.available()


def available_datasets() -> List[str]:
    """Dataset (workload) names available for trace generation."""
    return DATASETS.available()


def available_routers() -> List[str]:
    """Replica routers :func:`build_replicated_system` can construct."""
    return ROUTERS.available()


def available_autoscalers() -> List[str]:
    """Autoscaler policies :func:`build_replicated_system` can construct."""
    return AUTOSCALERS.available()


def available_admission_policies() -> List[str]:
    """Admission controllers :func:`build_replicated_system` can construct."""
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
    spec: SystemSpec,
    cluster: Cluster,
    model_name: str,
    dataset: str,
    limits: Optional[SchedulerLimits] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> ServingSystem:
    """Build one serving system from a :class:`SystemSpec` on a live cluster.

    ``limits`` (a live :class:`SchedulerLimits`) overrides ``spec.limits``;
    ``extra`` keyword arguments override/extend ``spec.options`` -- both are
    the channels the legacy keyword API uses for non-serializable values.
    """
    if limits is None:
        limits = spec.scheduler_limits()
    if spec.prefill_chunk_tokens is not None:
        limits = replace(
            limits or SchedulerLimits(), prefill_chunk_tokens=spec.prefill_chunk_tokens
        )
    model = get_model_spec(model_name)
    kwargs: Dict[str, Any] = dict(spec.options)
    if extra:
        kwargs.update(extra)
    return SYSTEMS.create(spec.name, cluster, model, dataset=dataset, limits=limits, **kwargs)


@dataclass
class PreparedRun:
    """A fully constructed deployment plus its workload, ready to simulate.

    ``build`` returns this so callers can inspect the system (``describe()``),
    validate configs without simulating (the CLI's ``--dry-run``), or reuse
    the construction for custom engines.  The trace is generated lazily on
    first access -- callers that only want the system (the legacy build
    shims) never pay for workload sampling -- and is a pure function of the
    spec's workload, so laziness cannot perturb determinism.
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


def build(
    spec: DeploymentSpec,
    *,
    cluster: Optional[Cluster] = None,
    clusters: Optional[Sequence[Cluster]] = None,
    router: Optional[ReplicaRouter] = None,
    autoscaler: Optional[AutoscalerPolicy] = None,
    admission: Optional[AdmissionController] = None,
    limits: Optional[SchedulerLimits] = None,
    system_kwargs: Optional[Mapping[str, Any]] = None,
    replicate: Optional[bool] = None,
) -> PreparedRun:
    """Materialise a :class:`DeploymentSpec` into a ready-to-run deployment.

    The keyword-only parameters inject live objects that cannot travel in a
    serializable spec: prebuilt cluster pools, router/policy instances, a
    :class:`SchedulerLimits`, or extra system-builder arguments (e.g. a
    Parallelizer ``hint=``).  They take precedence over the corresponding
    spec fields and exist mainly for the legacy keyword shims; config-driven
    callers never need them.  ``replicate=True`` forces a
    :class:`ClusterServingSystem` wrapper even for a single fixed replica
    (``build_replicated_system``'s contract); the default ``None`` wraps
    exactly when the spec calls for it.
    """
    if not isinstance(spec, DeploymentSpec):
        raise TypeError(f"build() takes a DeploymentSpec, got {type(spec).__name__}")
    cs = spec.cluster
    if autoscaler is None and spec.elasticity is not None:
        autoscaler = spec.elasticity.build_autoscaler()
    if admission is None and spec.elasticity is not None:
        admission = spec.elasticity.build_admission()

    num_replicas = cs.replicas
    if clusters is not None:
        if len(clusters) != num_replicas:
            raise ValueError(f"expected {num_replicas} clusters, got {len(clusters)}")
        if cs.replica_kinds is not None:
            raise ValueError("pass clusters or cluster.replica_kinds, not both")
    replicated = replicate if replicate is not None else (
        spec.is_replicated
        or clusters is not None
        or autoscaler is not None
        or admission is not None
    )

    dataset = spec.workload.dataset
    if not replicated:
        pool = cluster if cluster is not None else build_cluster(cs.kind)
        serving: ServingSystem = _instantiate_system(
            spec.system, pool, spec.model, dataset, limits=limits, extra=system_kwargs
        )
    else:
        if clusters is None and cluster is not None:
            # A single-replica elastic run may bring its own cluster: only one
            # replica ever touches it, so there is no sharing hazard.
            if num_replicas > 1:
                raise ValueError(
                    "pass cluster_kind (not a shared cluster) when num_replicas > 1"
                )
            clusters = [cluster]
        replicas = []
        for idx in range(num_replicas):
            if clusters is not None:
                pool = clusters[idx]
            elif cs.replica_kinds is not None:
                pool = build_cluster(cs.replica_kinds[idx])
            else:
                pool = build_cluster(cs.kind)
            replicas.append(
                _instantiate_system(
                    spec.system, pool, spec.model, dataset, limits=limits, extra=system_kwargs
                )
            )
        elasticity = spec.elasticity if spec.elasticity is not None else ElasticitySpec()
        failures = spec.failures if spec.failures is not None else FailureSpec()
        serving = ClusterServingSystem(
            replicas,
            router=router if router is not None else spec.router.build(spec.workload.seed),
            seed=spec.workload.seed,
            autoscaler=autoscaler,
            admission=admission,
            migration=elasticity.migration,
            migration_bandwidth_gbps=elasticity.migration_bandwidth_gbps,
            failure_schedule=failures.build_schedule(num_replicas) if failures.enabled else None,
            failure_recovery_time=failures.recovery_time,
            failure_check_interval=failures.check_interval,
        )

    return PreparedRun(
        spec=spec,
        system=serving,
        slo=spec.slo,
        max_simulated_time=spec.max_simulated_time,
    )


def run(spec: DeploymentSpec, **build_overrides: Any) -> SimulationResult:
    """Build and simulate a :class:`DeploymentSpec` end to end."""
    return build(spec, **build_overrides).run()


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


# ------------------------------------------------------------------ legacy shims
#
# The pre-spec keyword API.  Each helper assembles the equivalent spec (plus
# live-object overrides) and delegates to the shared construction path above,
# so keyword and config-driven deployments can never drift apart.


def _build_from_keywords(
    *,
    system: str,
    model: str,
    num_replicas: int,
    router: "str | ReplicaRouter",
    cluster_kind: str,
    cluster_kinds: Optional[Sequence[str]],
    autoscaler: "str | AutoscalerPolicy | None",
    admission: "str | AdmissionController | None",
    prefill_chunk_tokens: Optional[int],
    migration: bool,
    migration_bandwidth_gbps: float,
    failures: Optional[FailureSpec],
    workload: WorkloadSpec,
    slo: Optional[SLOSpec] = None,
    **build_overrides: Any,
) -> PreparedRun:
    """Assemble the spec the keyword helpers describe and ``build`` it.

    Names go into the spec, which validates them.  Router and policy
    *instances* are live objects, so like ``build_overrides`` they reach
    ``build`` as keyword overrides; an instance policy therefore forces the
    replicated path even though the spec alone would not.
    """
    elasticity = None
    if isinstance(autoscaler, str) or isinstance(admission, str) or migration:
        elasticity = ElasticitySpec(
            autoscaler=autoscaler if isinstance(autoscaler, str) else None,
            admission=admission if isinstance(admission, str) else None,
            migration=migration,
            migration_bandwidth_gbps=migration_bandwidth_gbps,
        )
    spec = DeploymentSpec(
        model=model,
        system=SystemSpec(name=system, prefill_chunk_tokens=prefill_chunk_tokens),
        cluster=ClusterSpec(
            kind=cluster_kind,
            replicas=num_replicas,
            replica_kinds=tuple(cluster_kinds) if cluster_kinds is not None else None,
        ),
        router=RouterSpec() if isinstance(router, ReplicaRouter) else RouterSpec(name=router),
        elasticity=elasticity,
        slo=slo,
        workload=workload,
        failures=failures,
    )
    return build(
        spec,
        router=router if isinstance(router, ReplicaRouter) else None,
        autoscaler=autoscaler if isinstance(autoscaler, AutoscalerPolicy) else None,
        admission=admission if isinstance(admission, AdmissionController) else None,
        **build_overrides,
    )


def build_system(
    system: str,
    cluster: Cluster,
    model_name: str,
    dataset: str = "sharegpt",
    limits: Optional[SchedulerLimits] = None,
    prefill_chunk_tokens: Optional[int] = None,
    **kwargs: Any,
) -> ServingSystem:
    """Build a named serving system (``hetis``, ``hexgen``, ``splitwise``, ``static-tp``).

    ``prefill_chunk_tokens`` opts the system's schedulers into chunked prefill
    (see :class:`~repro.sim.scheduler.SchedulerLimits`); the default ``None``
    keeps the legacy monolithic-prefill execution model bit-for-bit.
    """
    spec = SystemSpec(name=system, prefill_chunk_tokens=prefill_chunk_tokens)
    return _instantiate_system(spec, cluster, model_name, dataset, limits=limits, extra=kwargs)


def build_replicated_system(
    system: str,
    model_name: str,
    num_replicas: int,
    router: "str | ReplicaRouter" = "round-robin",
    cluster_kind: str = "paper",
    clusters: Optional[Sequence[Cluster]] = None,
    cluster_kinds: Optional[Sequence[str]] = None,
    dataset: str = "sharegpt",
    limits: Optional[SchedulerLimits] = None,
    seed: int = 0,
    autoscaler: "str | AutoscalerPolicy | None" = None,
    admission: "str | AdmissionController | None" = None,
    prefill_chunk_tokens: Optional[int] = None,
    migration: bool = False,
    migration_bandwidth_gbps: float = 100.0,
    failures: Optional[FailureSpec] = None,
    **kwargs: Any,
) -> ClusterServingSystem:
    """Build ``num_replicas`` copies of a serving system behind a router.

    Each replica gets its own hardware pool: one entry of ``clusters``, or a
    cluster built from the matching entry of ``cluster_kinds`` (per-replica
    blueprint specs -- heterogeneous mixes like ``["a100:2", "t4:4"]``), or a
    fresh ``cluster_kind`` cluster per replica.  Device objects are mutable
    simulation state and must never be shared between replicas.

    ``autoscaler`` / ``admission`` enable elasticity (see
    :class:`~repro.core.cluster_system.ClusterServingSystem`); both default to
    off, which preserves the fixed-capacity, admit-everything behaviour
    bit-for-bit.  ``migration`` opts drained/failed replicas into KV-aware
    live migration of queued work (priced at ``migration_bandwidth_gbps``);
    ``failures`` injects a deterministic spot-churn schedule (a
    :class:`~repro.config.FailureSpec`).
    """
    prepared = _build_from_keywords(
        system=system, model=model_name, num_replicas=num_replicas, router=router,
        # With prebuilt clusters the kind is never used to build anything;
        # default it so an unrelated caller-side kind cannot fail validation.
        cluster_kind=cluster_kind if clusters is None else "paper",
        cluster_kinds=cluster_kinds, autoscaler=autoscaler, admission=admission,
        prefill_chunk_tokens=prefill_chunk_tokens, migration=migration,
        migration_bandwidth_gbps=migration_bandwidth_gbps, failures=failures,
        workload=WorkloadSpec(dataset=dataset, seed=seed),
        clusters=clusters, limits=limits, system_kwargs=kwargs or None,
        # This helper's contract is a ClusterServingSystem even for one fixed
        # replica; without forcing, a 1-replica non-elastic spec would build
        # the bare system.
        replicate=True,
    )
    assert isinstance(prepared.system, ClusterServingSystem)
    return prepared.system


def quick_serve(
    model: str = "llama-13b",
    system: str = "hetis",
    dataset: str = "sharegpt",
    request_rate: float = 5.0,
    num_requests: int = 64,
    cluster: Optional[Cluster] = None,
    cluster_kind: str = "paper",
    seed: int = 0,
    phases: Optional[Sequence[RatePhase]] = None,
    num_replicas: int = 1,
    router: "str | ReplicaRouter" = "round-robin",
    cluster_kinds: Optional[Sequence[str]] = None,
    autoscaler: "str | AutoscalerPolicy | None" = None,
    admission: "str | AdmissionController | None" = None,
    slo: Optional[SLOSpec] = None,
    prefill_chunk_tokens: Optional[int] = None,
    limits: Optional[SchedulerLimits] = None,
    migration: bool = False,
    migration_bandwidth_gbps: float = 100.0,
    failures: Optional[FailureSpec] = None,
    **system_kwargs: Any,
) -> SimulationResult:
    """One-call end-to-end simulation: build cluster + system + trace, then run.

    ``num_replicas > 1`` simulates a data-parallel scale-out: that many
    independent copies of the deployment behind the chosen replica ``router``
    -- each on its own ``cluster_kind`` pool, or on per-replica blueprints
    when ``cluster_kinds`` is given (heterogeneous mixes).  ``autoscaler`` and
    ``admission`` opt the cluster into elastic serving; ``slo`` sets the
    TTFT/TPOT objectives the SLO-attainment/goodput metrics are scored
    against (default: the loose interactive-chat bounds).

    Equivalent to ``run(DeploymentSpec(...))`` -- this helper just assembles
    the spec from keywords.  Returns the
    :class:`~repro.sim.engine.SimulationResult`, whose ``summary`` carries
    normalized latency, TTFT/TPOT percentiles, throughput, and the
    SLO-attainment/goodput block.
    """
    return _build_from_keywords(
        system=system, model=model, num_replicas=num_replicas, router=router,
        cluster_kind=cluster_kind, cluster_kinds=cluster_kinds,
        autoscaler=autoscaler, admission=admission,
        prefill_chunk_tokens=prefill_chunk_tokens, migration=migration,
        migration_bandwidth_gbps=migration_bandwidth_gbps, failures=failures,
        workload=WorkloadSpec(
            dataset=dataset,
            request_rate=request_rate,
            num_requests=num_requests,
            seed=seed,
            phases=tuple(phases) if phases is not None else None,
        ),
        slo=slo, cluster=cluster, limits=limits, system_kwargs=system_kwargs or None,
    ).run()
