"""Declarative, serializable deployment specs.

This module is the single description language for everything the simulator
can run.  A :class:`DeploymentSpec` captures a complete deployment -- model,
serving system, cluster shape (including replicated and heterogeneous
fleets), replica router, elasticity policies, latency SLOs, and the workload
-- as a tree of frozen dataclasses that

* validate at *parse time* with actionable, field-pointing errors (rather
  than deep inside the builders),
* round-trip losslessly through plain dicts (``to_dict`` / ``from_dict``) and
  therefore through JSON and TOML files (:meth:`DeploymentSpec.load` /
  :meth:`DeploymentSpec.save`), and
* support dotted-path overrides (:meth:`DeploymentSpec.with_overrides`),
  which is what the CLI sweep runner expands grids with.

Every name-valued field (system, router, dataset, autoscaler, admission
policy) is checked against the corresponding plugin registry, so a registered
third-party plugin is automatically a valid spec value.

Example
-------
>>> from repro.config import DeploymentSpec, WorkloadSpec, ClusterSpec
>>> spec = DeploymentSpec(
...     model="llama-13b",
...     cluster=ClusterSpec(kind="small", replicas=2),
...     workload=WorkloadSpec(dataset="sharegpt", request_rate=8.0, num_requests=32),
... )
>>> DeploymentSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.cluster_system import ROUTERS
from repro.core.elasticity import (
    ADMISSIONS,
    AUTOSCALERS,
    AdmissionController,
    AutoscalerPolicy,
)
from repro.hardware.cluster import parse_blueprint
from repro.models.spec import MODEL_CATALOG
from repro.registry import Registry
from repro.sim.metrics import MetricsCollector, SLOSpec
from repro.sim.recorder import TimeSeriesRecorder
from repro.sim.scheduler import SchedulerLimits
from repro.systems import SYSTEMS
from repro.utils.rng import make_rng
from repro.workloads.arrivals import RatePhase
from repro.workloads.datasets import DATASETS

#: Named cluster topologies understood by :func:`repro.api.build_cluster`;
#: anything else must parse as an inline ``type:count,...`` blueprint.
NAMED_CLUSTERS = ("paper", "small")


class ConfigError(ValueError):
    """A deployment spec failed validation; the message names the field."""


def load_config_mapping(path: "str | Path") -> Dict[str, Any]:
    """Read a ``.json`` or ``.toml`` file into a plain mapping.

    Shared by :meth:`DeploymentSpec.load` and the experiment driver
    (:mod:`repro.experiments.driver`), so both config flavours parse files --
    and report malformed ones -- identically.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {str(path)!r} does not exist")
    suffix = path.suffix.lower()
    if suffix == ".json":
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    elif suffix == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError:  # pragma: no cover - Python < 3.11
            try:
                import tomli as tomllib  # type: ignore[no-redef]
            except ModuleNotFoundError:
                raise ConfigError(
                    f"{path}: TOML configs need Python 3.11+ (tomllib) or "
                    "the 'tomli' package; rewrite the config as JSON instead"
                ) from None
        try:
            data = tomllib.loads(path.read_text())
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"{path}: invalid TOML ({exc})") from None
    else:
        raise ConfigError(
            f"config file {str(path)!r} has unsupported extension "
            f"{suffix or '(none)'!r}; use .json or .toml"
        )
    if not isinstance(data, Mapping):
        raise ConfigError(f"{path}: top level must be a mapping, got {type(data).__name__}")
    return dict(data)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_name(registry: "Registry[Any]", name: str, where: str) -> str:
    """Resolve ``name`` in ``registry``, re-pointing the error at ``where``."""
    try:
        return registry.resolve(name)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _check_mapping(value: "Mapping[str, Any] | None", where: str) -> Dict[str, Any]:
    _check(
        value is None or isinstance(value, Mapping),
        f"{where} must be a mapping of keyword arguments, got {type(value).__name__}",
    )
    return dict(value) if value else {}


def _known_keys(cls) -> List[str]:
    return [f.name for f in fields(cls)]


def _reject_unknown_keys(cls, data: Mapping, where: str) -> None:
    unknown = sorted(set(data) - set(_known_keys(cls)))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(repr(k) for k in unknown)} in {where}; "
            f"expected: {', '.join(_known_keys(cls))}"
        )


def _validate_cluster_kind(kind: str, where: str) -> None:
    _check(isinstance(kind, str) and bool(kind), f"{where} must be a non-empty string")
    if kind in NAMED_CLUSTERS:
        return
    if ":" in kind:
        try:
            parse_blueprint(kind)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        return
    raise ConfigError(
        f"{where}: unknown cluster kind {kind!r}; use "
        f"{', '.join(repr(n) for n in NAMED_CLUSTERS)}, or an inline blueprint "
        "like 'a100:2,t4:4'"
    )


# ------------------------------------------------------------- execution spec


@dataclass(frozen=True)
class ExecutionSpec:
    """How experiment points *execute*, as distinct from what they simulate.

    An optional top-level ``[execution]`` table in sweep / experiment /
    planner configs (and ``--timeout`` / ``--retries`` / ``--resume`` on the
    CLI) configures the fault-tolerance layer of
    :class:`~repro.experiments.runner.SweepRunner`:

    ``task_timeout``
        Wall-clock bound in seconds per point; a point that exceeds it is
        booked as an ``error_kind="timeout"`` result instead of hanging the
        sweep.
    ``max_retries``
        How many times a crashed / timed-out point is re-submitted before its
        failure is final.  Retries re-send the identical payload, so a retry
        that succeeds produces the same row a clean run would have.
    ``backoff_base``
        Base of the deterministic exponential backoff between retries of the
        same point (``backoff_base * 2**(failures-1)`` seconds; no jitter, so
        reruns schedule identically).
    ``journal``
        Path of an append-only JSONL run journal recording every completed and
        errored point; re-running with the same journal resumes instead of
        recomputing.

    Deliberately *not* part of :class:`DeploymentSpec`: execution knobs never
    change what a point computes, so they must not perturb spec hashes (cache
    keys and journal keys stay stable whatever the timeout settings are).
    """

    task_timeout: Optional[float] = None
    max_retries: int = 0
    backoff_base: float = 0.5
    journal: Optional[str] = None

    def __post_init__(self) -> None:
        if self.task_timeout is not None:
            _check(
                isinstance(self.task_timeout, (int, float))
                and not isinstance(self.task_timeout, bool)
                and float(self.task_timeout) > 0.0,
                f"execution.task_timeout must be a number > 0 or null, "
                f"got {self.task_timeout!r}",
            )
            object.__setattr__(self, "task_timeout", float(self.task_timeout))
        _check(
            isinstance(self.max_retries, int)
            and not isinstance(self.max_retries, bool)
            and self.max_retries >= 0,
            f"execution.max_retries must be an integer >= 0, got {self.max_retries!r}",
        )
        _check(
            isinstance(self.backoff_base, (int, float))
            and not isinstance(self.backoff_base, bool)
            and float(self.backoff_base) >= 0.0,
            f"execution.backoff_base must be a number >= 0, got {self.backoff_base!r}",
        )
        object.__setattr__(self, "backoff_base", float(self.backoff_base))
        if self.journal is not None:
            _check(
                isinstance(self.journal, str) and bool(self.journal),
                f"execution.journal must be a non-empty path or null, got {self.journal!r}",
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "task_timeout": self.task_timeout,
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
            "journal": self.journal,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionSpec":
        _check(
            isinstance(data, Mapping),
            f"execution spec must be a mapping, got {type(data).__name__}",
        )
        _reject_unknown_keys(cls, data, "[execution]")
        return cls(
            task_timeout=data.get("task_timeout"),
            max_retries=data.get("max_retries", 0),
            backoff_base=data.get("backoff_base", 0.5),
            journal=data.get("journal"),
        )

    def runner_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for :class:`~repro.experiments.runner.SweepRunner`."""
        return {
            "task_timeout": self.task_timeout,
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
            "journal": self.journal,
        }


def extract_execution(
    data: Dict[str, Any], where: str = "config"
) -> Optional[ExecutionSpec]:
    """Pop and parse an optional top-level ``execution`` section in place.

    Config loaders call this *before* handing ``data`` to a spec ``from_dict``
    whose unknown-key validation would otherwise reject the section.
    """
    raw = data.pop("execution", None)
    if raw is None:
        return None
    if isinstance(raw, ExecutionSpec):
        return raw
    if not isinstance(raw, Mapping):
        raise ConfigError(
            f"{where}: execution must be a mapping, got {type(raw).__name__}"
        )
    return ExecutionSpec.from_dict(raw)


# ------------------------------------------------------------------ leaf specs


@dataclass(frozen=True)
class ClusterSpec:
    """Hardware shape of the deployment.

    ``kind`` is a named topology (``"paper"``, ``"small"``) or an inline
    ``type:count,...`` blueprint; ``replicas`` scales the deployment
    data-parallel (each replica on its own pool); ``replica_kinds`` gives one
    blueprint per replica for heterogeneous fleets (and implies the replica
    count when ``replicas`` is left at 1).
    """

    kind: str = "paper"
    replicas: int = 1
    replica_kinds: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        _check(
            isinstance(self.replicas, int) and not isinstance(self.replicas, bool)
            and self.replicas >= 1,
            f"cluster.replicas must be an integer >= 1, got {self.replicas!r}",
        )
        _validate_cluster_kind(self.kind, "cluster.kind")
        if self.replica_kinds is not None:
            kinds = tuple(self.replica_kinds)
            _check(len(kinds) > 0, "cluster.replica_kinds must not be empty")
            for idx, kind in enumerate(kinds):
                _validate_cluster_kind(kind, f"cluster.replica_kinds[{idx}]")
            object.__setattr__(self, "replica_kinds", kinds)
            if self.replicas == 1:
                object.__setattr__(self, "replicas", len(kinds))
            _check(
                self.replicas == len(kinds),
                f"cluster.replica_kinds has {len(kinds)} entries but "
                f"cluster.replicas is {self.replicas}; expected one of the "
                "cluster kinds per replica",
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "replicas": self.replicas,
            "replica_kinds": list(self.replica_kinds) if self.replica_kinds else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ClusterSpec":
        _reject_unknown_keys(cls, data, "cluster spec")
        kinds = data.get("replica_kinds")
        return cls(
            kind=data.get("kind", "paper"),
            replicas=data.get("replicas", 1),
            # `is not None` (not truthiness): an explicit [] must reach the
            # must-not-be-empty validation, not silently mean "unset".
            replica_kinds=tuple(kinds) if kinds is not None else None,
        )


@dataclass(frozen=True)
class SystemSpec:
    """Which serving system to build, and its scheduler knobs.

    ``limits`` overrides individual :class:`~repro.sim.scheduler.SchedulerLimits`
    fields; ``prefill_chunk_tokens`` opts into chunked prefill (``None`` keeps
    the legacy monolithic-prefill path bit-for-bit); ``options`` is forwarded
    to the system builder as extra keyword arguments (serializable ones only
    -- live objects travel through the legacy keyword API instead).
    """

    name: str = "hetis"
    prefill_chunk_tokens: Optional[int] = None
    limits: Optional[Mapping[str, Any]] = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check(isinstance(self.name, str) and bool(self.name), "system.name must be a non-empty string")
        object.__setattr__(
            self, "name", _check_name(SYSTEMS, self.name.lower(), "system.name")
        )
        if self.prefill_chunk_tokens is not None:
            _check(
                isinstance(self.prefill_chunk_tokens, int) and self.prefill_chunk_tokens > 0,
                "system.prefill_chunk_tokens must be a positive integer or null, "
                f"got {self.prefill_chunk_tokens!r}",
            )
        limits = self.limits
        if limits is not None:
            limits = _check_mapping(limits, "system.limits")
            known = {f.name for f in fields(SchedulerLimits)}
            unknown = sorted(set(limits) - known)
            _check(
                not unknown,
                f"system.limits has unknown field(s) {', '.join(map(repr, unknown))}; "
                f"SchedulerLimits fields are: {', '.join(sorted(known))}",
            )
            try:
                SchedulerLimits(**limits)
            except ValueError as exc:
                raise ConfigError(f"system.limits: {exc}") from None
            object.__setattr__(self, "limits", limits)
        object.__setattr__(self, "options", _check_mapping(self.options, "system.options"))

    def scheduler_limits(self) -> Optional[SchedulerLimits]:
        """Materialise the limits override (``None`` when nothing is set)."""
        if self.limits is None:
            return None
        return SchedulerLimits(**self.limits)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "prefill_chunk_tokens": self.prefill_chunk_tokens,
            "limits": dict(self.limits) if self.limits is not None else None,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SystemSpec":
        _reject_unknown_keys(cls, data, "system spec")
        return cls(
            name=data.get("name", "hetis"),
            prefill_chunk_tokens=data.get("prefill_chunk_tokens"),
            limits=data.get("limits"),
            options=data.get("options") or {},
        )


@dataclass(frozen=True)
class RouterSpec:
    """Replica router for replicated deployments.

    ``options`` is forwarded to the router factory after the run seed; the
    built-in routers take no options, but registered third-party factories
    may.  Ignored (with the default name) for single-replica deployments.
    """

    name: str = "round-robin"
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check(isinstance(self.name, str) and bool(self.name), "router.name must be a non-empty string")
        object.__setattr__(self, "name", _check_name(ROUTERS, self.name, "router.name"))
        object.__setattr__(self, "options", _check_mapping(self.options, "router.options"))

    def build(self, seed: int = 0) -> Any:
        """Instantiate the router (fresh state each call)."""
        factory = ROUTERS.require(self.name)
        if self.options:
            return factory(seed, **self.options)
        return factory(seed)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "RouterSpec":
        _reject_unknown_keys(cls, data, "router spec")
        return cls(name=data.get("name", "round-robin"), options=data.get("options") or {})


@dataclass(frozen=True)
class ElasticitySpec:
    """Elastic-serving control plane: autoscaler and/or admission control.

    Either half may be ``None`` (off).  ``*_options`` are the keyword
    arguments of the corresponding policy constructor (e.g.
    ``{"interval": 2.0, "target_utilization": 0.5}`` for ``target-kv``);
    they are validated eagerly by constructing a throwaway policy, so a typo
    fails at parse time with the policy's own error message.

    ``migration=True`` turns on KV-aware live migration: a draining or failed
    replica's queued/preempted requests move to surviving replicas, each move
    priced at ``kv_bytes_per_token x context`` over a
    ``migration_bandwidth_gbps`` link (see
    :class:`repro.kvcache.migration.ReplicaMigrationPlanner`).
    """

    autoscaler: Optional[str] = None
    autoscaler_options: Mapping[str, Any] = field(default_factory=dict)
    admission: Optional[str] = None
    admission_options: Mapping[str, Any] = field(default_factory=dict)
    migration: bool = False
    migration_bandwidth_gbps: float = 100.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "autoscaler_options",
            _check_mapping(self.autoscaler_options, "elasticity.autoscaler_options"),
        )
        object.__setattr__(
            self, "admission_options",
            _check_mapping(self.admission_options, "elasticity.admission_options"),
        )
        if self.autoscaler is not None:
            object.__setattr__(
                self, "autoscaler",
                _check_name(AUTOSCALERS, self.autoscaler, "elasticity.autoscaler"),
            )
        else:
            _check(
                not self.autoscaler_options,
                "elasticity.autoscaler_options given without elasticity.autoscaler",
            )
        if self.admission is not None:
            object.__setattr__(
                self, "admission",
                _check_name(ADMISSIONS, self.admission, "elasticity.admission"),
            )
        else:
            _check(
                not self.admission_options,
                "elasticity.admission_options given without elasticity.admission",
            )
        # Validate the option values by constructing throwaway policies now:
        # a bad interval/threshold should point at the spec, not the builder.
        try:
            self.build_autoscaler()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"elasticity.autoscaler_options: {exc}") from None
        try:
            self.build_admission()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"elasticity.admission_options: {exc}") from None
        _check(
            isinstance(self.migration, bool),
            f"elasticity.migration must be a boolean, got {self.migration!r}",
        )
        _check(
            isinstance(self.migration_bandwidth_gbps, (int, float))
            and not isinstance(self.migration_bandwidth_gbps, bool)
            and self.migration_bandwidth_gbps > 0,
            "elasticity.migration_bandwidth_gbps must be > 0, "
            f"got {self.migration_bandwidth_gbps!r}",
        )
        object.__setattr__(
            self, "migration_bandwidth_gbps", float(self.migration_bandwidth_gbps)
        )

    @property
    def enabled(self) -> bool:
        return self.autoscaler is not None or self.admission is not None or self.migration

    def build_autoscaler(self) -> Optional[AutoscalerPolicy]:
        if self.autoscaler is None:
            return None
        return AUTOSCALERS.create(self.autoscaler, **self.autoscaler_options)

    def build_admission(self) -> Optional[AdmissionController]:
        if self.admission is None:
            return None
        return ADMISSIONS.create(self.admission, **self.admission_options)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "autoscaler": self.autoscaler,
            "autoscaler_options": dict(self.autoscaler_options),
            "admission": self.admission,
            "admission_options": dict(self.admission_options),
            "migration": self.migration,
            "migration_bandwidth_gbps": self.migration_bandwidth_gbps,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ElasticitySpec":
        _reject_unknown_keys(cls, data, "elasticity spec")
        return cls(
            autoscaler=data.get("autoscaler"),
            autoscaler_options=data.get("autoscaler_options") or {},
            admission=data.get("admission"),
            admission_options=data.get("admission_options") or {},
            migration=data.get("migration", False),
            migration_bandwidth_gbps=data.get("migration_bandwidth_gbps", 100.0),
        )


@dataclass(frozen=True)
class FailureSpec:
    """Deterministic spot-churn schedule for replicated deployments.

    Two (combinable) sources of failures, both deterministic:

    * ``events``: explicit ``(time, replica_index)`` pairs, e.g.
      ``events = [[20.0, 0], [45.0, 2]]`` in TOML/JSON;
    * ``rate`` + ``num_failures``: ``num_failures`` Poisson-spaced failures at
      ``rate`` failures/second across the fleet, with uniformly chosen victim
      replicas -- generated once at build time from ``seed``, so the same
      seed always yields the same churn.

    A failed replica's running work is preempted (KV dropped,
    recompute-on-restart) and the replica leaves the routable set for
    ``recovery_time`` seconds.  Whether its queued work migrates to surviving
    replicas or rides out the outage in place is the deployment's
    ``elasticity.migration`` toggle.  ``check_interval`` is the control-tick
    period used when no autoscaler is configured (failures fire on control
    ticks).
    """

    events: Tuple[Tuple[float, int], ...] = ()
    rate: float = 0.0
    num_failures: int = 0
    seed: int = 0
    recovery_time: float = 30.0
    check_interval: float = 1.0

    def __post_init__(self) -> None:
        normalized: List[Tuple[float, int]] = []
        _check(
            isinstance(self.events, (list, tuple)),
            f"failures.events must be a list of [time, replica] pairs, got {self.events!r}",
        )
        for entry in self.events:
            if isinstance(entry, Mapping):
                _check(
                    set(entry) <= {"time", "replica"},
                    f"failures.events entries take 'time' and 'replica', got {sorted(entry)}",
                )
                time, replica = entry.get("time"), entry.get("replica")
            else:
                _check(
                    isinstance(entry, (list, tuple)) and len(entry) == 2,
                    f"failures.events entries must be [time, replica] pairs, got {entry!r}",
                )
                time, replica = entry
            _check(
                isinstance(time, (int, float))
                and not isinstance(time, bool)
                and time >= 0,
                f"failures.events: time must be >= 0, got {time!r}",
            )
            _check(
                isinstance(replica, int)
                and not isinstance(replica, bool)
                and replica >= 0,
                f"failures.events: replica must be an integer >= 0, got {replica!r}",
            )
            normalized.append((float(time), replica))
        object.__setattr__(self, "events", tuple(normalized))
        _check(
            isinstance(self.rate, (int, float))
            and not isinstance(self.rate, bool)
            and self.rate >= 0,
            f"failures.rate must be >= 0, got {self.rate!r}",
        )
        object.__setattr__(self, "rate", float(self.rate))
        _check(
            isinstance(self.num_failures, int)
            and not isinstance(self.num_failures, bool)
            and self.num_failures >= 0,
            f"failures.num_failures must be an integer >= 0, got {self.num_failures!r}",
        )
        _check(
            not (self.rate > 0) or self.num_failures > 0,
            "failures.rate > 0 requires failures.num_failures > 0 "
            "(the generated schedule must be finite)",
        )
        _check(
            not (self.num_failures > 0) or self.rate > 0,
            "failures.num_failures > 0 requires failures.rate > 0 "
            "(a zero rate generates no failures)",
        )
        _check(
            isinstance(self.seed, int) and not isinstance(self.seed, bool),
            f"failures.seed must be an integer, got {self.seed!r}",
        )
        _check(
            isinstance(self.recovery_time, (int, float))
            and not isinstance(self.recovery_time, bool)
            and self.recovery_time >= 0,
            f"failures.recovery_time must be >= 0, got {self.recovery_time!r}",
        )
        object.__setattr__(self, "recovery_time", float(self.recovery_time))
        _check(
            isinstance(self.check_interval, (int, float))
            and not isinstance(self.check_interval, bool)
            and self.check_interval > 0,
            f"failures.check_interval must be > 0, got {self.check_interval!r}",
        )
        object.__setattr__(self, "check_interval", float(self.check_interval))

    @property
    def enabled(self) -> bool:
        return bool(self.events) or (self.rate > 0 and self.num_failures > 0)

    def build_schedule(self, num_replicas: int) -> List[Tuple[float, int]]:
        """Materialize the failure schedule against a concrete fleet size.

        Explicit events are validated against ``num_replicas``; generated
        events draw Poisson inter-arrival gaps and uniform victim replicas
        from a generator seeded with ``seed`` (bit-reproducible).  The merged
        schedule is sorted by time, ties by replica index.
        """
        _check(num_replicas >= 1, "failure schedule needs at least one replica")
        for time, replica in self.events:
            _check(
                replica < num_replicas,
                f"failures.events targets replica {replica}, but the cluster "
                f"has only {num_replicas} replicas",
            )
        schedule: List[Tuple[float, int]] = list(self.events)
        if self.rate > 0 and self.num_failures > 0:
            rng = make_rng(self.seed)
            t = 0.0
            for _ in range(self.num_failures):
                t += float(rng.exponential(1.0 / self.rate))
                schedule.append((t, int(rng.integers(0, num_replicas))))
        schedule.sort()
        return schedule

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": [[t, r] for t, r in self.events],
            "rate": self.rate,
            "num_failures": self.num_failures,
            "seed": self.seed,
            "recovery_time": self.recovery_time,
            "check_interval": self.check_interval,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FailureSpec":
        _reject_unknown_keys(cls, data, "failures spec")
        return cls(
            events=data.get("events") or (),
            rate=data.get("rate", 0.0),
            num_failures=data.get("num_failures", 0),
            seed=data.get("seed", 0),
            recovery_time=data.get("recovery_time", 30.0),
            check_interval=data.get("check_interval", 1.0),
        )


@dataclass(frozen=True)
class MetricsSpec:
    """How a run collects metrics: exact (default) or bounded-memory.

    ``mode="bounded"`` switches the engine's collector to streaming
    aggregates -- exact counts and means, P95s from a Greenwald-Khanna sketch
    with ``quantile_epsilon`` rank-error bound -- so memory stays flat over
    arbitrarily long traces.  The ``"exact"`` default keeps the historical
    per-request record lists (and bit-identical snapshot output).

    ``max_recorder_samples_per_key`` caps each time-series key in the run's
    :class:`~repro.sim.recorder.TimeSeriesRecorder` (``None`` = unbounded).
    """

    mode: str = "exact"
    quantile_epsilon: float = 0.005
    max_recorder_samples_per_key: Optional[int] = None

    def __post_init__(self) -> None:
        _check(
            self.mode in ("exact", "bounded"),
            f"metrics.mode must be 'exact' or 'bounded', got {self.mode!r}",
        )
        _check(
            isinstance(self.quantile_epsilon, (int, float))
            and 0.0 < self.quantile_epsilon < 0.5,
            f"metrics.quantile_epsilon must be in (0, 0.5), got {self.quantile_epsilon!r}",
        )
        object.__setattr__(self, "quantile_epsilon", float(self.quantile_epsilon))
        if self.max_recorder_samples_per_key is not None:
            _check(
                isinstance(self.max_recorder_samples_per_key, int)
                and not isinstance(self.max_recorder_samples_per_key, bool)
                and self.max_recorder_samples_per_key >= 2,
                "metrics.max_recorder_samples_per_key must be an integer >= 2 or null, "
                f"got {self.max_recorder_samples_per_key!r}",
            )

    @property
    def bounded(self) -> bool:
        return self.mode == "bounded"

    def build_collector(self, slo: Optional[SLOSpec] = None) -> MetricsCollector:
        return MetricsCollector(
            slo=slo,
            bounded_memory=self.bounded,
            quantile_epsilon=self.quantile_epsilon,
        )

    def build_recorder(self) -> TimeSeriesRecorder:
        return TimeSeriesRecorder(max_samples_per_key=self.max_recorder_samples_per_key)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "quantile_epsilon": self.quantile_epsilon,
            "max_recorder_samples_per_key": self.max_recorder_samples_per_key,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsSpec":
        _reject_unknown_keys(cls, data, "metrics spec")
        return cls(
            mode=data.get("mode", "exact"),
            quantile_epsilon=data.get("quantile_epsilon", 0.005),
            max_recorder_samples_per_key=data.get("max_recorder_samples_per_key"),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """The trace to replay: dataset, arrival process, and size.

    With ``phases`` set, arrivals follow the piecewise-constant schedule (the
    diurnal / spike shapes of the elasticity experiments) and ``num_requests``
    caps how many are kept; otherwise arrivals are Poisson at
    ``request_rate``.  ``streaming=True`` generates the trace lazily
    (:func:`~repro.workloads.trace.generate_trace_stream`) so production-scale
    request counts replay in O(chunk) memory; arrival timestamps match the
    materialized path bit-for-bit on the phases path, while request lengths
    are drawn in chunks (statistically identical, not bit-identical).
    """

    dataset: str = "sharegpt"
    request_rate: float = 5.0
    num_requests: int = 64
    seed: int = 0
    phases: Optional[Tuple[RatePhase, ...]] = None
    streaming: bool = False

    def __post_init__(self) -> None:
        _check(
            isinstance(self.streaming, bool),
            f"workload.streaming must be a boolean, got {self.streaming!r}",
        )
        _check(
            not (self.streaming and self.phases is None and self.num_requests <= 0),
            "workload.streaming with Poisson arrivals needs num_requests > 0 "
            "(the arrival process never terminates on its own)",
        )
        _check(isinstance(self.dataset, str) and bool(self.dataset), "workload.dataset must be a non-empty string")
        object.__setattr__(
            self, "dataset", _check_name(DATASETS, self.dataset.lower(), "workload.dataset")
        )
        _check(
            isinstance(self.request_rate, (int, float))
            and (self.request_rate > 0 or self.phases is not None),
            f"workload.request_rate must be > 0, got {self.request_rate!r} "
            "(with phases set, the rate is bookkeeping-only and 0 is allowed)",
        )
        object.__setattr__(self, "request_rate", float(self.request_rate))
        _check(
            isinstance(self.num_requests, int) and not isinstance(self.num_requests, bool)
            and self.num_requests >= 0,
            f"workload.num_requests must be an integer >= 0, got {self.num_requests!r}",
        )
        _check(
            isinstance(self.seed, int) and not isinstance(self.seed, bool) and self.seed >= 0,
            f"workload.seed must be an integer >= 0, got {self.seed!r}",
        )
        if self.phases is not None:
            phases = tuple(self._coerce_phase(p, i) for i, p in enumerate(self.phases))
            _check(len(phases) > 0, "workload.phases must not be empty")
            object.__setattr__(self, "phases", phases)

    @staticmethod
    def _coerce_phase(value: Any, index: int) -> RatePhase:
        if isinstance(value, RatePhase):
            return value
        try:
            if isinstance(value, Mapping):
                return RatePhase(rate=float(value["rate"]), duration=float(value["duration"]))
            rate, duration = value
            return RatePhase(rate=float(rate), duration=float(duration))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"workload.phases[{index}] must be a {{rate, duration}} pair, "
                f"got {value!r} ({exc})"
            ) from None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dataset": self.dataset,
            "request_rate": self.request_rate,
            "num_requests": self.num_requests,
            "seed": self.seed,
            "phases": (
                [{"rate": p.rate, "duration": p.duration} for p in self.phases]
                if self.phases is not None
                else None
            ),
            "streaming": self.streaming,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorkloadSpec":
        _reject_unknown_keys(cls, data, "workload spec")
        phases = data.get("phases")
        return cls(
            dataset=data.get("dataset", "sharegpt"),
            request_rate=data.get("request_rate", 5.0),
            num_requests=data.get("num_requests", 64),
            seed=data.get("seed", 0),
            # `is not None`: an explicit [] must fail validation, not vanish.
            phases=tuple(phases) if phases is not None else None,
            streaming=data.get("streaming", False),
        )


def _slo_to_dict(slo: SLOSpec) -> Dict[str, Any]:
    return {"ttft_s": slo.ttft_s, "tpot_s": slo.tpot_s}


def _slo_from_dict(data: Mapping) -> SLOSpec:
    unknown = sorted(set(data) - {"ttft_s", "tpot_s"})
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in slo spec; "
            "expected: ttft_s, tpot_s"
        )

    def bound(key: str, default: float) -> float:
        raw = data.get(key, default)
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"slo.{key} must be a number, got {raw!r}") from None
        _check(value > 0, f"slo.{key} must be > 0, got {value!r}")
        return value

    return SLOSpec(
        ttft_s=bound("ttft_s", SLOSpec.ttft_s),
        tpot_s=bound("tpot_s", SLOSpec.tpot_s),
    )


# ------------------------------------------------------------------ deployment


@dataclass(frozen=True)
class DeploymentSpec:
    """A complete, serializable description of one simulated deployment.

    ``repro.api.build`` turns a spec into a ready-to-run system + trace;
    ``repro.api.run`` additionally simulates it.  ``elasticity`` and ``slo``
    default to off/loose, which preserves the legacy fixed-capacity behaviour
    bit-for-bit.
    """

    model: str = "llama-13b"
    system: SystemSpec = field(default_factory=SystemSpec)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    router: RouterSpec = field(default_factory=RouterSpec)
    elasticity: Optional[ElasticitySpec] = None
    slo: Optional[SLOSpec] = None
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    metrics: Optional[MetricsSpec] = None
    failures: Optional[FailureSpec] = None
    max_simulated_time: float = 24 * 3600.0

    def __post_init__(self) -> None:
        _check(isinstance(self.model, str) and bool(self.model), "model must be a non-empty string")
        _check(
            self.model in MODEL_CATALOG,
            f"unknown model {self.model!r}; available: {', '.join(sorted(MODEL_CATALOG))}",
        )
        _check(isinstance(self.system, SystemSpec), "system must be a SystemSpec")
        _check(isinstance(self.cluster, ClusterSpec), "cluster must be a ClusterSpec")
        _check(isinstance(self.router, RouterSpec), "router must be a RouterSpec")
        _check(
            self.elasticity is None or isinstance(self.elasticity, ElasticitySpec),
            "elasticity must be an ElasticitySpec or null",
        )
        _check(
            self.slo is None or isinstance(self.slo, SLOSpec),
            "slo must be an SLOSpec or null",
        )
        _check(isinstance(self.workload, WorkloadSpec), "workload must be a WorkloadSpec")
        _check(
            self.metrics is None or isinstance(self.metrics, MetricsSpec),
            "metrics must be a MetricsSpec or null",
        )
        _check(
            self.failures is None or isinstance(self.failures, FailureSpec),
            "failures must be a FailureSpec or null",
        )
        _check(
            isinstance(self.max_simulated_time, (int, float)) and self.max_simulated_time > 0,
            f"max_simulated_time must be > 0, got {self.max_simulated_time!r}",
        )
        object.__setattr__(self, "max_simulated_time", float(self.max_simulated_time))

    # -- derived views ---------------------------------------------------------------

    @property
    def is_replicated(self) -> bool:
        """Whether this deployment builds a ClusterServingSystem."""
        return (
            self.cluster.replicas > 1
            or self.cluster.replica_kinds is not None
            or (self.elasticity is not None and self.elasticity.enabled)
            or (self.failures is not None and self.failures.enabled)
        )

    def describe(self) -> str:
        """One-line human summary (CLI dry runs and sweep logs)."""
        shape = self.cluster.kind
        if self.cluster.replica_kinds is not None:
            shape = " | ".join(self.cluster.replica_kinds)
        elif self.cluster.replicas > 1:
            shape = f"{self.cluster.replicas}x {self.cluster.kind}"
        parts = [f"{self.system.name} on {shape} serving {self.model}"]
        if self.is_replicated:
            parts.append(f"router={self.router.name}")
        if self.elasticity is not None and self.elasticity.autoscaler:
            parts.append(f"autoscaler={self.elasticity.autoscaler}")
        if self.elasticity is not None and self.elasticity.admission:
            parts.append(f"admission={self.elasticity.admission}")
        if self.elasticity is not None and self.elasticity.migration:
            parts.append(f"migration@{self.elasticity.migration_bandwidth_gbps:g}Gbps")
        if self.failures is not None and self.failures.enabled:
            churn = len(self.failures.events) + self.failures.num_failures
            parts.append(f"failures={churn}(recovery {self.failures.recovery_time:g}s)")
        if self.slo is not None:
            parts.append(f"slo=({self.slo.ttft_s:g}s TTFT, {self.slo.tpot_s:g}s TPOT)")
        wl = self.workload
        arrivals = f"{len(wl.phases)} phases" if wl.phases else f"{wl.request_rate:g} req/s"
        trace = f"{wl.num_requests} x {wl.dataset} @ {arrivals}, seed {wl.seed}"
        if wl.streaming:
            trace += ", streaming"
        parts.append(trace)
        if self.metrics is not None and self.metrics.bounded:
            parts.append(f"bounded metrics (eps={self.metrics.quantile_epsilon:g})")
        return ", ".join(parts)

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "system": self.system.to_dict(),
            "cluster": self.cluster.to_dict(),
            "router": self.router.to_dict(),
            "elasticity": self.elasticity.to_dict() if self.elasticity is not None else None,
            "slo": _slo_to_dict(self.slo) if self.slo is not None else None,
            "workload": self.workload.to_dict(),
            "metrics": self.metrics.to_dict() if self.metrics is not None else None,
            "failures": self.failures.to_dict() if self.failures is not None else None,
            "max_simulated_time": self.max_simulated_time,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "DeploymentSpec":
        _check(isinstance(data, Mapping), f"deployment spec must be a mapping, got {type(data).__name__}")
        _reject_unknown_keys(cls, data, "deployment spec")

        def sub(key: str, loader: Callable[[Mapping[str, Any]], Any], default: Any) -> Any:
            value = data.get(key)
            if value is None:
                return default() if callable(default) else default
            if isinstance(value, Mapping):
                return loader(value)
            return value  # already a spec object (programmatic use)

        return cls(
            model=data.get("model", "llama-13b"),
            system=sub("system", SystemSpec.from_dict, SystemSpec),
            cluster=sub("cluster", ClusterSpec.from_dict, ClusterSpec),
            router=sub("router", RouterSpec.from_dict, RouterSpec),
            elasticity=sub("elasticity", ElasticitySpec.from_dict, None),
            slo=sub("slo", _slo_from_dict, None),
            workload=sub("workload", WorkloadSpec.from_dict, WorkloadSpec),
            metrics=sub("metrics", MetricsSpec.from_dict, None),
            failures=sub("failures", FailureSpec.from_dict, None),
            max_simulated_time=data.get("max_simulated_time", 24 * 3600.0),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def load(cls, path: "str | Path") -> "DeploymentSpec":
        """Load a spec from a ``.json`` or ``.toml`` file."""
        data = load_config_mapping(path)
        try:
            return cls.from_dict(data)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def save(self, path: "str | Path") -> None:
        """Write the spec as JSON (the canonical interchange format)."""
        path = Path(path)
        if path.suffix.lower() != ".json":
            raise ConfigError(f"save() writes JSON; got {str(path)!r}")
        path.write_text(self.to_json() + "\n")

    # -- overrides (the sweep substrate) ----------------------------------------------

    def with_overrides(self, overrides: Mapping[str, Any]) -> "DeploymentSpec":
        """A new spec with dotted-path fields replaced, re-validated.

        ``{"workload.request_rate": 8.0, "router.name": "least-kv"}`` sets
        nested fields; intermediate ``None`` subtrees (``elasticity``,
        ``slo``) are created on demand, so ``{"slo.ttft_s": 2.0}`` works on a
        spec with no SLO.
        """
        data = self.to_dict()
        for dotted, value in overrides.items():
            keys = [k for k in str(dotted).split(".") if k]
            _check(bool(keys), f"empty override path {dotted!r}")
            node = data
            trail = []
            for key in keys[:-1]:
                # Unknown *intermediate* segments fail here, pointed at the
                # override path -- not later, as a from_dict unknown-key error
                # that has forgotten which dotted override put the key there.
                known = _known_keys_for_path(trail)
                if known is not None and key not in known:
                    raise ConfigError(
                        f"override path {dotted!r}: unknown section {key!r} "
                        f"under {'.'.join(trail) or 'the deployment spec'}; "
                        f"expected one of: {', '.join(known)}"
                    )
                trail.append(key)
                _check(
                    isinstance(node, dict),
                    f"override path {dotted!r}: {'.'.join(trail[:-1])} is not a section",
                )
                if node.get(key) is None:
                    node[key] = {}
                node = node[key]
            _check(
                isinstance(node, dict),
                f"override path {dotted!r}: {'.'.join(trail)} is not a section",
            )
            leaf_parent_keys = _known_keys_for_path(keys[:-1])
            if leaf_parent_keys is not None and keys[-1] not in leaf_parent_keys:
                raise ConfigError(
                    f"override path {dotted!r}: unknown field {keys[-1]!r}; "
                    f"expected one of: {', '.join(leaf_parent_keys)}"
                )
            node[keys[-1]] = value
        return DeploymentSpec.from_dict(data)


_SECTION_CLASSES: Dict[Tuple[str, ...], Any] = {
    (): DeploymentSpec,
    ("system",): SystemSpec,
    ("cluster",): ClusterSpec,
    ("router",): RouterSpec,
    ("elasticity",): ElasticitySpec,
    ("workload",): WorkloadSpec,
    ("metrics",): MetricsSpec,
    ("failures",): FailureSpec,
}


def _known_keys_for_path(path: Sequence[str]) -> Optional[List[str]]:
    """Valid field names under a dotted path, or ``None`` for free-form maps."""
    key = tuple(path)
    if key == ("slo",):
        return ["ttft_s", "tpot_s"]
    cls = _SECTION_CLASSES.get(key)
    if cls is None:
        return None  # options/limits mappings accept arbitrary keys
    return _known_keys(cls)


# ------------------------------------------------------------------ sweep grids


def parse_grid_value(text: str) -> Any:
    """Parse one ``--grid`` value: JSON scalar if possible, else the string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_grid_axis(axis: str) -> Tuple[str, List[Any]]:
    """Parse ``key=v1,v2,...`` into a dotted path and its candidate values.

    Values containing commas of their own (multi-host cluster blueprints like
    ``a100:2,t4:4``) would be mangled by the comma split, so a right-hand side
    that parses as a JSON list is taken verbatim as the value list:
    ``cluster.kind=["a100:2,t4:4","small"]``.
    """
    key, sep, values = axis.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ConfigError(
            f"grid axis {axis!r} must look like 'workload.request_rate=2,4,8'"
        )
    try:
        as_json = json.loads(values)
    except json.JSONDecodeError:
        as_json = None
    if isinstance(as_json, list):
        parsed = as_json
    else:
        parsed = [parse_grid_value(v.strip()) for v in values.split(",") if v.strip() != ""]
    if not parsed:
        raise ConfigError(f"grid axis {axis!r} has no values after '='")
    return key, parsed


def expand_grid(
    spec: DeploymentSpec, axes: Mapping[str, Sequence[Any]]
) -> List[Tuple[Dict[str, Any], DeploymentSpec]]:
    """Cartesian-product a base spec with override axes.

    Returns ``(overrides, spec)`` pairs in deterministic order: the first axis
    varies slowest.  Every produced spec re-validates, so an invalid
    combination fails before anything runs.
    """
    pairs: List[Tuple[Dict[str, Any], DeploymentSpec]] = [({}, spec)]
    for key, values in axes.items():
        _check(len(values) > 0, f"grid axis {key!r} has no values")
        next_pairs: List[Tuple[Dict[str, Any], DeploymentSpec]] = []
        for overrides, base in pairs:
            for value in values:
                merged = dict(overrides)
                merged[key] = value
                next_pairs.append((merged, base.with_overrides({key: value})))
        pairs = next_pairs
    return pairs
