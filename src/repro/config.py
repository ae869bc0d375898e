"""Declarative, serializable deployment specs.

This module is the single description language for everything the simulator
can run.  A :class:`DeploymentSpec` captures a complete deployment -- model,
serving system, cluster shape (including replicated and heterogeneous
fleets), replica router, elasticity policies, latency SLOs, and the workload
-- as a tree of frozen dataclasses that

* validate at *parse time* with actionable, field-pointing errors (rather
  than deep inside the builders),
* serialize through one field-driven codec, :class:`Spec`: a field's
  declaration is its schema and its default is written once, and every spec
  round-trips losslessly through plain dicts (``to_dict`` / ``from_dict``) and
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

import collections.abc
import json
import re
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Type, TypeVar, Union

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
from repro.utils.validation import ConfigError, is_integer, is_number
from repro.workloads.arrivals import RatePhase
from repro.workloads.datasets import DATASETS

#: Named cluster topologies understood by :func:`repro.api.build_cluster`;
#: anything else must parse as an inline ``type:count,...`` blueprint.
NAMED_CLUSTERS = ("paper", "small")


def load_config_mapping(path: "str | Path") -> Dict[str, Any]:
    """Read a ``.json`` or ``.toml`` file into a plain mapping.

    Shared by :meth:`DeploymentSpec.load` and the study loaders
    (:func:`repro.experiments.driver.load_study` for deployment and
    ``[experiment]`` configs, :func:`repro.experiments.planner.load_planner`),
    so every config flavour parses files -- and reports malformed ones --
    identically.
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


# ------------------------------------------------------------------ the codec


class _Field(NamedTuple):
    """How the codec reads one dataclass field, taken from its annotation."""

    section: Optional[type]  # the dataclass a mapping under this key decodes into
    optional: bool  # annotated Optional[...]: null is a value
    null_is_default: bool  # a section or collection that is not Optional: null means "absent"


class _Schema(NamedTuple):
    name: str  # what errors call the section when it is decoded on its own
    fields: Dict[str, _Field]
    required: Tuple[str, ...]


_SCHEMAS: Dict[type, _Schema] = {}


def _field_codec(hint: Any) -> _Field:
    args = typing.get_args(hint)
    optional = typing.get_origin(hint) is Union and type(None) in args
    if optional:
        (hint,) = [arg for arg in args if arg is not type(None)]
    section = hint if isinstance(hint, type) and is_dataclass(hint) else None
    collection = typing.get_origin(hint) in (tuple, dict, collections.abc.Mapping)
    return _Field(section, optional, not optional and (section is not None or collection))


def _schema(cls: Type[Any]) -> _Schema:
    """The codec's view of a dataclass, resolved from its annotations once per class."""
    schema = _SCHEMAS.get(cls)
    if schema is None:
        hints = typing.get_type_hints(cls)
        schema = _SCHEMAS[cls] = _Schema(
            name=re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__.replace("Spec", "")).lower(),
            fields={f.name: _field_codec(hints[f.name]) for f in fields(cls)},
            required=tuple(
                f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
            ),
        )
    return schema


def _encode(value: Any) -> Any:
    """Plain-data form of a field value: dataclasses become dicts, tuples lists."""
    if isinstance(value, (str, int, float, type(None))):
        return value
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if is_dataclass(value):
        return {name: _encode(getattr(value, name)) for name in _schema(type(value)).fields}
    if isinstance(value, collections.abc.Mapping):
        return {key: _encode(item) for key, item in value.items()}
    return value


T = TypeVar("T")


def _decode(cls: Type[T], data: Any, where: str) -> T:
    """Build ``cls`` from a mapping of its field names (the ``where`` section)."""
    if not isinstance(data, collections.abc.Mapping):
        raise ConfigError(f"{where} spec must be a mapping, got {type(data).__name__}")
    schema = _schema(cls)
    unknown = [key for key in data if key not in schema.fields]
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(map(repr, sorted(unknown)))} in {where} spec; "
            f"expected: {', '.join(schema.fields)}"
        )
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        codec = schema.fields[key]
        if value is None:
            if codec.null_is_default:
                continue
        elif codec.section is not None and isinstance(value, collections.abc.Mapping):
            value = _decode(codec.section, value, key)
        kwargs[key] = value
    missing = [key for key in schema.required if key not in kwargs]
    if missing:
        raise ConfigError(f"{where} spec needs {', '.join(map(repr, missing))}")
    return cls(**kwargs)


S = TypeVar("S", bound="Spec")


class Spec:
    """Base of the spec dataclasses: one field-driven codec serializes them all.

    A subclass is a ``frozen=True`` dataclass whose field declarations are
    its schema.  ``to_dict`` walks :func:`dataclasses.fields`: nested
    dataclasses (other specs, :class:`~repro.sim.metrics.SLOSpec`,
    :class:`~repro.workloads.arrivals.RatePhase`) become dicts and tuples
    become lists.  ``from_dict`` maps keys back onto fields: an unknown key
    fails naming the section, an absent key keeps the field's default, a
    mapping under a field annotated with a dataclass decodes into it, and a
    null section or collection counts as absent.  Validation and
    normalization stay in each subclass's ``__post_init__``.
    """

    def to_dict(self) -> Dict[str, Any]:
        return typing.cast(Dict[str, Any], _encode(self))

    @classmethod
    def from_dict(cls: Type[S], data: Mapping[str, Any]) -> S:
        return _decode(cls, data, _schema(cls).name)


# ------------------------------------------------------------- execution spec


@dataclass(frozen=True)
class ExecutionSpec(Spec):
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

    The field names are :class:`~repro.experiments.runner.SweepRunner`'s
    keyword arguments, so ``SweepRunner(**execution.to_dict())`` applies them.

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
                is_number(self.task_timeout) and self.task_timeout > 0,
                f"execution.task_timeout must be a number > 0 or null, got {self.task_timeout!r}",
            )
            object.__setattr__(self, "task_timeout", float(self.task_timeout))
        _check(
            is_integer(self.max_retries) and self.max_retries >= 0,
            f"execution.max_retries must be an integer >= 0, got {self.max_retries!r}",
        )
        _check(
            is_number(self.backoff_base) and self.backoff_base >= 0,
            f"execution.backoff_base must be a number >= 0, got {self.backoff_base!r}",
        )
        object.__setattr__(self, "backoff_base", float(self.backoff_base))
        if self.journal is not None:
            _check(
                isinstance(self.journal, str) and bool(self.journal),
                f"execution.journal must be a non-empty path or null, got {self.journal!r}",
            )


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
class ClusterSpec(Spec):
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
            is_integer(self.replicas) and self.replicas >= 1,
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


@dataclass(frozen=True)
class SystemSpec(Spec):
    """Which serving system to build, and its scheduler knobs.

    ``limits`` overrides individual :class:`~repro.sim.scheduler.SchedulerLimits`
    fields; ``prefill_chunk_tokens`` opts into chunked prefill (``None`` keeps
    the monolithic-prefill path bit-for-bit) and may not disagree with
    ``limits.prefill_chunk_tokens``; ``options`` is forwarded to the system
    builder as extra keyword arguments (e.g. Hetis's ``theta``,
    ``enable_redispatch`` or ``profiling_error``).
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
                is_integer(self.prefill_chunk_tokens) and self.prefill_chunk_tokens > 0,
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
            if self.prefill_chunk_tokens is not None and "prefill_chunk_tokens" in limits:
                _check(
                    limits["prefill_chunk_tokens"] == self.prefill_chunk_tokens,
                    f"system.prefill_chunk_tokens ({self.prefill_chunk_tokens!r}) and "
                    f"system.limits.prefill_chunk_tokens ({limits['prefill_chunk_tokens']!r}) "
                    "disagree; set the chunk size in one place",
                )
            object.__setattr__(self, "limits", limits)
        object.__setattr__(self, "options", _check_mapping(self.options, "system.options"))

    def scheduler_limits(self) -> Optional[SchedulerLimits]:
        """Materialise the limits and chunk size (``None`` when neither is set)."""
        if self.limits is None and self.prefill_chunk_tokens is None:
            return None
        limits = dict(self.limits or {})
        if self.prefill_chunk_tokens is not None:
            limits["prefill_chunk_tokens"] = self.prefill_chunk_tokens
        return SchedulerLimits(**limits)


@dataclass(frozen=True)
class RouterSpec(Spec):
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


@dataclass(frozen=True)
class ElasticitySpec(Spec):
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
            is_number(self.migration_bandwidth_gbps) and self.migration_bandwidth_gbps > 0,
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


@dataclass(frozen=True)
class FailureSpec(Spec):
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
            _check(is_number(time) and time >= 0, f"failures.events: time must be >= 0, got {time!r}")
            _check(
                is_integer(replica) and replica >= 0,
                f"failures.events: replica must be an integer >= 0, got {replica!r}",
            )
            normalized.append((float(time), replica))
        object.__setattr__(self, "events", tuple(normalized))
        _check(is_number(self.rate) and self.rate >= 0, f"failures.rate must be >= 0, got {self.rate!r}")
        object.__setattr__(self, "rate", float(self.rate))
        _check(
            is_integer(self.num_failures) and self.num_failures >= 0,
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
        _check(is_integer(self.seed), f"failures.seed must be an integer, got {self.seed!r}")
        _check(
            is_number(self.recovery_time) and self.recovery_time >= 0,
            f"failures.recovery_time must be >= 0, got {self.recovery_time!r}",
        )
        object.__setattr__(self, "recovery_time", float(self.recovery_time))
        _check(
            is_number(self.check_interval) and self.check_interval > 0,
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


@dataclass(frozen=True)
class MetricsSpec(Spec):
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
            is_number(self.quantile_epsilon) and 0.0 < self.quantile_epsilon < 0.5,
            f"metrics.quantile_epsilon must be in (0, 0.5), got {self.quantile_epsilon!r}",
        )
        object.__setattr__(self, "quantile_epsilon", float(self.quantile_epsilon))
        if self.max_recorder_samples_per_key is not None:
            _check(
                is_integer(self.max_recorder_samples_per_key) and self.max_recorder_samples_per_key >= 2,
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


@dataclass(frozen=True)
class WorkloadSpec(Spec):
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
            is_integer(self.num_requests) and self.num_requests >= 0,
            f"workload.num_requests must be an integer >= 0, got {self.num_requests!r}",
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
            is_number(self.request_rate) and (self.request_rate > 0 or self.phases is not None),
            f"workload.request_rate must be > 0, got {self.request_rate!r} "
            "(with phases set, the rate is bookkeeping-only and 0 is allowed)",
        )
        object.__setattr__(self, "request_rate", float(self.request_rate))
        _check(
            is_integer(self.seed) and self.seed >= 0,
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
            mapping = isinstance(value, collections.abc.Mapping)
            rate, duration = (value.get("rate"), value.get("duration")) if mapping else value
            _check(is_number(rate) and is_number(duration), "rate and duration must be numbers")
            return RatePhase(rate=float(rate), duration=float(duration))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"workload.phases[{index}] must be a {{rate, duration}} pair, "
                f"got {value!r} ({exc})"
            ) from None


# ------------------------------------------------------------------ deployment


@dataclass(frozen=True)
class DeploymentSpec(Spec):
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
        for name, codec in _schema(DeploymentSpec).fields.items():
            value = getattr(self, name)
            if codec.section is None or isinstance(value, codec.section) or (codec.optional and value is None):
                continue
            raise ConfigError(
                f"{name} must be a mapping or {codec.section.__name__}"
                f"{', or null' if codec.optional else ''}, got {type(value).__name__}"
            )
        _check(
            is_number(self.max_simulated_time) and self.max_simulated_time > 0,
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
                known = _section_keys(trail)
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
            leaf_parent_keys = _section_keys(keys[:-1])
            if leaf_parent_keys is not None and keys[-1] not in leaf_parent_keys:
                raise ConfigError(
                    f"override path {dotted!r}: unknown field {keys[-1]!r}; "
                    f"expected one of: {', '.join(leaf_parent_keys)}"
                )
            node[keys[-1]] = value
        return DeploymentSpec.from_dict(data)


def _section_keys(path: Sequence[str]) -> Optional[List[str]]:
    """Field names of the section at a dotted path, or ``None`` under a free-form map.

    Walks the same annotations ``from_dict`` decodes with, so options and
    limits mappings (no dataclass behind them) accept arbitrary keys.
    """
    section: Optional[type] = DeploymentSpec
    for key in path:
        codec = _schema(section).fields.get(key) if section is not None else None
        section = codec.section if codec is not None else None
    return list(_schema(section).fields) if section is not None else None


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


def grid_axes(raw: Any, where: str) -> Dict[str, Tuple[Any, ...]]:
    """Validate ``{dotted path: values}`` axes; a scalar value is a one-point axis."""
    _check(
        isinstance(raw, Mapping),
        f"{where} must be a mapping of axis -> values, got {type(raw).__name__}",
    )
    axes: Dict[str, Tuple[Any, ...]] = {}
    for key, values in raw.items():
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            values = [values]
        _check(len(values) > 0, f"{where} axis {key!r} has no values")
        axes[str(key)] = tuple(values)
    return axes


# ------------------------------------------------------------------ study files


def study_config(data: Any, section: str, default_name: Optional[str] = None) -> Dict[str, Any]:
    """Flatten a study config file into its ``[<section>]`` table.

    Experiment and planner configs share one file shape: a ``[<section>]``
    table, a top-level ``[deployment]`` base and an optional top-level
    ``[execution]`` table.  Returns the section's keys with ``deployment``
    and (when given) ``execution`` merged in, and ``name`` defaulting to
    ``default_name``.
    """
    _check(isinstance(data, Mapping), f"{section} config must be a mapping, got {type(data).__name__}")
    expected = (section, "deployment", "execution")
    unknown = sorted(set(data) - set(expected))
    _check(
        not unknown,
        f"unknown top-level key(s) {', '.join(map(repr, unknown))} in {section} config; "
        f"expected: {', '.join(expected)}",
    )
    body = data.get(section)
    _check(isinstance(body, Mapping), f"{section} config has no [{section}] section")
    for table in ("deployment", "execution"):
        _check(table not in body, f"{table} belongs in its own top-level [{table}] table, not inside [{section}]")
    _check(isinstance(data.get("deployment"), Mapping), f"{section} config has no [deployment] section")
    merged = dict(body, deployment=data["deployment"])
    if "execution" in data:
        merged["execution"] = data["execution"]
    if default_name is not None:
        merged.setdefault("name", default_name)
    return merged
