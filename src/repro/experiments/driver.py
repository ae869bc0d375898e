"""Spec-driven experiment driver: a checked-in config is a whole study.

An *experiment config* bundles a base :class:`~repro.config.DeploymentSpec`
with the grid axes to sweep over it -- the Fig.-14-style elasticity study
becomes one TOML file (``examples/configs/fig14_grid.toml``) instead of a
hand-rolled loop per figure:

.. code-block:: toml

    [experiment]
    name = "fig14-elasticity-grid"

    [experiment.grid]
    "elasticity.autoscaler_options.target_utilization" = [0.4, 0.6, 0.8]
    "workload.request_rate" = [6.0, 18.0]

    [deployment]
    model = "llama-13b"
    # ... any DeploymentSpec tree ...

:func:`load_experiment` parses and validates the whole study at load time
(every grid combination re-validates through ``expand_grid``), and
:func:`run_experiment` executes it through the parallel, cached
:class:`~repro.experiments.runner.SweepRunner`.  The CLI front-end is
``python -m repro experiment <config> [--jobs N] [--cache DIR]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.config import (
    ConfigError,
    DeploymentSpec,
    ExecutionSpec,
    expand_grid,
    grid_axes,
    load_config_mapping,
    study_config,
)
from repro.experiments.runner import PointResult, SweepRunner, table_row

_EXPERIMENT_KEYS = ("name", "description", "grid")


@dataclass(frozen=True)
class ExperimentSpec:
    """A named study: base deployment plus the grid axes swept over it.

    ``execution`` (an optional top-level ``[execution]`` table in the config)
    carries fault-tolerance knobs -- timeout, retries, journal -- for the
    runner; it never affects what the points compute.
    """

    name: str
    base: DeploymentSpec
    grid: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    description: str = ""
    execution: Optional[ExecutionSpec] = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError("experiment.name must be a non-empty string")
        if not isinstance(self.base, DeploymentSpec):
            raise ConfigError("experiment deployment must be a DeploymentSpec")
        if self.execution is not None and not isinstance(self.execution, ExecutionSpec):
            if isinstance(self.execution, Mapping):
                object.__setattr__(self, "execution", ExecutionSpec.from_dict(self.execution))
            else:
                raise ConfigError(
                    "experiment execution must be an ExecutionSpec or a mapping, "
                    f"got {type(self.execution).__name__}"
                )
        # Expanding validates every override path and every produced spec, so
        # a bad grid fails at load time with the offending combination named.
        # The expansion is kept (a non-field attribute on this frozen
        # dataclass) so later expand() calls do not re-pay O(points) spec
        # construction.
        object.__setattr__(self, "_points", expand_grid(self.base, self.axes))

    @property
    def axes(self) -> Dict[str, List[Any]]:
        """Grid axes as an insertion-ordered ``{dotted path: values}`` mapping."""
        return {key: list(values) for key, values in self.grid}

    @property
    def num_points(self) -> int:
        n = 1
        for _, values in self.grid:
            n *= len(values)
        return n

    def expand(self) -> List[Tuple[Dict[str, Any], DeploymentSpec]]:
        """All ``(overrides, spec)`` points, first axis varying slowest.

        The specs are the validated-at-load instances; the override dicts are
        fresh copies, so callers may annotate them freely.
        """
        return [(dict(overrides), spec) for overrides, spec in self._points]

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], default_name: Optional[str] = None
    ) -> "ExperimentSpec":
        """Parse the config-file shape: an ``[experiment]`` table over a ``[deployment]`` base."""
        exp = study_config(data, "experiment", default_name)
        unknown = sorted(set(exp) - {*_EXPERIMENT_KEYS, "deployment", "execution"})
        if unknown:
            raise ConfigError(
                f"unknown key(s) {', '.join(map(repr, unknown))} in [experiment]; "
                f"expected: {', '.join(_EXPERIMENT_KEYS)}"
            )
        return cls(
            name=str(exp.get("name", "experiment")),
            description=str(exp.get("description", "")),
            base=DeploymentSpec.from_dict(exp["deployment"]),
            grid=tuple(grid_axes(exp.get("grid") or {}, "experiment.grid").items()),
            execution=exp.get("execution"),
        )


def load_experiment(path) -> ExperimentSpec:
    """Load and validate an experiment config from a ``.toml``/``.json`` file."""
    data = load_config_mapping(path)
    try:
        # Unnamed experiments default to the file stem; resolving it here
        # (rather than reconstructing after the fact) keeps the validating
        # grid expansion to a single pass.
        return ExperimentSpec.from_dict(data, default_name=Path(path).stem)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass
class ExperimentRun:
    """Results of one executed experiment, in deterministic grid order."""

    experiment: ExperimentSpec
    results: List[PointResult]

    def rows(self) -> List[Dict[str, Any]]:
        """Results-table rows (overrides + metric columns) for finished points."""
        return [table_row(r.overrides, r.row) for r in self.results if r.ok]

    def errors(self) -> List[PointResult]:
        return [r for r in self.results if r.error is not None]

    @property
    def num_cached(self) -> int:
        return sum(1 for r in self.results if r.cached)


def run_experiment(
    experiment,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    stop_on_error: bool = True,
    execution: Optional[ExecutionSpec] = None,
) -> ExperimentRun:
    """Execute an :class:`ExperimentSpec` (or a config file path) end to end.

    ``execution`` overrides the config's own ``[execution]`` block (that is
    how the CLI's ``--timeout``/``--retries``/``--resume`` flags win).
    """
    if not isinstance(experiment, ExperimentSpec):
        experiment = load_experiment(experiment)
    effective = execution if execution is not None else experiment.execution
    runner = SweepRunner(
        jobs=jobs,
        cache_dir=cache_dir,
        stop_on_error=stop_on_error,
        **(effective.to_dict() if effective is not None else {}),
    )
    return ExperimentRun(experiment=experiment, results=runner.run(experiment.expand()))
