"""Sweep-shaped study configs: one checked-in file is one whole study.

A study config is either a plain :class:`~repro.config.DeploymentSpec` file
(one point, or the base of ``repro sweep --grid`` axes) or an *experiment
config* that bundles a base deployment with the grid axes to sweep over it --
the Fig.-14-style elasticity study is one TOML file
(``examples/configs/fig14_grid.toml``) instead of a hand-rolled loop:

.. code-block:: toml

    [experiment]
    name = "fig14-elasticity-grid"

    [experiment.grid]
    "elasticity.autoscaler_options.target_utilization" = [0.4, 0.6, 0.8]
    "workload.request_rate" = [6.0, 18.0]

    [deployment]
    model = "llama-13b"
    # ... any DeploymentSpec tree ...

:func:`load_study` reads either shape into a :class:`Study`; ``repro sweep``
expands its axes with :func:`~repro.config.expand_grid` and runs the points
through :class:`~repro.experiments.runner.SweepRunner`, and ``repro figures``
does the same for every checked-in config.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, NamedTuple, Optional, Sequence

from repro.config import (
    ConfigError,
    DeploymentSpec,
    ExecutionSpec,
    extract_execution,
    grid_axes,
    load_config_mapping,
    study_config,
)

_EXPERIMENT_KEYS = ("name", "description", "grid")


class Study(NamedTuple):
    """A sweep-shaped config: its name, base deployment, grid axes and ``[execution]``.

    ``axes`` is insertion-ordered (the first axis varies slowest when
    expanded); a plain deployment file has none.  ``execution`` carries the
    config's fault-tolerance knobs and never affects what the points compute.
    """

    name: str
    base: DeploymentSpec
    axes: Mapping[str, Sequence[Any]]
    execution: Optional[ExecutionSpec]


def load_study(path: "str | Path") -> Study:
    """Load a plain deployment file or an ``[experiment]`` file as a :class:`Study`.

    A plain deployment is named after its file stem; an experiment's name
    defaults to it.  Errors name the file.
    """
    data = load_config_mapping(path)
    execution = extract_execution(data, where=str(path))
    stem = Path(path).stem
    try:
        if "experiment" not in data:
            return Study(stem, DeploymentSpec.from_dict(data), {}, execution)
        exp = study_config(data, "experiment", default_name=stem)
        unknown = sorted(set(exp) - {*_EXPERIMENT_KEYS, "deployment"})
        if unknown:
            raise ConfigError(
                f"unknown key(s) {', '.join(map(repr, unknown))} in [experiment]; "
                f"expected: {', '.join(_EXPERIMENT_KEYS)}"
            )
        return Study(
            name=str(exp["name"]),
            base=DeploymentSpec.from_dict(exp["deployment"]),
            axes=grid_axes(exp.get("grid") or {}, "experiment.grid"),
            execution=execution,
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
