"""Experiment drivers that regenerate every table and figure of the paper.

The paper's evaluation is one table, :data:`repro.experiments.claims.CLAIMS`:
each row names the study that measures it (a function of
:data:`repro.experiments.claims.STUDIES`), the value it checks, the bound and
the paper's number.  The per-figure modules (``table1``, ``fig02``, ``fig05``,
``fig07``, ``cache_space``, ``fig14``, ``accuracy``, ``search_overhead``,
``ablation``) hold the studies that do not serve requests; the serving studies
are spec grids run through :func:`repro.experiments.claims.sweep`.

Grids of independent points execute through the parallel, cached,
fault-tolerant :class:`repro.experiments.runner.SweepRunner`.  A checked-in
study config (a plain deployment, or an ``[experiment]`` base deployment plus
grid axes) loads through :func:`repro.experiments.driver.load_study` and runs
with ``repro sweep``; ``repro figures`` runs every checked-in study config,
planner searches included, in one resumable command.
"""

from repro.experiments import (  # noqa: F401
    table1,
    fig02,
    fig05,
    fig07,
    cache_space,
    fig14,
    accuracy,
    search_overhead,
    ablation,
    runner,
    driver,
    claims,
)

__all__ = [
    "table1",
    "fig02",
    "fig05",
    "fig07",
    "cache_space",
    "fig14",
    "accuracy",
    "search_overhead",
    "ablation",
    "runner",
    "driver",
    "claims",
]
