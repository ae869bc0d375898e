"""Experiment drivers that regenerate every table and figure of the paper.

The paper's evaluation is one table, :data:`repro.experiments.claims.CLAIMS`:
each row names the study that measures it (a function of
:data:`repro.experiments.claims.STUDIES`), the value it checks, the bound and
the paper's number.  The analytic studies (Table 1, Figs. 2, 5, 7 and 11,
Sec. 7.4 and the split, solver and Delta ablations) compute their data in
:mod:`~repro.experiments.claims` itself; the serving studies are spec grids
run through :func:`repro.experiments.claims.sweep`.  ``fig14`` is the one
per-figure module: Fig. 14 drives a hand-built Hetis unit through a
time-varying load.

Grids of independent points execute through the parallel, cached,
fault-tolerant :class:`repro.experiments.runner.SweepRunner`.  A checked-in
study config (a plain deployment, or an ``[experiment]`` base deployment plus
grid axes) loads through :func:`repro.experiments.driver.load_study` and runs
with ``repro sweep``; ``repro figures`` runs every checked-in study config,
planner searches included, in one resumable command.
"""

from repro.experiments import fig14, runner, driver, claims  # noqa: F401

__all__ = ["fig14", "runner", "driver", "claims"]
