"""Experiment drivers that regenerate every table and figure of the paper.

Each module exposes ``run_*`` functions returning plain dataclasses / dicts so
that the same logic backs the pytest-benchmark targets in ``benchmarks/``, the
runnable scripts in ``examples/``, and the assertions in ``tests/``.

Index of the paper's tables and figures:

========  =============================================================
Table 1   :func:`repro.experiments.table1.run_table1`
Fig. 2    :func:`repro.experiments.fig02.run_fig2`
Fig. 5    :func:`repro.experiments.fig05.run_fig5`
Fig. 7    :func:`repro.experiments.fig07.run_fig7`
Fig. 8-10 :func:`repro.experiments.e2e.run_rate_sweep`
Fig. 11   :func:`repro.experiments.cache_space.run_cache_space`
Fig. 12   :func:`repro.experiments.e2e.run_tail_latency`
Fig. 13   :func:`repro.experiments.e2e.run_module_latency`
Fig. 14   :func:`repro.experiments.fig14.run_dynamic_usage`
Fig. 15   :func:`repro.experiments.fig15.run_redispatch_benefit` /
          :func:`repro.experiments.fig15.run_head_management_overhead`
Fig. 16   :func:`repro.experiments.fig16.run_theta_sensitivity` /
          :func:`repro.experiments.fig16.run_profiling_error_sensitivity`
Sec. 7.4  :func:`repro.experiments.accuracy.run_modeling_accuracy`,
          :func:`repro.experiments.search_overhead.run_search_overhead`
========  =============================================================

Grids of independent points execute through the parallel, cached,
fault-tolerant :class:`repro.experiments.runner.SweepRunner`; whole
spec-driven studies (base deployment + grid axes in one TOML/JSON file) run
through :mod:`repro.experiments.driver`; ``repro figures``
(:mod:`repro.experiments.figures`) regenerates every checked-in study config
in one resumable command.
"""

from repro.experiments import (  # noqa: F401
    table1,
    fig02,
    fig05,
    fig07,
    e2e,
    cache_space,
    fig14,
    fig15,
    fig16,
    accuracy,
    search_overhead,
    ablation,
    runner,
    driver,
    figures,
)

__all__ = [
    "table1",
    "fig02",
    "fig05",
    "fig07",
    "e2e",
    "cache_space",
    "fig14",
    "fig15",
    "fig16",
    "accuracy",
    "search_overhead",
    "ablation",
    "runner",
    "driver",
    "figures",
]
