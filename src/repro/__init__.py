"""Hetis reproduction package.

This package reproduces *Hetis: Serving LLMs in Heterogeneous GPU Clusters with
Fine-grained and Dynamic Parallelism* (SC '25) as a pure-Python, simulation-based
library.  It provides:

* a calibrated heterogeneous GPU-cluster hardware model (:mod:`repro.hardware`),
* analytic LLM cost models (:mod:`repro.models`, :mod:`repro.perf`),
* paged and head-wise KV-cache management (:mod:`repro.kvcache`),
* an iteration-level discrete-event serving simulator (:mod:`repro.sim`),
* the Hetis core algorithms -- Parallelizer, dynamic head-wise Attention
  parallelism, online Dispatcher, re-dispatching, and the Hauler
  (:mod:`repro.core`),
* heterogeneity-aware baselines, Splitwise and HexGen (:mod:`repro.baselines`),
* synthetic workload generators for ShareGPT / HumanEval / LongBench style
  traces (:mod:`repro.workloads`), and
* experiment drivers that regenerate every table and figure of the paper's
  evaluation (:mod:`repro.experiments`).

Every deployment is a :class:`DeploymentSpec`; :func:`build` turns one into a
ready-to-run system and :func:`run` also simulates it.

Quickstart
----------
>>> from repro import DeploymentSpec, run
>>> spec = DeploymentSpec().with_overrides(
...     {"system.name": "hetis", "workload.request_rate": 6.0, "workload.num_requests": 64}
... )
>>> result = run(spec)
>>> result.normalized_latency > 0
True
"""

from repro.version import __version__
from repro.api import (
    PreparedRun,
    build,
    run,
    build_cluster,
    available_models,
    available_systems,
    available_datasets,
    available_routers,
    available_autoscalers,
    available_admission_policies,
)
from repro.config import (
    ClusterSpec,
    ConfigError,
    DeploymentSpec,
    ElasticitySpec,
    MetricsSpec,
    RouterSpec,
    SystemSpec,
    WorkloadSpec,
)
from repro.registry import Registry
from repro.sim.metrics import SLOSpec

__all__ = [
    "__version__",
    # spec-first API
    "DeploymentSpec",
    "ClusterSpec",
    "SystemSpec",
    "RouterSpec",
    "ElasticitySpec",
    "WorkloadSpec",
    "MetricsSpec",
    "SLOSpec",
    "ConfigError",
    "Registry",
    "build",
    "run",
    "PreparedRun",
    "build_cluster",
    # listings
    "available_models",
    "available_systems",
    "available_datasets",
    "available_routers",
    "available_autoscalers",
    "available_admission_policies",
]
