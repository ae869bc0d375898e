"""End-to-end serving experiments: Figs. 8-10 (rate sweeps), 12 (tail latency),
and 13 (decode-phase module latency).

The paper's evaluation drives each system with Poisson arrivals from one of
three workloads and reports the mean normalized latency (s/token) as the
request rate increases (Figs. 8-10), the P95 TTFT/TPOT at an unsaturated rate
(Fig. 12), and the P95 decode-phase MLP / Attention module latency (Fig. 13).
All three reuse :func:`run_serving` below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api import run
from repro.config import ClusterSpec, DeploymentSpec, SystemSpec, WorkloadSpec
from repro.experiments.runner import PointResult, SweepRunner, summary_row

# Request-rate grids of Figs. 8-10 (req/s), per model and dataset.
PAPER_RATE_GRID: Dict[str, Dict[str, Sequence[float]]] = {
    "llama-13b": {"sharegpt": (3, 6, 9, 12, 15), "humaneval": (15, 30, 45, 60, 75), "longbench": (3, 6, 9)},
    "opt-30b": {"sharegpt": (3, 6, 9, 12), "humaneval": (15, 30, 45), "longbench": (2, 4, 6)},
    "llama-70b": {"sharegpt": (1, 2, 3), "humaneval": (3, 6, 9, 12), "longbench": (0.4, 0.8, 1.2, 1.6)},
}

# Unsaturated rates used for the Fig. 12 / Fig. 13 tail-latency study (Llama-70B).
PAPER_TAIL_RATES: Dict[str, float] = {"sharegpt": 1.5, "humaneval": 6.0, "longbench": 0.8}


@dataclass(frozen=True)
class ServingPoint:
    """One (system, rate) measurement."""

    system: str
    model: str
    dataset: str
    request_rate: float
    normalized_latency: float
    p95_normalized_latency: float
    p95_ttft: float
    p95_tpot: float
    p95_mlp: float
    p95_attention: float
    throughput_rps: float
    available_cache_gb: float
    num_finished: int


@dataclass
class RateSweep:
    """A normalized-latency-vs-rate curve for one system (one line of Figs. 8-10)."""

    system: str
    model: str
    dataset: str
    points: List[ServingPoint] = field(default_factory=list)

    @property
    def rates(self) -> List[float]:
        return [p.request_rate for p in self.points]

    @property
    def latencies(self) -> List[float]:
        return [p.normalized_latency for p in self.points]

    def max_rate_under(self, latency_slo: float) -> float:
        """The highest swept rate whose mean normalized latency meets the SLO.

        This is the "sustained request rate" notion behind the paper's
        throughput-improvement claims (e.g. Hetis sustains up to 2.25x the
        rate of Splitwise).
        """
        feasible = [p.request_rate for p in self.points if p.normalized_latency <= latency_slo]
        return max(feasible) if feasible else 0.0


def serving_spec(
    system: str,
    model: str,
    dataset: str,
    request_rate: float,
    num_requests: int = 80,
    seed: int = 0,
    cluster_kind: str = "paper",
) -> DeploymentSpec:
    """The :class:`DeploymentSpec` of one (system, model, dataset, rate) cell."""
    return DeploymentSpec(
        model=model,
        system=SystemSpec(name=system),
        cluster=ClusterSpec(kind=cluster_kind),
        workload=WorkloadSpec(
            dataset=dataset,
            request_rate=request_rate,
            num_requests=num_requests,
            seed=seed,
        ),
    )


def _point_from_row(
    system: str, model: str, dataset: str, request_rate: float, row: Mapping[str, Any]
) -> ServingPoint:
    """Build a :class:`ServingPoint` from a runner summary row."""
    return ServingPoint(
        system=system,
        model=model,
        dataset=dataset,
        request_rate=request_rate,
        normalized_latency=row["mean_normalized_latency"],
        p95_normalized_latency=row["p95_normalized_latency"],
        p95_ttft=row["p95_ttft"],
        p95_tpot=row["p95_tpot"],
        p95_mlp=row["p95_module_latency"].get("mlp", 0.0),
        p95_attention=row["p95_module_latency"].get("attention", 0.0),
        throughput_rps=row["throughput_rps"],
        available_cache_gb=row["available_cache_bytes"] / 1e9,
        num_finished=row["num_finished"],
    )


def _require_rows(results: Sequence[PointResult], what: str) -> None:
    for res in results:
        if res.error is not None:
            raise RuntimeError(f"{what} point {res.label} failed: {res.error}")


def run_serving(
    system: str,
    model: str,
    dataset: str,
    request_rate: float,
    num_requests: int = 80,
    seed: int = 0,
) -> ServingPoint:
    """Run one (system, model, dataset, rate) cell in-process and summarise it.

    Fan whole grids out with :func:`run_rate_sweep` / :func:`run_tail_latency`
    instead.
    """
    result = run(serving_spec(system, model, dataset, request_rate, num_requests, seed))
    return _point_from_row(system, model, dataset, request_rate, summary_row(result))


def run_rate_sweep(
    model: str,
    dataset: str,
    systems: Sequence[str] = ("splitwise", "hexgen", "hetis"),
    rates: Optional[Sequence[float]] = None,
    num_requests: int = 80,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> Dict[str, RateSweep]:
    """Regenerate one panel of Fig. 8/9/10: latency-vs-rate for each system.

    Every (system, rate) cell is independent, so the grid fans out over
    :class:`~repro.experiments.runner.SweepRunner`: ``jobs`` worker processes
    (1 = the bit-identical serial path) and an optional on-disk result cache
    shared across figure reruns.  Each run builds a fresh cluster in its own
    process -- device weight assignments are mutable state.
    """
    rates = list(rates if rates is not None else PAPER_RATE_GRID[model][dataset])
    cells: List[Tuple[str, float]] = [(s, r) for s in systems for r in rates]
    points = [
        (
            {"system.name": system, "workload.request_rate": rate},
            serving_spec(system, model, dataset, rate, num_requests, seed),
        )
        for system, rate in cells
    ]
    results = SweepRunner(jobs=jobs, cache_dir=cache_dir).run(points)
    _require_rows(results, "rate-sweep")
    sweeps: Dict[str, RateSweep] = {
        system: RateSweep(system=system, model=model, dataset=dataset) for system in systems
    }
    for (system, rate), res in zip(cells, results):
        sweeps[system].points.append(_point_from_row(system, model, dataset, rate, res.row))
    return sweeps


def run_tail_latency(
    model: str = "llama-70b",
    datasets: Sequence[str] = ("sharegpt", "humaneval", "longbench"),
    systems: Sequence[str] = ("hetis", "hexgen", "splitwise"),
    num_requests: int = 80,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> Dict[str, Dict[str, ServingPoint]]:
    """Regenerate Fig. 12 (P95 TTFT / TPOT at the paper's unsaturated rates).

    Returns ``{dataset: {system: point}}``; the (dataset, system) cells run
    through the same parallel, cached runner as :func:`run_rate_sweep`.
    """
    cells: List[Tuple[str, str, float]] = [
        (dataset, system, PAPER_TAIL_RATES[dataset]) for dataset in datasets for system in systems
    ]
    points = [
        (
            {"workload.dataset": dataset, "system.name": system},
            serving_spec(system, model, dataset, rate, num_requests, seed),
        )
        for dataset, system, rate in cells
    ]
    results = SweepRunner(jobs=jobs, cache_dir=cache_dir).run(points)
    _require_rows(results, "tail-latency")
    out: Dict[str, Dict[str, ServingPoint]] = {dataset: {} for dataset in datasets}
    for (dataset, system, rate), res in zip(cells, results):
        out[dataset][system] = _point_from_row(system, model, dataset, rate, res.row)
    return out


def run_module_latency(
    model: str = "llama-70b",
    datasets: Sequence[str] = ("sharegpt", "humaneval", "longbench"),
    systems: Sequence[str] = ("hetis", "hexgen", "splitwise"),
    num_requests: int = 80,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> Dict[str, Dict[str, ServingPoint]]:
    """Regenerate Fig. 13 (P95 decode MLP / Attention module latency).

    The measurements come from the same runs as Fig. 12, so this simply reuses
    :func:`run_tail_latency`; the caller reads ``p95_mlp`` / ``p95_attention``.
    """
    return run_tail_latency(
        model=model,
        datasets=datasets,
        systems=systems,
        num_requests=num_requests,
        seed=seed,
        jobs=jobs,
        cache_dir=cache_dir,
    )
