"""Fig. 16: robustness studies -- the re-dispatching threshold Theta and
profiling error.

Panel (a) sweeps Theta from 0.3 to 0.7 and reports the per-token latency
relative to the default (0.5): too small a Theta triggers excessive cache
migration, too large leaves the computation imbalanced, and the default sits
in a flat optimal region.

Panel (b) perturbs the fitted Attention/transfer model coefficients (a, b, c,
gamma, beta) by up to +/-20 % and reports the latency inflation; the paper
measures at most ~6.9 %, i.e. the system is resilient to profiling error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.api import run
from repro.experiments.e2e import serving_spec


@dataclass
class ThetaSensitivity:
    """Panel (a): latency ratio (vs. the default Theta) per dataset."""

    thetas: List[float] = field(default_factory=list)
    latency_ratio: Dict[str, List[float]] = field(default_factory=dict)

    def worst_ratio(self, dataset: str) -> float:
        return max(self.latency_ratio.get(dataset, [1.0]) or [1.0])


def run_theta_sensitivity(
    model: str = "llama-13b",
    datasets: Sequence[str] = ("sharegpt", "humaneval", "longbench"),
    thetas: Sequence[float] = (0.3, 0.4, 0.5, 0.6, 0.7),
    request_rate: float = 6.0,
    num_requests: int = 60,
    seed: int = 0,
) -> ThetaSensitivity:
    """Regenerate Fig. 16(a)."""
    result = ThetaSensitivity(thetas=list(thetas))
    for dataset in datasets:
        spec = serving_spec("hetis", model, dataset, request_rate, num_requests, seed)
        latencies: List[float] = []
        for theta in thetas:
            summary = run(spec.with_overrides({"system.options.theta": theta})).summary
            latencies.append(summary.mean_normalized_latency)
        default_idx = list(thetas).index(0.5) if 0.5 in thetas else len(thetas) // 2
        baseline = latencies[default_idx] or 1.0
        result.latency_ratio[dataset] = [lat / baseline for lat in latencies]
    return result


@dataclass
class ProfilingErrorSensitivity:
    """Panel (b): latency inflation versus the error-free run."""

    error_levels: List[float] = field(default_factory=list)
    latency_inflation: List[float] = field(default_factory=list)

    @property
    def max_inflation(self) -> float:
        return max(self.latency_inflation) if self.latency_inflation else 1.0


def run_profiling_error_sensitivity(
    model: str = "llama-13b",
    dataset: str = "sharegpt",
    error_levels: Sequence[float] = (0.05, 0.10, 0.15, 0.20),
    request_rate: float = 6.0,
    num_requests: int = 60,
    seed: int = 0,
) -> ProfilingErrorSensitivity:
    """Regenerate Fig. 16(b)."""

    spec = serving_spec("hetis", model, dataset, request_rate, num_requests, seed)

    def latency(error: float) -> float:
        summary = run(spec.with_overrides({"system.options.profiling_error": error})).summary
        return summary.mean_normalized_latency

    baseline = latency(0.0) or 1.0
    result = ProfilingErrorSensitivity(error_levels=list(error_levels))
    for error in error_levels:
        result.latency_inflation.append(latency(error) / baseline)
    return result
