"""The Profiler: fits the linear Attention and transfer models per device.

The real Hetis runs a handful of Attention-kernel invocations per GPU type
(the paper uses an 8x8 grid of head counts and cache sizes, each taking under
100 ms thanks to layer identity) and fits Eq. (3); network transfers between
each Primary/Attention worker pair are probed similarly to fit Eq. (4).  Here
the "measurements" come from the roofline executor and the interconnect model,
optionally with multiplicative measurement noise so that fitting is not a
tautology, and the resulting accuracy report reproduces the paper's
modeling-accuracy numbers (Section 7.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.hardware.cluster import Cluster
from repro.hardware.gpu import GPUDevice
from repro.models.spec import ModelSpec
from repro.perf.attention_model import (
    AttentionTimeModel,
    TransferTimeModel,
    fit_linear_attention_model,
    fit_linear_transfer_model,
)
from repro.perf.commcost import attention_transfer_bytes
from repro.perf.roofline import RooflineExecutor
from repro.utils.rng import make_rng


@dataclass
class ProfileReport:
    """Fit quality of the profiled models, mirroring the paper's Sec. 7.4 table.

    ``compute_accuracy`` / ``transfer_accuracy`` are per-device mean relative
    accuracies, i.e. ``1 - mean(|predicted - measured| / measured)``.
    """

    compute_accuracy: Dict[str, float] = field(default_factory=dict)
    transfer_accuracy: Dict[str, float] = field(default_factory=dict)

    @property
    def min_compute_accuracy(self) -> float:
        return min(self.compute_accuracy.values()) if self.compute_accuracy else 0.0

    @property
    def min_transfer_accuracy(self) -> float:
        return min(self.transfer_accuracy.values()) if self.transfer_accuracy else 0.0


class Profiler:
    """Fits the Attention-time model of a device and the transfer model of a device pair.

    Parameters
    ----------
    cluster, model:
        The hardware and the LLM being served.
    num_head_samples, num_cache_samples:
        Grid resolution of the profiling sweep (the paper uses 8 x 8).
    measurement_noise:
        Multiplicative noise applied to each simulated measurement, so the fit
        has realistic residuals.
    """

    def __init__(
        self,
        cluster: Cluster,
        model: ModelSpec,
        num_head_samples: int = 8,
        num_cache_samples: int = 8,
        measurement_noise: float = 0.02,
        seed: int = 0,
    ) -> None:
        if num_head_samples < 2 or num_cache_samples < 2:
            raise ValueError("need at least a 2x2 profiling grid")
        self.cluster = cluster
        self.model = model
        self.executor = RooflineExecutor(model)
        self.num_head_samples = num_head_samples
        self.num_cache_samples = num_cache_samples
        self.measurement_noise = measurement_noise
        self.rng = make_rng(seed)
        self._report = ProfileReport()

    # -- measurement ------------------------------------------------------------

    def _measure_attention(self, device: GPUDevice, num_heads: int, cache_token_heads: float) -> float:
        """One simulated Attention-kernel measurement on ``device``.

        The (heads, cache) pair is realised as a synthetic batch of requests
        whose per-request context works out to the requested totals, mirroring
        how the real profiler replays recorded request mixes.
        """
        if num_heads <= 0:
            return 0.0
        # Split the head budget over a few synthetic requests so the kernel sees
        # a realistic multi-request batch rather than one huge request.
        heads_per_req = max(1, self.model.num_heads // 4)
        n_requests = max(1, int(np.ceil(num_heads / heads_per_req)))
        heads = [heads_per_req] * n_requests
        heads[-1] = num_heads - heads_per_req * (n_requests - 1)
        ctx_per_head = cache_token_heads / max(num_heads, 1)
        contexts = [max(1, int(round(ctx_per_head)))] * n_requests
        base = self.executor.decode_attention_time(device.spec, contexts, heads)
        noise = 1.0 + self.rng.normal(0.0, self.measurement_noise)
        return base * max(noise, 0.5)

    def _measure_transfer(self, primary: GPUDevice, worker: GPUDevice, n_bytes: float) -> float:
        base = self.cluster.p2p_time(n_bytes, primary, worker)
        noise = 1.0 + self.rng.normal(0.0, self.measurement_noise)
        return base * max(noise, 0.5)

    # -- fitting ----------------------------------------------------------------

    def profile_attention(self, device: GPUDevice, max_context: int = 4096) -> AttentionTimeModel:
        """Fit Eq. (3) for one device from the profiling grid."""
        head_grid = np.linspace(
            self.model.gqa_ratio, self.model.num_heads * 16, self.num_head_samples
        ).astype(int)
        cache_grid = np.linspace(128.0, float(max_context) * self.model.num_heads, self.num_cache_samples)
        hs: List[float] = []
        gs: List[float] = []
        ts: List[float] = []
        for h in head_grid:
            for g in cache_grid:
                hs.append(float(h))
                gs.append(float(g))
                ts.append(self._measure_attention(device, int(h), float(g)))
        fitted = fit_linear_attention_model(hs, gs, ts)
        self._report.compute_accuracy[device.name] = _relative_accuracy(
            np.array([fitted.predict(h, g) for h, g in zip(hs, gs)]), np.array(ts)
        )
        return fitted

    def profile_transfer(self, primary: GPUDevice, worker: GPUDevice) -> TransferTimeModel:
        """Fit Eq. (4) for one Primary <-> Attention worker pair."""
        head_grid = np.linspace(self.model.gqa_ratio, self.model.num_heads * 8, self.num_head_samples)
        sizes = [attention_transfer_bytes(self.model, float(h)) for h in head_grid]
        times = [self._measure_transfer(primary, worker, s) for s in sizes]
        fitted = fit_linear_transfer_model(sizes, times)
        self._report.transfer_accuracy[f"{primary.name}->{worker.name}"] = _relative_accuracy(
            np.array([fitted.predict(s) for s in sizes]), np.array(times)
        )
        return fitted

    @property
    def report(self) -> ProfileReport:
        """Accuracy report accumulated over all profiling calls so far."""
        return self._report


def _relative_accuracy(predicted: np.ndarray, measured: np.ndarray) -> float:
    """Mean relative accuracy, guarding against zero measurements."""
    mask = measured > 0
    if not np.any(mask):
        return 1.0
    rel_err = np.abs(predicted[mask] - measured[mask]) / measured[mask]
    return float(max(0.0, 1.0 - rel_err.mean()))
