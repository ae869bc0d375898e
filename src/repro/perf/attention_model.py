"""The paper's linear models of decode Attention time and transfer overhead.

Eq. (3):  tau_i(t) = a_i * h_i(t) + b_i * g_i(t) + c_i
    where ``h_i`` is the number of query heads and ``g_i`` the total cached
    context (token-heads) resident on device ``i``.

Eq. (4):  rho_i(t) = gamma_i * d_i(t) + beta_i
    the alpha-beta point-to-point transfer model with
    ``d_i(t) = (2 + 2/r) * h_i(t)`` head-vectors of traffic.

These models are deliberately simple -- they are what allows the online
Dispatcher to solve a linear program per batch of arrivals.  Each Hetis
instance fits them per dispatch target
(:meth:`~repro.core.hetis_unit.HetisInstanceUnit._fit_device_models`), and
they can be perturbed (``with_error``) to reproduce the paper's
profiling-error robustness study (Fig. 16b).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.models.spec import ModelSpec
from repro.perf.commcost import attention_transfer_bytes


@dataclass(frozen=True)
class AttentionTimeModel:
    """Linear decode-Attention time model for one device (paper Eq. 3).

    ``a`` is seconds per query head, ``b`` seconds per cached token-head
    (one token of context belonging to one query head), and ``c`` a fixed
    per-invocation cost.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0 or self.c < 0:
            raise ValueError("attention model coefficients must be >= 0")

    def predict(self, num_heads: float, cache_token_heads: float) -> float:
        """Predicted Attention time for ``num_heads`` and ``cache_token_heads``."""
        if num_heads < 0 or cache_token_heads < 0:
            raise ValueError("inputs must be >= 0")
        if num_heads == 0 and cache_token_heads == 0:
            return 0.0
        return self.a * num_heads + self.b * cache_token_heads + self.c

    def with_error(self, rel_error: float, rng: np.random.Generator | None = None) -> "AttentionTimeModel":
        """Return a copy whose coefficients are perturbed by up to ``rel_error``.

        Used for the profiling-error sensitivity experiment: each coefficient
        is multiplied by a factor drawn uniformly from
        ``[1 - rel_error, 1 + rel_error]`` (or exactly ``1 + rel_error`` when
        no RNG is supplied, the worst case).
        """
        if rng is None:
            factors = np.full(3, 1.0 + rel_error)
        else:
            factors = rng.uniform(1.0 - rel_error, 1.0 + rel_error, size=3)
        return AttentionTimeModel(
            a=max(self.a * factors[0], 0.0),
            b=max(self.b * factors[1], 0.0),
            c=max(self.c * factors[2], 0.0),
        )


@dataclass(frozen=True)
class TransferTimeModel:
    """Linear transfer-overhead model between a Primary and an Attention worker
    (paper Eq. 4): ``rho = gamma * d + beta`` with ``d`` in bytes."""

    gamma: float  # seconds per byte (inverse bandwidth)
    beta: float   # fixed latency in seconds

    def __post_init__(self) -> None:
        if self.gamma < 0 or self.beta < 0:
            raise ValueError("transfer model coefficients must be >= 0")

    def predict(self, n_bytes: float) -> float:
        if n_bytes < 0:
            raise ValueError("n_bytes must be >= 0")
        if n_bytes == 0:
            return 0.0
        return self.gamma * n_bytes + self.beta

    def with_error(self, rel_error: float, rng: np.random.Generator | None = None) -> "TransferTimeModel":
        """Coefficient perturbation analogous to :meth:`AttentionTimeModel.with_error`."""
        if rng is None:
            factors = np.full(2, 1.0 + rel_error)
        else:
            factors = rng.uniform(1.0 - rel_error, 1.0 + rel_error, size=2)
        return TransferTimeModel(gamma=max(self.gamma * factors[0], 0.0), beta=max(self.beta * factors[1], 0.0))


LOCAL_TRANSFER = TransferTimeModel(gamma=0.0, beta=0.0)
"""Transfer model of a Primary worker talking to itself (no network)."""


@dataclass(frozen=True)
class DeviceAttentionModel:
    """A device's complete dispatching view: compute model + transfer model.

    ``is_remote`` is False for the Primary worker itself (its own attention
    shares need no network hop) and True for pooled Attention workers.
    """

    device_id: int
    device_name: str
    compute: AttentionTimeModel
    transfer: TransferTimeModel = LOCAL_TRANSFER
    is_remote: bool = False

    def attention_time(self, model: ModelSpec, num_heads: float, cache_token_heads: float) -> float:
        """The dispatcher objective term f_i for this device (paper Sec. 5.2.2).

        For remote Attention workers the per-head transfer cost is folded into
        the head coefficient (as in the paper's expression
        ``(a_i + (2 + 2/r) * gamma_i) * h_i + b_i * g_i + c_i + beta_i``).
        """
        base = self.compute.predict(num_heads, cache_token_heads)
        if not self.is_remote or num_heads <= 0:
            return base
        return base + self.transfer.predict(
            attention_transfer_bytes(model, num_heads, per_layer=False)
        )

    @lru_cache(maxsize=1024)
    def head_coefficient(self, model: ModelSpec) -> float:
        """Marginal cost of one additional query head (excluding cache term).

        Memoized: the coefficient is a pure function of the (frozen) device
        model and the model spec, yet the dispatcher historically recomputed
        it for every dispatch round of every iteration.  The cache is keyed by
        value -- ``(device model, model spec)`` -- and sized for heterogeneous
        multi-replica fleets plus the perturbed copies the profiling-error
        study creates: 64 entries thrashed once a sweep mixed more than a few
        fleet shapes (a traced perfbench run reports the hit rate as
        ``cost.lru_head_coefficient_hit_rate``).
        """
        coeff = self.compute.a
        if self.is_remote:
            coeff += self.transfer.gamma * attention_transfer_bytes(model, 1.0, per_layer=False)
        return coeff

    def cache_coefficient(self) -> float:
        """Marginal cost of one additional cached token-head."""
        return self.compute.b

    def fixed_cost(self) -> float:
        """Cost paid as soon as the device computes any attention at all."""
        return self.compute.c + (self.transfer.beta if self.is_remote else 0.0)

    def with_error(self, rel_error: float, rng: np.random.Generator | None = None) -> "DeviceAttentionModel":
        return replace(
            self,
            compute=self.compute.with_error(rel_error, rng),
            transfer=self.transfer.with_error(rel_error, rng),
        )


def fit_linear_attention_model(
    heads: Sequence[float],
    cache_token_heads: Sequence[float],
    times: Sequence[float],
) -> AttentionTimeModel:
    """Least-squares fit of Eq. (3) from profiled (h, g, time) samples.

    The fit is constrained to non-negative coefficients by clipping, which is
    adequate because the underlying times are genuinely increasing in both
    regressors.
    """
    h = np.asarray(heads, dtype=float)
    g = np.asarray(cache_token_heads, dtype=float)
    t = np.asarray(times, dtype=float)
    if not (h.shape == g.shape == t.shape):
        raise ValueError("heads, cache_token_heads, and times must have equal length")
    if h.size < 3:
        raise ValueError("need at least 3 samples to fit a 3-parameter model")
    design = np.column_stack([h, g, np.ones_like(h)])
    coeffs, *_ = np.linalg.lstsq(design, t, rcond=None)
    a, b, c = (float(max(x, 0.0)) for x in coeffs)
    return AttentionTimeModel(a=a, b=b, c=c)


def fit_linear_transfer_model(n_bytes: Sequence[float], times: Sequence[float]) -> TransferTimeModel:
    """Least-squares fit of Eq. (4) from profiled (bytes, time) samples."""
    x = np.asarray(n_bytes, dtype=float)
    t = np.asarray(times, dtype=float)
    if x.shape != t.shape:
        raise ValueError("n_bytes and times must have equal length")
    if x.size < 2:
        raise ValueError("need at least 2 samples to fit a 2-parameter model")
    design = np.column_stack([x, np.ones_like(x)])
    coeffs, *_ = np.linalg.lstsq(design, t, rcond=None)
    gamma, beta = (float(max(v, 0.0)) for v in coeffs)
    return TransferTimeModel(gamma=gamma, beta=beta)
