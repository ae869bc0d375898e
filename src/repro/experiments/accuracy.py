"""Section 7.4 "Modeling accuracy": how well the Dispatcher's linear models
predict Attention computation time and transfer overhead.

The paper profiles each GPU type once and reports prediction accuracy of up to
93.8 % for computation and 92.4-96.1 % for transfer.  Here every Hetis
instance fits its models from its own pricing when it is built
(:meth:`~repro.core.hetis_unit.HetisInstanceUnit._fit_device_models`).  This
study builds the Hetis deployment of each model on the paper cluster with
:func:`repro.api.build` and scores every dispatch target's
:class:`~repro.perf.attention_model.DeviceAttentionModel` -- the models the
Dispatcher runs -- on random *held-out* operating points, priced through the
same unit methods the fit measures with.  The points are drawn independently
of the fit grid, so the reported accuracy is a generalization number rather
than a training fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.api import build
from repro.config import ClusterSpec, DeploymentSpec, SystemSpec
from repro.models.spec import get_model_spec
from repro.perf.commcost import attention_transfer_bytes
from repro.utils.rng import make_rng


@dataclass
class ModelingAccuracy:
    """Held-out prediction accuracy per ``model/target``: compute for every
    dispatch target, transfer for every Attention worker."""

    compute_accuracy: Dict[str, float] = field(default_factory=dict)
    transfer_accuracy: Dict[str, float] = field(default_factory=dict)

    @property
    def min_compute(self) -> float:
        return min(self.compute_accuracy.values()) if self.compute_accuracy else 0.0

    @property
    def min_transfer(self) -> float:
        return min(self.transfer_accuracy.values()) if self.transfer_accuracy else 0.0


def _accuracy(pairs: List[Tuple[float, float]]) -> float:
    """``1 - mean(|predicted - measured| / measured)`` over ``(predicted, measured)`` pairs."""
    errors = [abs(predicted - measured) / measured for predicted, measured in pairs if measured > 0]
    return float(max(0.0, 1.0 - np.mean(errors)))


def run_modeling_accuracy(
    models: Sequence[str],
    num_holdout: int = 24,
    seed: int = 0,
) -> ModelingAccuracy:
    """Score the Dispatcher's models of each of ``models``' Hetis deployments.

    Per dispatch target, ``num_holdout`` compute points (4-63 requests, each
    holding all H heads at 200-3,999 tokens) and, per Attention worker,
    ``num_holdout`` transfer points (r to 10H offloaded heads).
    """
    result = ModelingAccuracy()
    for model_name in models:
        model = get_model_spec(model_name)
        spec = DeploymentSpec(model=model_name, system=SystemSpec(name="hetis"), cluster=ClusterSpec(kind="paper"))
        prepared = build(spec)
        rng = make_rng(seed + 1)
        for unit in prepared.system.units:
            targets = unit.dispatcher.targets
            for target in targets:
                pairs = []
                for _ in range(num_holdout):
                    n_req = int(rng.integers(4, 64))
                    ctx = int(rng.integers(200, 4000))
                    heads = n_req * model.num_heads
                    predicted = target.device_model.compute.predict(heads, float(heads * ctx))
                    pairs.append((predicted, unit.attention_time(target.target_id, n_req, model.num_heads, ctx)))
                result.compute_accuracy[f"{model_name}/{target.name}"] = _accuracy(pairs)
            for target in targets:
                if not target.device_model.is_remote:
                    continue
                pairs = []
                for _ in range(num_holdout):
                    heads = int(rng.integers(model.gqa_ratio, model.num_heads * 10))
                    predicted = target.device_model.transfer.predict(
                        attention_transfer_bytes(model, float(heads), per_layer=False)
                    )
                    pairs.append((predicted, unit.transfer_time(target.target_id, heads)))
                result.transfer_accuracy[f"{model_name}/{target.name}"] = _accuracy(pairs)
    return result
