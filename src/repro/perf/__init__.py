"""Performance models: device rooflines, communication costs, and the linear dispatch models.

The package layers three models:

1. :mod:`repro.perf.roofline` -- the "ground truth" executor of this
   reproduction.  It converts the analytic FLOP/byte counts of
   :mod:`repro.models.flops` into wall-clock times per device using a roofline
   (max of compute time and memory time) plus per-kernel overhead.  It stands
   in for running real kernels on real GPUs.
2. :mod:`repro.perf.commcost` -- data volumes and transfer times for the
   communication patterns of distributed serving (hidden-state hand-off
   between pipeline stages, tensor-parallel all-reduce, head-wise Q/K/V and
   partial-output exchange of dynamic Attention parallelism, KV migration).
3. :mod:`repro.perf.attention_model` -- the *paper's* lightweight linear
   models (Eq. 3 and Eq. 4).  Each Hetis instance fits them per dispatch
   target from a handful of its own pricing measurements
   (:meth:`~repro.core.hetis_unit.HetisInstanceUnit._fit_device_models`),
   which is how the real Hetis profiles a handful of configurations on real
   hardware.

:mod:`repro.perf.pipeline_cost` compiles the first two into the iteration
cost of one execution unit's stage pipeline, the simulator's hot path.
"""

from repro.perf.roofline import RooflineExecutor, ModuleTiming, IterationTiming
from repro.perf.commcost import CommModel, attention_transfer_bytes, hidden_state_bytes
from repro.perf.attention_model import AttentionTimeModel, TransferTimeModel, DeviceAttentionModel

__all__ = [
    "RooflineExecutor",
    "ModuleTiming",
    "IterationTiming",
    "CommModel",
    "attention_transfer_bytes",
    "hidden_state_bytes",
    "AttentionTimeModel",
    "TransferTimeModel",
    "DeviceAttentionModel",
]
