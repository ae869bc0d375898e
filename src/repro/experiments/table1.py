"""Table 1: memory capacity and OPT-2.7B iteration time per GPU type.

The paper profiles one batch (3 prefill requests, 25 decode requests) through
all layers of OPT-2.7B on an A100, a 3090, and a P100, and reports the memory
capacity alongside the prefill- and decode-phase iteration times.  The
interesting quantities are the *ratios* (A100 is ~2.45x / 24.5x faster than
3090 / P100 in prefill and ~1.47x / 7.93x in decode), which the calibrated
roofline model reproduces (the paper's values sit in the Table 1 rows of
:data:`repro.experiments.claims.CLAIMS`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.hardware.gpu import get_gpu_spec
from repro.models.flops import BatchProfile
from repro.models.spec import get_model_spec
from repro.perf.roofline import RooflineExecutor


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1."""

    device: str
    memory_gb: float
    prefill_time_s: float
    decode_time_s: float
    prefill_ratio_vs_a100: float
    decode_ratio_vs_a100: float


def run_table1(
    prompt_tokens: int = 512,
    decode_context_tokens: int = 512,
    num_prefill: int = 3,
    num_decode: int = 25,
    devices: Sequence[str] = ("a100", "rtx3090", "p100"),
) -> List[Table1Row]:
    """Regenerate Table 1 with the calibrated device model.

    Every device runs one OPT-2.7B prefill batch and one decode batch through
    the roofline model; the ratios are relative to the first device.
    """
    executor = RooflineExecutor(get_model_spec("opt-2.7b"))
    prefill_profile = BatchProfile.prefill_only([prompt_tokens] * num_prefill)
    decode_profile = BatchProfile.decode_only([decode_context_tokens] * num_decode)
    specs = [get_gpu_spec(name) for name in devices]
    prefill = [executor.full_model_time(spec, prefill_profile) for spec in specs]
    decode = [executor.full_model_time(spec, decode_profile) for spec in specs]
    return [
        Table1Row(
            device=name,
            memory_gb=spec.memory_gb,
            prefill_time_s=p,
            decode_time_s=d,
            prefill_ratio_vs_a100=p / prefill[0],
            decode_ratio_vs_a100=d / decode[0],
        )
        for name, spec, p, d in zip(devices, specs, prefill, decode)
    ]
