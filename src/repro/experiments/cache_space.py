"""Fig. 11: maximum available KV-cache space per system, model, and dataset.

For every (model, dataset) pair and every system, this driver builds the
deployment (which fixes how parameters are placed) and reports the KV-cache
space that can actually be used to host decoding requests:

* Hetis counts every byte left after weights on Primary *and* Attention
  workers, because head-wise placement can direct cache anywhere;
* HexGen / static pipelines are limited by their bottleneck device (the
  computation/memory-imbalance waste of Fig. 1b);
* Splitwise only counts the decode instance (the prefill copy's cache is
  transient), and pays for two full parameter copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.api import build
from repro.config import DeploymentSpec, SystemSpec, WorkloadSpec


@dataclass(frozen=True)
class CacheSpaceCell:
    """One bar of Fig. 11."""

    system: str
    model: str
    dataset: str
    cache_gb: float


def run_cache_space(
    models: Sequence[str] = ("llama-13b", "opt-30b", "llama-70b"),
    datasets: Sequence[str] = ("sharegpt", "humaneval", "longbench"),
    systems: Sequence[str] = ("hetis", "hexgen", "splitwise"),
) -> List[CacheSpaceCell]:
    """Regenerate Fig. 11."""
    cells: List[CacheSpaceCell] = []
    for model in models:
        for dataset in datasets:
            for system in systems:
                spec = DeploymentSpec(
                    model=model, system=SystemSpec(name=system), workload=WorkloadSpec(dataset=dataset)
                )
                serving = build(spec).system
                cells.append(
                    CacheSpaceCell(
                        system=system,
                        model=model,
                        dataset=dataset,
                        cache_gb=serving.available_cache_bytes() / 1e9,
                    )
                )
    return cells
