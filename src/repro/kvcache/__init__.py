"""KV-cache management substrates.

Two block managers are provided:

* :class:`~repro.kvcache.block_manager.PagedBlockManager` -- the vLLM-style
  paged allocator that manages a device's KV memory in fixed-size blocks at
  token granularity.  Splitwise and HexGen instances (and Hetis Primary
  workers for prefill) use this.
* :class:`~repro.kvcache.head_block_manager.HeadwiseBlockManager` -- Hetis'
  finer-grained manager that further splits blocks along the head dimension so
  that different KV-head groups of the *same* request can live on different
  GPUs (paper Section 6, "KV cache management").

:mod:`repro.kvcache.migration` plans partial, head-wise cache migrations for
the Hauler, reusing overlap between the old and new head placements so only
the moved head groups are transferred.
"""

from repro.kvcache.block_manager import PagedBlockManager, BlockAllocationError
from repro.kvcache.head_block_manager import HeadwiseBlockManager, HeadPlacement
from repro.kvcache.migration import MigrationPlan, MigrationStep, plan_head_migration

__all__ = [
    "PagedBlockManager",
    "BlockAllocationError",
    "HeadwiseBlockManager",
    "HeadPlacement",
    "MigrationPlan",
    "MigrationStep",
    "plan_head_migration",
]
