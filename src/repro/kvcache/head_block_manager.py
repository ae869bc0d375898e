"""Head-wise KV-cache block manager (Hetis' fine-grained cache substrate).

Hetis splits cache blocks along the head dimension so that the KV cache of a
single request can be distributed across several GPUs at the granularity of a
KV-head group (``r = num_heads / num_kv_heads`` query heads share one group).
This manager does that bookkeeping for one device:

* allocations are keyed by ``(seq_id)`` and record *how many query heads* of
  that sequence live here (always a multiple of ``r``) and how many tokens of
  context have been cached for those heads;
* capacity is enforced in paged blocks whose byte size scales with the number
  of resident head groups, matching constraint (6)/(7b) of the paper
  (``sum_j x_i^j * l_j <= r * M_i / 2``);
* the block-index fetch model behind Fig. 15(b) (multi-core accelerated
  indexing) is :meth:`fetch_time_factor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.kvcache.block_manager import BlockAllocationError
from repro.models.spec import ModelSpec
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class HeadPlacement:
    """How many query heads of a sequence a given device holds, and the cached
    context length for those heads on that device."""

    seq_id: int
    num_query_heads: int
    context_tokens: int

    def __post_init__(self) -> None:
        if self.num_query_heads < 0 or self.context_tokens < 0:
            raise ValueError("placement quantities must be >= 0")

    @property
    def token_heads(self) -> int:
        """The g_i contribution of this placement: tokens x query heads."""
        return self.num_query_heads * self.context_tokens


class HeadwiseBlockManager:
    """Paged, head-granular KV-cache accounting for one device.

    Parameters
    ----------
    capacity_bytes:
        KV memory available on the device.
    model:
        The model spec; provides head counts, the GQA ratio ``r``, and the
        per-token per-head-group byte footprint.
    block_size:
        Token slots per block (per head group).

    Block counts, and so every capacity answer, are always exact.  A caller
    may append a sequence's tokens in bulk, though: the Hetis unit appends
    only at block starts, so between those points :meth:`tokens_of` lags
    behind the sequence.  The manager therefore keeps no g_i: the unit's load
    ledger (:meth:`~repro.core.hetis_unit.HetisInstanceUnit.target_loads`)
    supplies the dispatcher's exact g_i, and :meth:`total_query_heads` (h_i)
    is a running total.
    """

    def __init__(self, capacity_bytes: float, model: ModelSpec, block_size: int = 16) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        check_positive("block_size", block_size)
        self.model = model
        self.block_size = int(block_size)
        # Bytes stored per token for one KV-head group (covering r query heads),
        # across all layers resident on this device.
        self.bytes_per_token_group = model.kv_bytes_per_token_per_head_group()
        self.bytes_per_block_group = self.bytes_per_token_group * self.block_size
        self.total_blocks = (
            int(capacity_bytes // self.bytes_per_block_group) if self.bytes_per_block_group else 0
        )
        self._heads: Dict[int, int] = {}
        self._tokens: Dict[int, int] = {}
        self._blocks: Dict[int, int] = {}
        self._used_blocks = 0
        self._total_heads = 0

    # -- derived quantities ---------------------------------------------------------

    def _head_groups(self, num_query_heads: int) -> int:
        """Convert a query-head count to KV-head groups (must be an integral multiple)."""
        r = self.model.gqa_ratio
        if num_query_heads % r != 0:
            raise ValueError(
                f"head allocations must be multiples of the GQA group size r={r}, "
                f"got {num_query_heads}"
            )
        return num_query_heads // r

    def _blocks_needed(self, num_query_heads: int, num_tokens: int) -> int:
        groups = self._head_groups(num_query_heads)
        blocks_per_group = -(-num_tokens // self.block_size) if num_tokens else 0
        return groups * blocks_per_group

    # -- queries ----------------------------------------------------------------------

    @property
    def used_blocks(self) -> int:
        return self._used_blocks

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self._used_blocks

    @property
    def capacity_token_groups(self) -> int:
        """Capacity expressed in (token x KV-head-group) slots -- the paper's M_i * r / 2
        style budget used in the dispatch LP."""
        return self.total_blocks * self.block_size

    @property
    def utilization(self) -> float:
        return self._used_blocks / self.total_blocks if self.total_blocks else 0.0

    def heads_of(self, seq_id: int) -> int:
        return self._heads.get(seq_id, 0)

    def tokens_of(self, seq_id: int) -> int:
        return self._tokens.get(seq_id, 0)

    def has_sequence(self, seq_id: int) -> bool:
        return seq_id in self._heads

    def sequences(self) -> List[int]:
        return list(self._heads)

    def total_query_heads(self) -> int:
        """The h_i quantity: query heads resident on this device (all sequences)."""
        return self._total_heads

    def can_allocate(self, num_query_heads: int, num_tokens: int) -> bool:
        if num_query_heads == 0:
            return True
        return self._blocks_needed(num_query_heads, num_tokens) <= self.free_blocks

    def can_append(self, seq_id: int, num_tokens: int = 1) -> bool:
        if seq_id not in self._heads:
            return True  # nothing stored here, nothing to grow
        heads = self._heads[seq_id]
        new_blocks = self._blocks_needed(heads, self._tokens[seq_id] + num_tokens) - self._blocks[seq_id]
        return new_blocks <= self.free_blocks

    # -- mutation ---------------------------------------------------------------------

    def allocate(self, seq_id: int, num_query_heads: int, num_tokens: int) -> None:
        """Place ``num_query_heads`` heads of a sequence here with ``num_tokens`` context."""
        if seq_id in self._heads:
            raise ValueError(f"sequence {seq_id} already has a placement; free it first")
        if num_query_heads == 0:
            return
        blocks = self._blocks_needed(num_query_heads, num_tokens)
        if blocks > self.free_blocks:
            raise BlockAllocationError(
                f"seq {seq_id}: need {blocks} head-blocks, only {self.free_blocks} free"
            )
        self._heads[seq_id] = int(num_query_heads)
        self._tokens[seq_id] = int(num_tokens)
        self._blocks[seq_id] = blocks
        self._used_blocks += blocks
        self._total_heads += int(num_query_heads)

    def append_token(self, seq_id: int, num_tokens: int = 1) -> None:
        """Record ``num_tokens`` newly generated tokens for a resident sequence."""
        if seq_id not in self._heads:
            raise KeyError(f"sequence {seq_id} has no placement on this device")
        new_total = self._tokens[seq_id] + num_tokens
        new_blocks = self._blocks_needed(self._heads[seq_id], new_total)
        delta = new_blocks - self._blocks[seq_id]
        if delta > self.free_blocks:
            raise BlockAllocationError(
                f"seq {seq_id}: appending {num_tokens} tokens needs {delta} blocks, "
                f"only {self.free_blocks} free"
            )
        self._tokens[seq_id] = new_total
        self._blocks[seq_id] = new_blocks
        self._used_blocks += delta

    def free(self, seq_id: int) -> HeadPlacement:
        """Remove a sequence's placement, returning what was freed."""
        if seq_id not in self._heads:
            raise KeyError(f"sequence {seq_id} has no placement on this device")
        placement = HeadPlacement(
            seq_id=seq_id,
            num_query_heads=self._heads.pop(seq_id),
            context_tokens=self._tokens.pop(seq_id),
        )
        self._used_blocks -= self._blocks.pop(seq_id)
        self._total_heads -= placement.num_query_heads
        return placement

    # -- overhead accounting (Fig. 15b) -------------------------------------------------

    @staticmethod
    def fetch_time_factor(cpu_cores: int, baseline_cores: int = 1) -> float:
        """Relative block-index fetch time vs. the single-core token-wise baseline.

        Head-wise indexing does more lookups but parallelises across CPU cores
        (paper Section 6); with enough cores it ends up ~26% faster, which is
        the number Fig. 15(b) reports.  The model: the indexing work roughly
        doubles, and the multi-core speedup follows Amdahl with a modest
        per-core efficiency (indexing is memory-bound on the host, so extra
        cores help sub-linearly).
        """
        if cpu_cores <= 0:
            raise ValueError("cpu_cores must be > 0")
        work_factor = 2.0
        efficiency = 0.25
        speedup = 1.0 + efficiency * (min(cpu_cores, 8) - 1)
        baseline_speedup = 1.0 + efficiency * (min(baseline_cores, 8) - 1)
        return (work_factor / speedup) / (1.0 / baseline_speedup)
