"""vLLM-style paged KV-cache block manager (token granularity).

A device's KV memory is carved into fixed-size blocks of ``block_size`` token
slots.  Each sequence owns an integral number of blocks; the last block may be
partially filled.  The manager only does bookkeeping -- it never touches real
memory -- but it enforces exactly the same admission constraints a real paged
allocator would, which is what the serving capacity results (Fig. 11) and the
preemption behaviour depend on.
"""

from __future__ import annotations

from typing import Dict, List

from repro.utils.validation import check_positive


class BlockAllocationError(RuntimeError):
    """Raised when an allocation cannot be satisfied from the free block pool."""


class PagedBlockManager:
    """Paged allocator for a single device's KV-cache memory.

    Parameters
    ----------
    capacity_bytes:
        KV memory available on the device (after weights and reserve).
    kv_bytes_per_token:
        Bytes one token of context occupies on this device.  For a full-model
        replica this is ``ModelSpec.kv_bytes_per_token()``; tensor-parallel or
        head-wise shards pass their proportional share.
    block_size:
        Token slots per block (vLLM's default of 16 is used throughout).
    """

    def __init__(self, capacity_bytes: float, kv_bytes_per_token: float, block_size: int = 16) -> None:
        check_positive("kv_bytes_per_token", kv_bytes_per_token)
        check_positive("block_size", block_size)
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        self.block_size = int(block_size)
        self.kv_bytes_per_token = float(kv_bytes_per_token)
        self.bytes_per_block = self.kv_bytes_per_token * self.block_size
        self.total_blocks = int(capacity_bytes // self.bytes_per_block) if self.bytes_per_block else 0
        self._seq_tokens: Dict[int, int] = {}
        self._seq_blocks: Dict[int, int] = {}
        self._used_blocks = 0

    # -- queries -----------------------------------------------------------------

    @property
    def used_blocks(self) -> int:
        return self._used_blocks

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self._used_blocks

    @property
    def num_sequences(self) -> int:
        return len(self._seq_tokens)

    def tokens_of(self, seq_id: int) -> int:
        """Tokens currently cached for ``seq_id`` (0 if unknown)."""
        return self._seq_tokens.get(seq_id, 0)

    def sequences(self) -> List[int]:
        return list(self._seq_tokens)

    def has_sequence(self, seq_id: int) -> bool:
        return seq_id in self._seq_tokens

    def blocks_needed(self, num_tokens: int) -> int:
        """Blocks required to hold ``num_tokens`` token slots."""
        if num_tokens < 0:
            raise ValueError("num_tokens must be >= 0")
        return -(-num_tokens // self.block_size)

    def can_allocate(self, num_tokens: int) -> bool:
        """Whether a new sequence of ``num_tokens`` fits right now."""
        return self.blocks_needed(num_tokens) <= self.free_blocks

    def can_append(self, seq_id: int, num_tokens: int = 1) -> bool:
        """Whether ``num_tokens`` more tokens fit onto an existing sequence."""
        current = self._seq_tokens.get(seq_id)
        if current is None:
            return self.can_allocate(num_tokens)
        # Inlined blocks_needed/free_blocks: this is called once per running
        # request per iteration (twice when appends commit), so plain integer
        # arithmetic beats the method/property indirection measurably.
        new_blocks = -(-(current + num_tokens) // self.block_size) - self._seq_blocks[seq_id]
        return new_blocks <= self.total_blocks - self._used_blocks

    # -- mutation ----------------------------------------------------------------

    def allocate(self, seq_id: int, num_tokens: int) -> None:
        """Allocate cache space for a new sequence with ``num_tokens`` of context.

        Raises
        ------
        BlockAllocationError
            If the pool cannot satisfy the request.
        ValueError
            If the sequence already has an allocation (callers must use
            :meth:`append` to grow existing sequences).
        """
        if seq_id in self._seq_tokens:
            raise ValueError(f"sequence {seq_id} already allocated; use append()")
        blocks = self.blocks_needed(num_tokens)
        if blocks > self.free_blocks:
            raise BlockAllocationError(
                f"need {blocks} blocks for seq {seq_id}, only {self.free_blocks} free"
            )
        self._seq_tokens[seq_id] = int(num_tokens)
        self._seq_blocks[seq_id] = blocks
        self._used_blocks += blocks

    def append(self, seq_id: int, num_tokens: int = 1) -> None:
        """Grow an existing sequence by ``num_tokens`` (decode-step bookkeeping)."""
        if seq_id not in self._seq_tokens:
            raise KeyError(f"sequence {seq_id} has no allocation")
        if num_tokens < 0:
            raise ValueError("num_tokens must be >= 0")
        new_total = self._seq_tokens[seq_id] + num_tokens
        new_blocks = self.blocks_needed(new_total)
        delta = new_blocks - self._seq_blocks[seq_id]
        if delta > self.free_blocks:
            raise BlockAllocationError(
                f"appending {num_tokens} tokens to seq {seq_id} needs {delta} new blocks, "
                f"only {self.free_blocks} free"
            )
        self._seq_tokens[seq_id] = new_total
        self._seq_blocks[seq_id] = new_blocks
        self._used_blocks += delta

    def free(self, seq_id: int) -> int:
        """Release a sequence's blocks; returns the number of tokens freed."""
        if seq_id not in self._seq_tokens:
            raise KeyError(f"sequence {seq_id} has no allocation")
        tokens = self._seq_tokens.pop(seq_id)
        self._used_blocks -= self._seq_blocks.pop(seq_id)
        return tokens
