"""Tests for the vLLM-style paged block manager."""

import pytest

from repro.kvcache.block_manager import BlockAllocationError, PagedBlockManager


@pytest.fixture
def manager():
    # 100 blocks of 16 tokens at 1 KB/token.
    return PagedBlockManager(capacity_bytes=100 * 16 * 1024, kv_bytes_per_token=1024, block_size=16)


def test_total_blocks(manager):
    assert manager.total_blocks == 100
    assert manager.free_blocks == 100


def test_blocks_needed_rounds_up(manager):
    assert manager.blocks_needed(1) == 1
    assert manager.blocks_needed(16) == 1
    assert manager.blocks_needed(17) == 2
    assert manager.blocks_needed(0) == 0


def test_allocate_and_free(manager):
    manager.allocate(1, 100)
    assert manager.used_blocks == 7
    assert manager.tokens_of(1) == 100
    freed = manager.free(1)
    assert freed == 100
    assert manager.used_blocks == 0


def test_allocate_twice_rejected(manager):
    manager.allocate(1, 10)
    with pytest.raises(ValueError, match="already allocated"):
        manager.allocate(1, 10)


def test_allocation_failure_when_full(manager):
    manager.allocate(1, 100 * 16)
    with pytest.raises(BlockAllocationError):
        manager.allocate(2, 1)


def test_can_allocate(manager):
    assert manager.can_allocate(100 * 16)
    assert not manager.can_allocate(100 * 16 + 1)


def test_append_within_block_no_new_blocks(manager):
    manager.allocate(1, 10)
    used = manager.used_blocks
    manager.append(1, 2)
    assert manager.used_blocks == used
    assert manager.tokens_of(1) == 12


def test_append_crossing_block_boundary(manager):
    manager.allocate(1, 16)
    manager.append(1, 1)
    assert manager.used_blocks == 2


def test_append_unknown_sequence(manager):
    with pytest.raises(KeyError):
        manager.append(42)


def test_append_beyond_capacity(manager):
    manager.allocate(1, 99 * 16)
    manager.allocate(2, 16)
    with pytest.raises(BlockAllocationError):
        manager.append(2, 17)


def test_can_append(manager):
    manager.allocate(1, 100 * 16 - 16)
    manager.allocate(2, 15)
    assert manager.can_append(2, 1)
    assert not manager.can_append(2, 32)


def test_free_unknown_sequence(manager):
    with pytest.raises(KeyError):
        manager.free(5)


def test_allocation_moves_blocks_from_free_to_used(manager):
    manager.allocate(1, 160)
    assert manager.used_blocks == 10
    assert manager.free_blocks == 90
    manager.free(1)
    assert manager.free_blocks == 100


def test_sequence_bookkeeping(manager):
    manager.allocate(1, 10)
    manager.allocate(2, 20)
    assert manager.num_sequences == 2
    assert sorted(manager.sequences()) == [1, 2]
    manager.free(1)
    assert not manager.has_sequence(1) and manager.has_sequence(2)
    assert manager.num_sequences == 1

def test_zero_capacity_manager():
    manager = PagedBlockManager(capacity_bytes=0, kv_bytes_per_token=1024)
    assert manager.total_blocks == 0
    assert not manager.can_allocate(1)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        PagedBlockManager(capacity_bytes=1024, kv_bytes_per_token=0)
    with pytest.raises(ValueError):
        PagedBlockManager(capacity_bytes=-1, kv_bytes_per_token=10)
