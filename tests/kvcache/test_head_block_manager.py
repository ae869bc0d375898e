"""Tests for the head-wise (Hetis) KV-cache block manager."""

import pytest

from repro.kvcache.block_manager import BlockAllocationError
from repro.kvcache.head_block_manager import HeadwiseBlockManager
from repro.models.spec import get_model_spec


@pytest.fixture
def mha_manager():
    model = get_model_spec("llama-13b")  # r = 1
    return HeadwiseBlockManager(capacity_bytes=4 * 10**9, model=model)


@pytest.fixture
def gqa_manager():
    model = get_model_spec("llama-70b")  # r = 8
    return HeadwiseBlockManager(capacity_bytes=8 * 10**9, model=model)


def test_capacity_positive(mha_manager):
    assert mha_manager.total_blocks > 0
    assert mha_manager.free_blocks == mha_manager.total_blocks


def test_allocate_partial_heads(mha_manager):
    mha_manager.allocate(1, num_query_heads=10, num_tokens=100)
    assert mha_manager.heads_of(1) == 10
    assert mha_manager.tokens_of(1) == 100
    assert mha_manager.total_query_heads() == 10


def test_gqa_allocation_must_be_group_multiple(gqa_manager):
    with pytest.raises(ValueError, match="multiples of the GQA group size"):
        gqa_manager.allocate(1, num_query_heads=4, num_tokens=10)
    gqa_manager.allocate(1, num_query_heads=16, num_tokens=10)
    assert gqa_manager.heads_of(1) == 16


def test_zero_head_allocation_is_noop(mha_manager):
    mha_manager.allocate(1, num_query_heads=0, num_tokens=100)
    assert not mha_manager.has_sequence(1)
    assert mha_manager.used_blocks == 0


def test_duplicate_allocation_rejected(mha_manager):
    mha_manager.allocate(1, 5, 10)
    with pytest.raises(ValueError):
        mha_manager.allocate(1, 5, 10)


def test_more_heads_use_more_blocks(mha_manager):
    mha_manager.allocate(1, 10, 64)
    ten_heads = mha_manager.used_blocks
    mha_manager.allocate(2, 20, 64)
    assert mha_manager.used_blocks - ten_heads == 2 * ten_heads


def test_append_token_grows_blocks_at_boundary(mha_manager):
    mha_manager.allocate(1, 4, 16)
    base = mha_manager.used_blocks
    mha_manager.append_token(1)
    assert mha_manager.used_blocks == base + 4  # one new block per head group


def test_append_unknown_sequence(mha_manager):
    with pytest.raises(KeyError):
        mha_manager.append_token(7)


def test_free_returns_placement(mha_manager):
    mha_manager.allocate(3, 8, 50)
    placement = mha_manager.free(3)
    assert placement.num_query_heads == 8
    assert placement.context_tokens == 50
    assert placement.token_heads == 400
    assert mha_manager.used_blocks == 0


def test_allocation_failure_when_exhausted():
    model = get_model_spec("llama-13b")
    tiny = HeadwiseBlockManager(capacity_bytes=10**7, model=model)
    with pytest.raises(BlockAllocationError):
        tiny.allocate(1, model.num_heads, 10_000)


def test_can_allocate_and_can_append(mha_manager):
    assert mha_manager.can_allocate(10, 100)
    assert mha_manager.can_append(999)  # nothing stored -> nothing to grow
    mha_manager.allocate(1, 10, 100)
    assert mha_manager.can_append(1)


def test_utilization_and_capacity_token_groups(mha_manager):
    assert mha_manager.utilization == 0.0
    mha_manager.allocate(1, 40, 1600)
    assert 0.0 < mha_manager.utilization <= 1.0
    assert mha_manager.capacity_token_groups == mha_manager.total_blocks * mha_manager.block_size


def test_fetch_time_factor_improves_with_cores():
    single = HeadwiseBlockManager.fetch_time_factor(1)
    many = HeadwiseBlockManager.fetch_time_factor(8)
    assert single > 1.0          # head-wise indexing alone is slower
    assert many < 1.0            # multi-core acceleration wins (paper: ~0.74)
    assert 0.6 < many < 0.9


def test_fetch_time_factor_invalid_cores():
    with pytest.raises(ValueError):
        HeadwiseBlockManager.fetch_time_factor(0)
