"""Tests for dynamic-Attention-parallelism primitives and the Fig.-5 argument."""

import pytest

from repro.core.attention_parallel import (
    HeadSplit,
    batchwise_transfer_overhead,
    headwise_transfer_overhead,
    seqwise_transfer_overhead,
)
from repro.hardware.cluster import ClusterBuilder
from repro.models.spec import get_model_spec


@pytest.fixture
def llama70b():
    return get_model_spec("llama-70b")


@pytest.fixture
def offload_cluster():
    return ClusterBuilder().add_host("a100", 1).add_host("p100", 4).build()


class TestHeadSplit:
    def test_valid_split(self):
        split = HeadSplit(request_id=1, total_heads=64, group_size=8, allocation={-1: 48, 5: 16})
        assert split.heads_on(-1) == 48
        assert split.heads_on(5) == 16
        assert split.heads_on(99) == 0
        assert split.offloaded_heads(-1) == 16

    def test_integrity_enforced(self):
        with pytest.raises(ValueError, match="integrity"):
            HeadSplit(request_id=1, total_heads=64, group_size=8, allocation={-1: 40})

    def test_group_multiple_enforced(self):
        with pytest.raises(ValueError, match="multiple"):
            HeadSplit(request_id=1, total_heads=64, group_size=8, allocation={-1: 60, 2: 4})

    def test_negative_heads_rejected(self):
        with pytest.raises(ValueError):
            HeadSplit(request_id=1, total_heads=64, group_size=8, allocation={-1: 72, 2: -8})

    def test_empty_allocation_allowed_before_dispatch(self):
        split = HeadSplit(request_id=1, total_heads=64, group_size=8)
        assert list(split.targets()) == []

    def test_total_heads_must_divide_by_group(self):
        with pytest.raises(ValueError):
            HeadSplit(request_id=0, total_heads=62, group_size=8)


class TestTransferOverheadComparison:
    def test_headwise_cheaper_at_low_offload_ratio(self, llama70b, offload_cluster):
        """Fig. 5(a): at a 20% offload ratio head-wise is several times cheaper."""
        primary = offload_cluster.devices[0]
        worker = offload_cluster.devices[1:2]
        batch = 32
        heads = llama70b.num_heads * 0.2 * batch
        head_t = headwise_transfer_overhead(llama70b, offload_cluster, primary, worker, heads)
        seq_t = seqwise_transfer_overhead(llama70b, offload_cluster, primary, worker, batch)
        assert seq_t / head_t > 1.5

    def test_headwise_advantage_grows_with_workers(self, llama70b, offload_cluster):
        """Fig. 5(b): spreading over more workers helps head-wise, not seq-wise."""
        primary = offload_cluster.devices[0]
        workers = offload_cluster.devices[1:]
        batch = 32
        ratios = []
        for k in (1, 4):
            head_t = headwise_transfer_overhead(
                llama70b, offload_cluster, primary, workers[:k], llama70b.num_heads * batch / k
            )
            seq_t = seqwise_transfer_overhead(llama70b, offload_cluster, primary, workers[:k], batch)
            ratios.append(seq_t / head_t)
        assert ratios[1] > ratios[0]

    def test_zero_offload_is_free(self, llama70b, offload_cluster):
        primary = offload_cluster.devices[0]
        assert headwise_transfer_overhead(llama70b, offload_cluster, primary, [], 10) == 0.0
        assert headwise_transfer_overhead(
            llama70b, offload_cluster, primary, offload_cluster.devices[1:], 0
        ) == 0.0
        assert seqwise_transfer_overhead(llama70b, offload_cluster, primary, [], 1) == 0.0

    def test_batchwise_migration_most_expensive(self, llama70b, offload_cluster):
        """Whole-request migration moves the entire KV cache -- orders of magnitude more."""
        primary, worker = offload_cluster.devices[0], offload_cluster.devices[1]
        batch_t = batchwise_transfer_overhead(llama70b, offload_cluster, primary, worker, 1000)
        head_t = headwise_transfer_overhead(
            llama70b, offload_cluster, primary, [worker], llama70b.num_heads * 0.5
        )
        assert batch_t > 50 * head_t
