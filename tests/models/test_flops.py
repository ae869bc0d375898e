"""Tests for the analytic FLOP/byte cost model."""

import numpy as np
import pytest

from repro.models.flops import BatchProfile, LayerCostModel, ModuleCost
from repro.models.spec import get_model_spec


class TestModuleCost:
    def test_addition(self):
        a = ModuleCost(flops=1.0, weight_bytes=2.0, activation_bytes=3.0, kernels=1)
        b = ModuleCost(flops=10.0, weight_bytes=20.0, activation_bytes=30.0, kernels=2)
        c = a + b
        assert c.flops == 11.0 and c.weight_bytes == 22.0 and c.activation_bytes == 33.0
        assert c.kernels == 3

    def test_scaled_preserves_kernels(self):
        cost = ModuleCost(flops=8.0, weight_bytes=4.0, activation_bytes=2.0, kernels=3)
        half = cost.scaled(0.5)
        assert half.flops == 4.0 and half.weight_bytes == 2.0
        assert half.kernels == 3

    def test_total_bytes(self):
        assert ModuleCost(weight_bytes=5.0, activation_bytes=7.0).total_bytes == 12.0


class TestBatchProfile:
    def test_token_counts(self):
        batch = BatchProfile(prefill_lengths=[100, 200], decode_contexts=[50, 60, 70])
        assert batch.prefill_tokens == 300
        assert batch.decode_tokens == 3
        assert batch.total_tokens == 303
        assert batch.num_requests == 5

    def test_factories(self):
        assert BatchProfile.prefill_only([10]).decode_tokens == 0
        assert BatchProfile.decode_only([10, 20]).prefill_tokens == 0

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            BatchProfile(prefill_lengths=[0])
        with pytest.raises(ValueError):
            BatchProfile(decode_contexts=[-5])


class TestLayerCostModel:
    def setup_method(self):
        self.model = get_model_spec("llama-13b")
        self.cm = LayerCostModel(self.model)

    def test_qkv_flops_formula(self):
        tokens = 64
        cost = self.cm.qkv_cost(tokens)
        d = self.model.hidden_size
        expected = 2 * tokens * d * (d + 2 * self.model.kv_dim)
        assert cost.flops == pytest.approx(expected)

    def test_mlp_flops_gated(self):
        tokens = 16
        cost = self.cm.mlp_cost(tokens)
        expected = 2 * tokens * self.model.hidden_size * self.model.ffn_hidden_size * 3
        assert cost.flops == pytest.approx(expected)

    def test_mlp_flops_ungated_opt(self):
        opt = LayerCostModel(get_model_spec("opt-30b"))
        tokens = 16
        expected = 2 * tokens * opt.model.hidden_size * opt.model.ffn_hidden_size * 2
        assert opt.mlp_cost(tokens).flops == pytest.approx(expected)

    def test_tensor_parallel_scaling(self):
        full = self.cm.mlp_cost(32, tp_degree=1)
        half = self.cm.mlp_cost(32, tp_degree=2)
        assert half.flops == pytest.approx(full.flops / 2)
        assert half.weight_bytes == pytest.approx(full.weight_bytes / 2)

    def test_zero_tokens_zero_cost(self):
        assert self.cm.qkv_cost(0).flops == 0
        assert self.cm.mlp_cost(0).total_bytes == 0
        assert self.cm.dense_cost(BatchProfile()).flops == 0

    def test_dense_cost_depends_only_on_token_count(self):
        a = self.cm.dense_cost(BatchProfile(prefill_lengths=[128]))
        b = self.cm.dense_cost(BatchProfile(decode_contexts=[1000] * 128))
        assert a.flops == pytest.approx(b.flops)

    def test_prefill_attention_quadratic(self):
        short = self.cm.prefill_attention_cost(256)
        long = self.cm.prefill_attention_cost(512)
        assert long.flops == pytest.approx(short.flops * 4, rel=1e-6)

    def test_chunked_prefill_attention_matches_batch_cost(self):
        # The single-request and batched chunk formulas must stay in lockstep.
        single = self.cm.prefill_attention_cost(256, cached_tokens=768)
        batch = self.cm.prefill_attention_batch_cost(
            BatchProfile(prefill_lengths=[256], prefill_cached=[768])
        )
        assert single.flops == batch.flops
        assert single.activation_bytes == batch.activation_bytes

    def test_chunked_prefill_attention_cost_decomposes(self):
        # Chunk flops: new x cached cross-attention plus the chunk's own
        # causal triangle; summed over chunks this covers the full triangle.
        full = self.cm.prefill_attention_cost(1024)
        chunks = [
            self.cm.prefill_attention_cost(256, cached_tokens=cached)
            for cached in (0, 256, 512, 768)
        ]
        assert sum(c.flops for c in chunks) == pytest.approx(full.flops, rel=1e-6)
        # K/V of the cached context are re-read by every later chunk, so the
        # chunked byte total strictly exceeds the monolithic one.
        assert sum(c.activation_bytes for c in chunks) > full.activation_bytes

    def test_decode_attention_linear_in_context(self):
        a = self.cm.decode_attention_cost(500)
        b = self.cm.decode_attention_cost(1000)
        assert b.flops == pytest.approx(a.flops * 2, rel=1e-6)
        assert b.activation_bytes == pytest.approx(a.activation_bytes * 2, rel=0.01)

    def test_decode_attention_linear_in_heads(self):
        full = self.cm.decode_attention_cost(1000, num_query_heads=self.model.num_heads)
        half = self.cm.decode_attention_cost(1000, num_query_heads=self.model.num_heads // 2)
        assert half.flops == pytest.approx(full.flops / 2, rel=1e-6)

    def test_decode_attention_zero_heads(self):
        assert self.cm.decode_attention_cost(1000, num_query_heads=0).flops == 0

    def test_decode_attention_gqa_reads_fewer_kv_bytes(self):
        gqa = LayerCostModel(get_model_spec("llama-70b"))
        mha_like_bytes = gqa.decode_attention_cost(1000, num_query_heads=64).activation_bytes
        one_group = gqa.decode_attention_cost(1000, num_query_heads=8).activation_bytes
        # 64 query heads share only 8 KV heads, so the full-head read is ~8x one group.
        assert mha_like_bytes == pytest.approx(one_group * 8, rel=0.05)

    def test_batch_cost_heads_alignment_checked(self):
        with pytest.raises(ValueError):
            self.cm.decode_attention_batch_cost([100, 200], heads_per_request=[4])

    def test_batch_cost_single_kernel(self):
        cost = self.cm.decode_attention_batch_cost([100, 200, 300])
        assert cost.kernels == 1

    @pytest.mark.parametrize("model_name", ["llama-13b", "llama-70b"])
    def test_decode_attention_closed_form_matches_per_request_sum(self, model_name):
        cm = LayerCostModel(get_model_spec(model_name))
        r = cm.model.gqa_ratio
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 65))
            contexts = [int(c) for c in rng.integers(1, 32768, size=n)]
            heads = [int(h) for h in rng.integers(0, cm.model.num_heads + 1, size=n)]
            per_request = [cm.decode_attention_cost(c, h) for c, h in zip(contexts, heads)]
            batch = cm.decode_attention_batch_cost(contexts, heads)
            assert batch.flops == sum(c.flops for c in per_request)
            assert batch.activation_bytes == sum(c.activation_bytes for c in per_request)
            assert batch.weight_bytes == 0.0 and batch.kernels == (1 if any(heads) else 0)
            closed = cm.decode_attention_from_sums(
                sum(h * c for c, h in zip(contexts, heads)),
                sum(-(-h // r) * c for c, h in zip(contexts, heads)),
                sum(heads),
            )
            assert closed == batch
        if r > 1:
            # The draws include head counts r does not divide (their KV groups round up).
            assert any(h % r for h in heads)

    def test_layer_cost_positive(self):
        batch = BatchProfile(prefill_lengths=[128], decode_contexts=[256, 512])
        cost = self.cm.layer_cost(batch)
        assert cost.flops > 0 and cost.total_bytes > 0

    def test_lm_head_cost(self):
        cost = self.cm.lm_head_cost(10)
        expected = 2 * 10 * self.model.hidden_size * self.model.vocab_size
        assert cost.flops == pytest.approx(expected)
