"""Tests for the fast (analytic) experiment drivers: Table 1, Figs. 2, 5, 7,
modeling accuracy, and search overhead.

The paper's claims on these drivers' default inputs are rows of the claims
table (``repro.experiments.claims``, checked by ``benchmarks/test_claims.py``);
the tests here cover the drivers' output shape and the claims checked on
other inputs."""

import pytest

from repro.experiments import accuracy, fig02, fig05, fig07, search_overhead, table1


class TestTable1:
    def test_three_rows_in_device_order(self):
        assert [r.device for r in table1.run_table1()] == ["a100", "rtx3090", "p100"]


class TestFig2:
    def test_series_structure(self):
        series = fig02.run_fig2(num_requests=(20, 100))
        assert set(series) == {"p100", "rtx3090", "a100"}
        assert series["p100"].num_requests == [20, 100]
        assert len(series["p100"].norm_mlp_time) == 2

    def test_key_takeaway_mlp_gap_exceeds_attention_gap(self):
        series = fig02.run_fig2(num_requests=(20, 200))
        assert fig02.mean_gap(series, "p100", "mlp") > fig02.mean_gap(series, "p100", "attention")


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return fig05.run_fig5()

    def test_headwise_beats_seqwise_at_all_ratios(self, result):
        for head, seq in zip(result.headwise_by_ratio, result.seqwise_by_ratio):
            assert head < seq

    def test_advantage_largest_at_low_offload(self, result):
        assert result.headwise_advantage_at(0.2) > result.headwise_advantage_at(0.8)

    def test_headwise_improves_with_more_workers(self, result):
        assert result.headwise_by_workers[-1] < result.headwise_by_workers[0]


class TestFig7:
    def test_monotone_growth(self):
        result = fig07.run_fig7()
        assert result.time_by_context == sorted(result.time_by_context)
        assert result.time_by_heads == sorted(result.time_by_heads)


class TestModelingAccuracy:
    def test_accuracy_at_least_as_good_as_paper(self):
        result = accuracy.run_modeling_accuracy(("opt-30b",), num_holdout=12)
        assert result.min_compute >= 0.90
        assert result.min_transfer >= 0.90
        workers = {f"opt-30b/p100:{i}" for i in range(8, 12)}
        assert set(result.compute_accuracy) == {"opt-30b/hetis-0/primary"} | workers
        assert set(result.transfer_accuracy) == workers

    def test_gqa_worker_models_score_whole_requests(self):
        """llama-70b (r = 8): the fit profiles only head counts a request can hold, so its
        P100 workers predict held-out whole requests to within 1 %."""
        result = accuracy.run_modeling_accuracy(("llama-70b",), num_holdout=12)
        workers = {name: score for name, score in result.compute_accuracy.items() if "/p100:" in name}
        assert len(workers) == 4
        assert min(workers.values()) >= 0.99
        assert result.min_transfer >= 0.99


class TestSearchOverhead:
    def test_search_completes_quickly_on_both_clusters(self):
        results = search_overhead.run_search_overhead(gpus_per_type=16)
        assert len(results) == 2
        paper, large = results
        assert paper.num_devices == 12
        assert large.num_devices == 5 * 16
        assert paper.search_seconds < 10.0
        assert large.search_seconds < 60.0
        assert large.num_primary + large.num_attention_workers <= large.num_devices
