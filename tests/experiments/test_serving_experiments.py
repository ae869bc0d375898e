"""Tests for the simulation-backed experiment drivers (Figs. 8-16).

These use deliberately small request counts so the suite stays fast; the
claims table (``repro.experiments.claims``, checked by
``benchmarks/test_claims.py``) runs the full-size studies.
"""

import pytest

from repro.experiments import fig14
from repro.experiments.claims import PAPER_RATE_GRID, PAPER_TAIL_RATES, serving_spec, sweep

pytestmark = pytest.mark.slow


def by(axis, points, metric="mean_normalized_latency"):
    """``metric`` of each ``sweep`` point, keyed by its value on ``axis``."""
    return {overrides[axis]: row[metric] for overrides, row in points}


class TestServing:
    def test_point_fields(self):
        [(overrides, row)] = sweep(serving_spec("hexgen", "llama-13b", "sharegpt", 6.0, num_requests=16), {})
        assert overrides == {}
        assert row["num_finished"] == 16
        assert row["mean_normalized_latency"] > 0
        assert row["p95_ttft"] > 0
        assert row["available_cache_bytes"] > 0

    def test_latency_increases_with_rate(self):
        base = serving_spec("hexgen", "llama-13b", "sharegpt", 2.0, num_requests=24)
        latency = by("workload.request_rate", sweep(base, {"workload.request_rate": (2.0, 30.0)}))
        assert latency[30.0] > latency[2.0]

    def test_hetis_beats_baselines_at_moderate_load(self):
        """The headline Fig. 8 ordering on one representative point."""
        base = serving_spec("hetis", "llama-13b", "sharegpt", 9.0, num_requests=40, seed=1)
        latency = by("system.name", sweep(base, {"system.name": ("hetis", "hexgen", "splitwise")}))
        assert latency["hetis"] < latency["hexgen"]
        assert latency["hetis"] < latency["splitwise"]

    def test_paper_rate_grid_defined_for_all_panels(self):
        for model in ("llama-13b", "opt-30b", "llama-70b"):
            for dataset in ("sharegpt", "humaneval", "longbench"):
                assert len(PAPER_RATE_GRID[model][dataset]) >= 3

    def test_sweep_raises_naming_the_failed_point(self):
        base = serving_spec("hexgen", "llama-13b", "sharegpt", 6.0, num_requests=8)
        with pytest.raises(RuntimeError, match="system.options.bogus=1"):
            sweep(base, {"system.options.bogus": [1]})

    def test_sweep_keeps_grid_order(self):
        base = serving_spec("hetis", "llama-13b", "sharegpt", PAPER_TAIL_RATES["sharegpt"], num_requests=20)
        points = sweep(base, {"system.name": ("hetis", "hexgen")})
        assert [overrides["system.name"] for overrides, _ in points] == ["hetis", "hexgen"]
        assert points[0][1]["p95_tpot"] > 0


class TestFig14:
    def test_dynamic_usage_shape(self):
        result = fig14.run_dynamic_usage(max_requests=60)
        assert result.primary_key in result.head_counts
        assert len(result.worker_keys) == 2
        # The primary carries more load than either attention worker.
        assert result.peak_heads(result.primary_key) > max(
            result.peak_heads(k) for k in result.worker_keys
        )
        # Cache is actually used at some point.
        assert max(result.cache_usage[result.primary_key]) > 0.0


class TestFig15a:
    def test_redispatch_no_worse_than_lifo(self):
        base = serving_spec("hetis", "llama-13b", "sharegpt", 6.0, num_requests=40)
        points = sweep(base, {"system.options.enable_redispatch": (True, False)})
        mean = by("system.options.enable_redispatch", points)
        p95 = by("system.options.enable_redispatch", points, "p95_normalized_latency")
        assert mean[False] / mean[True] >= 0.95
        assert p95[False] / p95[True] >= 0.9
        assert mean[True] > 0


class TestFig16:
    def test_theta_sensitivity_flat_region(self):
        base = serving_spec("hetis", "llama-13b", "sharegpt", 6.0, num_requests=24)
        latency = by("system.options.theta", sweep(base, {"system.options.theta": (0.3, 0.5, 0.7)}))
        # The paper finds the default within a ~10% band of the best setting.
        assert max(lat / latency[0.5] for lat in latency.values()) < 1.3

    def test_profiling_error_resilience(self):
        base = serving_spec("hetis", "llama-13b", "sharegpt", 6.0, num_requests=24)
        latency = by("system.options.profiling_error", sweep(base, {"system.options.profiling_error": (0.0, 0.2)}))
        # Paper: at most ~6.9% inflation at +/-20% error; allow a wider band.
        assert latency[0.2] / latency[0.0] < 1.25


class TestAblations:
    def test_dynamic_parallelism_beats_static(self):
        base = serving_spec("hetis", "llama-13b", "sharegpt", 8.0, num_requests=30)
        latency = by("system.name", sweep(base, {"system.name": ("hetis", "static-tp")}))
        assert latency["static-tp"] / latency["hetis"] > 1.0
