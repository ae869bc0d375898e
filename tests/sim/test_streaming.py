"""Streaming-trace engine tier: parity, truncation flags, bounded metrics.

The load-bearing guarantees of the large-trace replay path:

* lazy arrival feeding is *bit-identical* to the historical pre-push loop
  (same entries in a list ``Trace`` vs a ``StreamingTrace`` produce the same
  summary row),
* runs cut short by an engine safety limit say so (``truncated`` +
  ``truncation_reason``), for both causes,
* the bounded-memory collector's GK sketch tracks ``np.percentile`` within
  its documented rank-error bound across seeds,
* a stream split across sketch inserts (the collector's module-time buffer)
  gives the same tuples, means and quantiles as one insert per sample.
"""

import numpy as np
import pytest

from repro.baselines.static_tp import build_static_tp_system
from repro.config import MetricsSpec
from repro.experiments.runner import summary_row
from repro.hardware.cluster import simple_cluster
from repro.models.spec import get_model_spec
from repro.sim.engine import Engine
from repro.sim.metrics import MODULE_BATCH, GKQuantileSketch, MetricsCollector, StreamingStats
from repro.workloads.trace import StreamingTrace, Trace, TraceEntry, generate_trace


def _system():
    cluster = simple_cluster("a100", "rtx3090", n_high=1, n_low=2)
    return build_static_tp_system(cluster, get_model_spec("llama-13b"))


# ------------------------------------------------------------------ parity


def test_streaming_trace_bit_identical_to_list_trace():
    trace = generate_trace("sharegpt", 8.0, 64, seed=0)
    stream = StreamingTrace.from_entries(
        trace.entries, dataset=trace.dataset, request_rate=trace.request_rate
    )
    row_list = summary_row(Engine(_system()).run(trace))
    row_stream = summary_row(Engine(_system()).run(stream))
    assert row_list == row_stream


def test_streaming_parity_across_seeds_and_datasets():
    for seed, dataset in [(1, "humaneval"), (2, "sharegpt")]:
        trace = generate_trace(dataset, 6.0, 32, seed=seed)
        stream = StreamingTrace.from_entries(trace.entries)
        r_list = Engine(_system()).run(trace)
        r_stream = Engine(_system()).run(stream)
        assert summary_row(r_list) == summary_row(r_stream)
        assert r_list.wall_clock_events == r_stream.wall_clock_events


def test_engine_accepts_bare_entry_iterator():
    trace = generate_trace("sharegpt", 8.0, 16, seed=0)
    result = Engine(_system()).run(iter(trace.entries))
    assert result.summary.num_finished == 16


# ------------------------------------------------------------------ truncation


def test_truncation_flag_max_events():
    trace = generate_trace("sharegpt", 8.0, 32, seed=0)
    result = Engine(_system(), max_events=10).run(trace)
    assert result.truncated
    assert result.truncation_reason == "max_events"
    # Only fully processed events are counted.
    assert result.wall_clock_events == 10


def test_truncation_flag_max_simulated_time():
    entries = [
        TraceEntry(arrival_time=1.0, prompt_tokens=100, output_tokens=10),
        TraceEntry(arrival_time=1e6, prompt_tokens=100, output_tokens=10),
    ]
    result = Engine(_system(), max_simulated_time=100.0).run(Trace(entries=entries))
    assert result.truncated
    assert result.truncation_reason == "max_simulated_time"
    assert result.summary.num_finished == 1


def test_completed_run_is_not_truncated():
    result = Engine(_system()).run(generate_trace("sharegpt", 8.0, 12, seed=0))
    assert not result.truncated
    assert result.truncation_reason is None
    assert result.summary.num_finished == 12


# ------------------------------------------------------------------ bounded metrics


def test_bounded_collector_matches_exact_within_tolerance():
    trace = generate_trace("sharegpt", 8.0, 64, seed=0)
    exact = Engine(_system()).run(trace)
    bounded = Engine(
        _system(), collector=MetricsSpec(mode="bounded").build_collector()
    ).run(trace)
    se, sb = exact.summary, bounded.summary
    assert sb.num_finished == se.num_finished
    assert sb.throughput_tokens_per_s == pytest.approx(se.throughput_tokens_per_s)
    assert sb.mean_normalized_latency == pytest.approx(se.mean_normalized_latency)
    assert sb.mean_ttft == pytest.approx(se.mean_ttft)
    # P95s come from the sketch: rank error <= eps*n, which at n=64 and
    # eps=0.005 means the exact order statistic.
    assert sb.p95_ttft == pytest.approx(se.p95_ttft, rel=0.1)
    # No per-request state retained.
    assert bounded.metrics.records == []
    assert bounded.metrics.module_samples == {}


def test_bounded_collector_module_stats():
    trace = generate_trace("sharegpt", 8.0, 32, seed=0)
    exact = Engine(_system()).run(trace)
    bounded = Engine(
        _system(), collector=MetricsCollector(bounded_memory=True)
    ).run(trace)
    assert set(bounded.summary.mean_module_latency) == set(exact.summary.mean_module_latency)
    for name, mean in bounded.summary.mean_module_latency.items():
        assert mean == pytest.approx(exact.summary.mean_module_latency[name])


def test_summary_is_cached_and_invalidated():
    collector = MetricsCollector()
    collector.observe_arrival(1.0)
    first = collector.summary()
    assert collector.summary() is first  # memoized between observations
    collector.observe_arrival(2.0)
    assert collector.summary() is not first


def test_gk_sketch_tracks_numpy_percentile_across_seeds():
    eps = 0.01
    n = 2000
    for seed in range(5):
        rng = np.random.default_rng(seed)
        values = rng.exponential(1.0, size=n)
        sketch = GKQuantileSketch(epsilon=eps)
        for v in values:
            sketch.add(float(v))
        ordered = np.sort(values)
        for q in (0.5, 0.9, 0.95, 0.99):
            got = sketch.query(q)
            # The GK guarantee is on *rank*: the returned value's position in
            # the sorted data lies within eps*n of the target rank.
            rank = np.searchsorted(ordered, got, side="left")
            assert abs(rank - q * n) <= eps * n + 1, (seed, q)
        assert sketch.num_tuples < n / 4  # actually compressing


QUANTILES = (0.0, 0.05, 0.5, 0.9, 0.95, 0.99, 1.0)


# ``add`` inserts a stream one value per call; the collector's buffer splits it
# wherever a flush falls.  Lengths on both sides of the sketch's compress
# interval (100 inserts at the default epsilon) and of that buffer (MODULE_BATCH).
@pytest.mark.parametrize("n", [1, 99, 100, 101, 199, 200, 255, 256, 257, 1031])
def test_gk_batched_inserts_match_per_sample_inserts(n):
    rng = np.random.default_rng(n)
    values = [float(v) for v in np.round(rng.lognormal(size=n), 2)]  # with ties
    one, batched = GKQuantileSketch(), GKQuantileSketch()
    for v in values:
        one.add(v)
    start = 0
    while start < n:
        stop = start + int(rng.integers(1, 300))
        batched.add_many(values[start:stop])
        start = stop
    assert batched._tuples == one._tuples
    assert batched._values == one._values
    assert (len(batched), batched._since_compress) == (len(one), one._since_compress)
    assert [batched.query(q) for q in QUANTILES] == [one.query(q) for q in QUANTILES]


@pytest.mark.parametrize("n", [MODULE_BATCH - 1, MODULE_BATCH, MODULE_BATCH + 1, 3 * MODULE_BATCH + 41])
@pytest.mark.parametrize("bounded", [False, True], ids=["exact", "bounded"])
def test_module_times_match_one_insert_per_sample(n, bounded):
    """Buffered sketch inserts give every mean and quantile bit for bit."""
    rng = np.random.default_rng(n)
    times = [{"mlp": float(a), "attention": float(b), "iteration": float(a + b)} for a, b in rng.lognormal(size=(n, 2))]
    collector = MetricsCollector(bounded_memory=bounded)
    samples = {name: [] for name in times[0]}

    def check():
        summary = collector.summary()
        if bounded:
            reference = {name: StreamingStats() for name in samples}
            for name, values in samples.items():
                for v in values:
                    reference[name].add(v)
            assert summary.mean_module_latency == {k: s.mean for k, s in reference.items()}
            assert summary.p95_module_latency == {k: s.quantile(0.95) for k, s in reference.items()}
            for name, stats in reference.items():
                assert collector._module_stats[name].sketch._tuples == stats.sketch._tuples
        else:
            assert collector.module_samples == samples
            assert summary.mean_module_latency == {k: float(np.mean(v)) for k, v in samples.items()}
            assert summary.p95_module_latency == {k: float(np.percentile(v, 95)) for k, v in samples.items()}

    for i, module_times in enumerate(times):
        if i == n // 2:
            check()  # a summary mid-stream, then more inserts
        collector.observe_module_times(module_times)
        for name, value in module_times.items():
            samples[name].append(value)
    check()


def test_gk_sketch_edge_cases():
    sketch = GKQuantileSketch()
    assert sketch.query(0.5) == 0.0  # empty
    sketch.add(42.0)
    assert sketch.query(0.0) == 42.0
    assert sketch.query(1.0) == 42.0
    with pytest.raises(ValueError):
        sketch.query(1.5)
    with pytest.raises(ValueError):
        GKQuantileSketch(epsilon=0.0)


# ------------------------------------------------------------------ streaming traces


def test_streaming_trace_rejects_out_of_order_entries():
    entries = [
        TraceEntry(arrival_time=2.0, prompt_tokens=10, output_tokens=5),
        TraceEntry(arrival_time=1.0, prompt_tokens=10, output_tokens=5),
    ]
    stream = StreamingTrace(factory=lambda: iter(entries))
    with pytest.raises(ValueError, match="sorted by arrival time"):
        list(stream)


def test_streaming_trace_is_reiterable():
    trace = generate_trace("sharegpt", 8.0, 8, seed=0)
    stream = StreamingTrace.from_entries(trace.entries)
    assert list(stream) == list(stream)
    assert stream.length_hint == 8
    assert stream.materialize().entries == list(trace.entries)
