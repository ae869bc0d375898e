"""Tests for metrics collection and summaries."""

import pytest

from repro.sim.engine import Engine
from repro.sim.metrics import MetricsCollector, RequestRecord, percentile
from repro.sim.request import DecodeClock, Request, RequestStatus

from tests.sim.test_batching_parity import WHOLE, seeded_trace, static_system


def finished_request(req_id=0, arrival=0.0, prompt=100, output=4, iteration=0.5):
    req = Request(request_id=req_id, arrival_time=arrival, prompt_tokens=prompt, output_tokens=output)
    req.start_prefill()
    now = arrival + iteration
    req.complete_prefill(now)
    clock = DecodeClock()
    req.join_decode(clock, 0)
    while req.generated_tokens < output:
        now += iteration
        clock.epoch += 1
    req.finish(now)
    return req


def test_percentile_empty_and_basic():
    assert percentile([], 95) == 0.0
    assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_record_from_unfinished_rejected():
    req = Request(request_id=0, arrival_time=0, prompt_tokens=10, output_tokens=5)
    with pytest.raises(ValueError):
        RequestRecord.from_request(req)


def test_record_fields():
    record = RequestRecord.from_request(finished_request())
    assert record.output_tokens == 4
    assert record.ttft == pytest.approx(0.5)
    assert record.tpot == pytest.approx(0.5)
    assert record.normalized_latency == pytest.approx(2.0 / 4)


def test_collector_summary():
    collector = MetricsCollector()
    for i in range(10):
        collector.observe_arrival(float(i))
        collector.observe_finish(finished_request(req_id=i, arrival=float(i)))
    summary = collector.summary()
    assert summary.num_finished == 10
    assert summary.mean_ttft == pytest.approx(0.5)
    assert summary.throughput_rps > 0
    assert summary.throughput_tokens_per_s > 0
    assert summary.total_preemptions == 0
    assert summary.normalized_latency == summary.mean_normalized_latency


def test_collector_module_times():
    collector = MetricsCollector()
    for value in (0.01, 0.02, 0.03):
        collector.observe_module_times({"mlp": value, "attention": value / 2})
    summary = collector.summary()
    assert summary.mean_module_latency["mlp"] == pytest.approx(0.02)
    assert summary.p95_module_latency["attention"] <= 0.015


def test_empty_collector_summary_is_safe():
    summary = MetricsCollector().summary()
    assert summary.num_finished == 0
    assert summary.mean_normalized_latency == 0.0
    assert summary.p95_ttft == 0.0


def test_percentile_accepts_generator_and_empty():
    assert percentile((x for x in []), 95) == 0.0
    assert percentile((float(x) for x in range(5)), 0) == 0.0
    assert percentile([], 50) == 0.0


def test_zero_output_request_record_is_safe():
    # A request shed/force-finished with no tokens must not divide by zero or
    # raise on the None ttft/tpot.
    req = Request(request_id=9, arrival_time=1.0, prompt_tokens=10, output_tokens=1)
    req.status = RequestStatus.FINISHED
    req.finish_time = 3.0
    record = RequestRecord.from_request(req)
    assert record.output_tokens == 0
    assert record.ttft == 0.0
    assert record.tpot == 0.0
    assert record.normalized_latency == 0.0


@pytest.mark.parametrize("bounded", [False, True], ids=["exact", "bounded"])
def test_preemptions_of_unfinished_requests_count(bounded, monkeypatch):
    # Cut off while preempted requests still wait for their fresh prefill:
    # every preemption counts, not only those of requests that finished.
    preempted = []
    preempt = Request.preempt

    def counted(request):
        preempted.append(request)
        preempt(request)

    monkeypatch.setattr(Request, "preempt", counted)
    collector = MetricsCollector(bounded_memory=bounded)
    engine = Engine(static_system(WHOLE), max_simulated_time=30.0, collector=collector)
    result = engine.run(seeded_trace(1, 60, 4.0, 1500, 400))
    assert result.truncated
    assert any(not r.is_finished for r in preempted)
    assert result.summary.total_preemptions == len(preempted) > 0
