"""Tests for trace generation."""

import pytest

from repro.workloads.arrivals import RatePhase
from repro.workloads.trace import Trace, TraceEntry, generate_trace


def test_generate_trace_basic():
    trace = generate_trace("sharegpt", request_rate=5.0, num_requests=40, seed=0)
    assert len(trace) == 40
    assert trace.dataset == "sharegpt"
    assert trace.request_rate == 5.0


def test_trace_sorted_by_arrival():
    trace = generate_trace("humaneval", request_rate=20.0, num_requests=100, seed=1)
    times = [e.arrival_time for e in trace]
    assert times == sorted(times)


def test_trace_deterministic():
    a = generate_trace("longbench", 2.0, 30, seed=5)
    b = generate_trace("longbench", 2.0, 30, seed=5)
    assert [(e.arrival_time, e.prompt_tokens, e.output_tokens) for e in a] == [
        (e.arrival_time, e.prompt_tokens, e.output_tokens) for e in b
    ]


def test_trace_seeds_differ():
    a = generate_trace("sharegpt", 5.0, 30, seed=1)
    b = generate_trace("sharegpt", 5.0, 30, seed=2)
    assert [e.arrival_time for e in a] != [e.arrival_time for e in b]


def test_trace_statistics():
    trace = generate_trace("sharegpt", 5.0, 64, seed=0)
    assert trace.total_prompt_tokens > 0
    assert trace.total_output_tokens > 0
    assert trace.duration == trace.entries[-1].arrival_time
    assert trace.mean_context_tokens > 0


def test_trace_with_phases_caps_requests():
    phases = [RatePhase(rate=10.0, duration=5.0)]
    trace = generate_trace("sharegpt", 0.0, num_requests=10, seed=0, phases=phases)
    assert len(trace) <= 10
    assert all(e.arrival_time < 5.0 for e in trace)


def test_trace_entry_validation():
    with pytest.raises(ValueError):
        TraceEntry(arrival_time=-1.0, prompt_tokens=10, output_tokens=10)
    with pytest.raises(ValueError):
        TraceEntry(arrival_time=0.0, prompt_tokens=0, output_tokens=10)


def test_empty_trace_properties():
    trace = Trace(entries=[])
    assert trace.duration == 0.0
    assert trace.mean_context_tokens == 0.0
    assert len(trace) == 0


# ------------------------------------------------------------------ streaming


def test_generate_trace_stream_phases_matches_list_timestamps():
    from repro.workloads.trace import generate_trace_stream

    phases = [RatePhase(rate=8.0, duration=20.0)]
    trace = generate_trace("sharegpt", 0.0, num_requests=0, seed=3, phases=phases)
    stream = generate_trace_stream("sharegpt", 0.0, num_requests=0, seed=3, phases=phases)
    assert [e.arrival_time for e in stream] == [e.arrival_time for e in trace]


def test_generate_trace_stream_is_deterministic_and_capped():
    from repro.workloads.trace import generate_trace_stream

    stream = generate_trace_stream("sharegpt", 5.0, 20, seed=0, chunk_size=7)
    a, b = list(stream), list(stream)
    assert a == b
    assert len(a) == 20
    assert all(x.arrival_time <= y.arrival_time for x, y in zip(a, a[1:]))


def test_generate_trace_stream_rejects_unbounded_poisson():
    from repro.workloads.trace import generate_trace_stream

    with pytest.raises(ValueError, match="never terminates"):
        generate_trace_stream("sharegpt", 5.0, 0, seed=0)
    with pytest.raises(ValueError, match="chunk_size"):
        generate_trace_stream("sharegpt", 5.0, 10, chunk_size=0)


@pytest.mark.parametrize("chunk_size", [7, 4096])
def test_generate_trace_stream_lengths_are_successive_chunk_draws(chunk_size):
    """The stream's lengths are successive ``sample(rng, chunk_size)`` draws of its length generator."""
    from repro.utils.rng import spawn_rngs
    from repro.workloads.datasets import get_dataset_spec
    from repro.workloads.trace import generate_trace_stream

    n = 2 * chunk_size + 3  # two whole chunks and part of a third
    stream = generate_trace_stream("humaneval", 50.0, n, seed=5, chunk_size=chunk_size)
    _, length_rng = spawn_rngs(5, 2)
    spec = get_dataset_spec("humaneval")
    draws = [s for _ in range(3) for s in spec.sample(length_rng, chunk_size)][:n]
    entries = list(stream)
    assert [(e.prompt_tokens, e.output_tokens) for e in entries] == [(s.prompt_tokens, s.output_tokens) for s in draws]
    assert all(type(e.prompt_tokens) is int and type(e.output_tokens) is int for e in entries)
