"""Tests of the benchmark's own code: inputs, self-time arithmetic, checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import pytest

from perfbench.layers import PER_LAYER, PREDICTIONS, prediction_violations
from perfbench.tracing import Span, Tracer, by_name, self_times
from perfbench.workloads import MIX_LONGBENCH_SHARE, conservation_violations, digest, mixed_trace
from repro.workloads import get_dataset_spec


def test_mixed_trace_is_deterministic_per_seed():
    a, flags_a = mixed_trace(300, 2.0, MIX_LONGBENCH_SHARE, seed=7)
    b, flags_b = mixed_trace(300, 2.0, MIX_LONGBENCH_SHARE, seed=7)
    c, _ = mixed_trace(300, 2.0, MIX_LONGBENCH_SHARE, seed=8)
    assert a.entries == b.entries and flags_a == flags_b
    assert a.entries != c.entries


@pytest.mark.parametrize("n", [10, 300, 501])
def test_mixed_trace_keeps_its_longbench_share(n):
    trace, is_long = mixed_trace(n, 2.0, MIX_LONGBENCH_SHARE, seed=3)
    assert len(trace) == len(is_long) == n
    assert sum(is_long) == round(MIX_LONGBENCH_SHARE * n)
    lb = get_dataset_spec("longbench")
    for entry, long_doc in zip(trace.entries, is_long):
        if long_doc:
            assert lb.prompt_min <= entry.prompt_tokens <= lb.prompt_max
    times = [e.arrival_time for e in trace.entries]
    assert times == sorted(times)


def test_longbench_requests_are_longer_than_chat():
    trace, is_long = mixed_trace(600, 2.0, MIX_LONGBENCH_SHARE, seed=1)
    long_prompts = [e.prompt_tokens for e, f in zip(trace.entries, is_long) if f]
    chat_prompts = [e.prompt_tokens for e, f in zip(trace.entries, is_long) if not f]
    assert sum(long_prompts) / len(long_prompts) > 4 * sum(chat_prompts) / len(chat_prompts)


def _span(id, parent, start, end, agg_child=0.0, in_agg=False, name="x"):
    return Span(id, parent, name, start, end, "run", agg_child=agg_child, in_agg=in_agg)


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        _span(0, None, 0.0, 10.0, agg_child=1.0),  # root, 1 s of aggregated leaf calls
        _span(1, 0, 1.0, 4.0),                      # overlaps span 2: union is [1, 6]
        _span(2, 0, 3.0, 6.0),
        _span(3, 1, 2.0, 3.0),                      # grandchild: covers part of span 1 only
        _span(4, 0, 9.5, 11.0),                     # runs past the root: clipped to [9.5, 10]
        _span(5, 0, 7.0, 8.0, in_agg=True),         # inside an aggregated call: already in agg_child
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 0.5 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.5)
    assert selfs[5] == pytest.approx(1.0)


def test_live_tracer_self_times_add_up_to_the_root():
    tracer = Tracer()

    def leaf(n):
        return sum(range(n))

    leaf_agg = tracer.wrap_aggregate("leaf", leaf)

    def nested_agg(n):
        return leaf_agg(n) + leaf_agg(n)

    outer_agg = tracer.wrap_aggregate("outer", nested_agg)
    child = tracer.wrap_span("child", lambda: outer_agg(20000) + leaf_agg(10000))

    def body():
        total = 0
        for _ in range(3):
            total += child() + leaf_agg(5000)
        return total

    tracer.wrap_span("root", body)()
    names = by_name(tracer.spans)
    assert names["child"]["calls"] == 3 and names["root"]["calls"] == 1
    assert tracer.aggregates["leaf"].calls == 3 * 3 + 3
    span_self = sum(names[n]["self_s"] for n in names)
    agg_self = sum(a.self_s for a in tracer.aggregates.values())
    assert span_self + agg_self == pytest.approx(names["root"]["total_s"], rel=1e-9)
    assert all(v >= 0 for v in self_times(tracer.spans).values())


def test_conservation_check_flags_a_fabricated_violation():
    assert conservation_violations("ok", 10, 7, 2, 1, truncated=False) == []
    lost = conservation_violations("lost", 10, 7, 1, 1, truncated=False)
    assert len(lost) == 1 and "conservation violated" in lost[0]
    cut = conservation_violations("cut", 10, 7, 1, 1, truncated=True)
    assert len(cut) == 1 and "truncated" in cut[0]


def test_digest_is_canonical():
    assert digest([{"a": 1, "b": 2.5}]) == digest([{"b": 2.5, "a": 1}])
    assert digest([{"a": 1}]) != digest([{"a": 2}])


def test_predictions_flag_an_active_layer_where_it_should_be_idle():
    metrics = {name: 0.0 for name, _unit, _better in PER_LAYER}
    for name, active_on in PREDICTIONS.items():
        if "static-humaneval-diurnal" in active_on:
            metrics[name] = 1.0
    assert prediction_violations("static-humaneval-diurnal", metrics) == []
    metrics["dispatch.calls"] = 3.0
    assert prediction_violations("static-humaneval-diurnal", metrics) == [
        "dispatch.calls = 3, predicted 0 on static-humaneval-diurnal"
    ]


def test_instrumentation_restores_every_entry_point():
    import repro.api
    from repro.kvcache.block_manager import PagedBlockManager
    from repro.sim.engine import Engine

    from perfbench.instrument import instrumented

    before = (Engine.__dict__["run"], PagedBlockManager.__dict__["append"], repro.api.build)
    with instrumented(Tracer()):
        assert Engine.__dict__["run"] is not before[0]
        assert repro.api.build is not before[2]
    assert (Engine.__dict__["run"], PagedBlockManager.__dict__["append"], repro.api.build) == before


def test_stratified_uniforms_draw_once_from_every_stratum():
    import numpy as np

    from perfbench.workloads import stratified_uniforms

    u = stratified_uniforms(np.random.default_rng(4), 50)
    assert sorted(np.floor(u * 50).astype(int)) == list(range(50))
