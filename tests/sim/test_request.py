"""Tests for the request lifecycle state machine."""

import pytest

from repro.sim.request import DecodeClock, Request, RequestStatus


def make(prompt=100, output=5, arrival=1.0):
    return Request(request_id=0, arrival_time=arrival, prompt_tokens=prompt, output_tokens=output)


def test_initial_state():
    req = make()
    assert req.status == RequestStatus.QUEUED
    assert req.context_length == 100
    assert req.remaining_tokens == 5
    assert not req.is_finished


def test_validation():
    with pytest.raises(ValueError):
        Request(request_id=0, arrival_time=0.0, prompt_tokens=0, output_tokens=1)
    with pytest.raises(ValueError):
        Request(request_id=0, arrival_time=0.0, prompt_tokens=1, output_tokens=0)
    with pytest.raises(ValueError):
        Request(request_id=0, arrival_time=-1.0, prompt_tokens=1, output_tokens=1)


def test_full_lifecycle_and_metrics():
    req = make(prompt=100, output=3, arrival=1.0)
    req.start_prefill()
    req.complete_prefill(now=2.0)
    assert req.status == RequestStatus.DECODING
    assert req.generated_tokens == 1
    clock = DecodeClock()
    req.join_decode(clock, position=0)
    clock.epoch += 2  # the unit commits two decode iterations
    assert req.generated_tokens == 3
    req.finish(now=3.0)
    assert req.is_finished
    assert req.ttft == pytest.approx(1.0)
    assert req.tpot == pytest.approx(0.5)
    assert req.normalized_latency == pytest.approx((3.0 - 1.0) / 3)
    assert req.context_length == 103


def test_single_token_request_finishes_at_prefill():
    req = make(output=1)
    req.start_prefill()
    req.complete_prefill(now=5.0)
    assert req.is_finished
    assert req.tpot == 0.0


def test_metrics_none_before_completion():
    req = make()
    assert req.ttft is None
    assert req.tpot is None
    assert req.normalized_latency is None


def test_invalid_transitions():
    req = make()
    with pytest.raises(RuntimeError):
        req.complete_prefill(1.0)
    with pytest.raises(RuntimeError):
        req.join_decode(DecodeClock(), 0)
    req.start_prefill()
    with pytest.raises(RuntimeError):
        req.start_prefill()


def test_preemption_and_recovery():
    req = make(output=10)
    req.start_prefill()
    req.complete_prefill(2.0)
    clock = DecodeClock()
    req.join_decode(clock, 0)
    clock.epoch += 1
    req.preempt()
    assert req.status == RequestStatus.PREEMPTED
    assert req.num_preemptions == 1
    # Re-prefill covers prompt + already generated tokens; the unit's later
    # iterations no longer count for the request.
    clock.epoch += 5
    assert req.context_length == 102
    req.start_prefill()
    req.complete_prefill(4.0)
    assert req.generated_tokens == 3
    # TTFT keeps the first prefill completion.
    assert req.ttft == pytest.approx(1.0)


def test_cannot_preempt_finished():
    req = make(output=1)
    req.start_prefill()
    req.complete_prefill(1.5)
    with pytest.raises(RuntimeError):
        req.preempt()


def test_migration_transitions():
    req = make(output=3)
    req.start_prefill()
    req.begin_migration()
    assert req.status == RequestStatus.MIGRATING
    req.end_migration()
    assert req.status == RequestStatus.DECODING
    with pytest.raises(RuntimeError):
        req.end_migration()


def test_migration_requires_active_request():
    req = make()
    with pytest.raises(RuntimeError):
        req.begin_migration()


def test_prefill_progress_tracking():
    req = make(prompt=1000, output=3)
    assert req.prefill_target == 1000
    assert req.remaining_prefill_tokens == 1000
    req.start_prefill()
    req.advance_prefill(400)
    assert req.prefilled_tokens == 400
    assert req.remaining_prefill_tokens == 600
    assert req.is_partially_prefilled
    req.complete_prefill(1.0)
    assert req.prefilled_tokens == 1000  # the whole prompt was prefilled
    assert not req.is_partially_prefilled
    assert req.generated_tokens == 1


def test_advance_prefill_rejects_final_chunk():
    req = make(prompt=1000, output=3)
    req.start_prefill()
    with pytest.raises(ValueError):
        req.advance_prefill(1000)  # the last chunk must go through complete_prefill
    with pytest.raises(ValueError):
        req.advance_prefill(0)


def test_advance_prefill_requires_prefilling_status():
    req = make(prompt=1000, output=3)
    with pytest.raises(RuntimeError):
        req.advance_prefill(100)


def test_preemption_resets_prefill_progress():
    req = make(prompt=1000, output=3)
    req.start_prefill()
    req.advance_prefill(400)
    req.preempt()
    assert req.prefilled_tokens == 0
    assert req.remaining_prefill_tokens == req.prefill_target


def test_decode_count_follows_the_clock_from_the_join():
    clock = DecodeClock()
    clock.epoch = 40
    req = make(prompt=100, output=10)
    req.start_prefill()
    req.complete_prefill(1.0)
    req.join_decode(clock, position=3)
    assert req.generated_tokens == 1
    clock.epoch += 4
    assert req.generated_tokens == 5
    assert req.context_length == 105
    assert req.decode_base == req.context_length - clock.epoch


def test_mid_commit_count_includes_the_token_once_the_cursor_passes():
    clock = DecodeClock()
    early, late = make(), make()
    for position, req in enumerate((early, late)):
        req.start_prefill()
        req.complete_prefill(1.0)
        req.join_decode(clock, position)
    clock.cursor = 1  # the commit has passed position 0 only
    assert (early.generated_tokens, late.generated_tokens) == (2, 1)
    early.leave_decode()
    clock.epoch, clock.cursor = 1, 0  # the commit ends
    assert (early.generated_tokens, late.generated_tokens) == (2, 2)


def test_finish_stops_the_count():
    clock = DecodeClock()
    req = make(output=3)
    req.start_prefill()
    req.complete_prefill(1.0)
    req.join_decode(clock, 0)
    clock.epoch += 2
    req.finish(2.0)
    clock.epoch += 3
    assert req.generated_tokens == 3
    assert req.decode_clock is None and req.finish_time == 2.0
