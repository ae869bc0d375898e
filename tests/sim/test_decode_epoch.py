"""The decode epoch's lazy state against a recount from scratch.

A unit counts a decoding request's tokens from its decode epoch, visits only
due events (block starts, last tokens, hand-offs' first tokens) and keeps
running decode sums.  After every committed iteration the recount here must
agree with all of it:

* the core's context sum and count of the decoding requests equal a fresh
  pass over them, and on a Hetis unit so does every decode-Attention slot's
  Σ h·ctx, Σ ⌈h/r⌉·ctx, Σ h and Σ ⌈h/r⌉, recounted from the requests' splits
  (:func:`recounted_slot_ledger`);
* each decoding request's cached count matches its KV: ``ceil(cached / 16)``
  blocks in a static table, ``groups x ceil(cached / 16)`` on every Hetis
  target;
* each decoding request has exactly one due event, at the epoch of its next
  token that starts a block, is its last, or is a hand-off's first.

A Hetis unit's load ledger is checked at every read instead: each time the
dispatcher or re-dispatcher reads h_i and g_i, mid-commit included, they must
equal a recount over the requests holding cache (:func:`gate_loads`).
"""

from typing import Dict, List

import pytest

from repro import api
from repro.core.attention_parallel import HeadSplit
from repro.core.hetis_unit import PRIMARY_TARGET_ID, HetisInstanceUnit
from repro.core.redispatch import RedispatchAction, RedispatchDecision
from repro.hardware.cluster import simple_cluster
from repro.models.spec import get_model_spec
from repro.parallel.config import InstanceParallelConfig, StageConfig
from repro.sim.request import Request
from repro.sim.scheduler import SchedulerLimits

from tests.sim.test_batching_parity import (
    PRICING_CASES,
    outcomes,
    recounted_loads,
    replay,
    seeded_trace,
    use_reference_path,
)
from tests.sim.test_kv_conservation import SPECS


def recounted_slot_ledger(unit: HetisInstanceUnit, decoding: List[Request]) -> List[List[int]]:
    """Per decode-Attention slot, ``[Σ h·ctx, Σ ⌈h/r⌉·ctx, Σ h, Σ ⌈h/r⌉]`` over ``decoding``.

    Every Primary shard fraction runs its rounded share of a request's
    Primary heads; every Attention worker runs the heads its split gives it.
    """
    r = unit.model.gqa_ratio
    sums = [[0, 0, 0, 0] for _ in range(len(unit.pipeline.fractions) + len(unit.config.attention_workers))]
    for req in decoding:
        allocation = unit._splits[req.request_id].allocation
        primary = allocation.get(PRIMARY_TARGET_ID, 0)
        heads = [int(round(primary * frac)) for frac in unit.pipeline.fractions]
        heads += [allocation.get(w.device_id, 0) for w in unit.config.attention_workers]
        for slot_sums, h in zip(sums, heads):
            groups = -(-h // r)
            slot_sums[0] += h * req.context_length
            slot_sums[1] += groups * req.context_length
            slot_sums[2] += h
            slot_sums[3] += groups
    return sums


def check_lazy_state(unit) -> None:
    clock, block_size = unit.clock, unit.block_size
    decoding = [r for r in unit.running if r.decode_clock is clock]
    assert len(decoding) == len(unit.running), "a running request is not decoding between iterations"

    assert unit._decode_context() == sum(req.context_length for req in decoding)
    assert unit._decode_sums[1] == len(decoding)
    if isinstance(unit, HetisInstanceUnit):
        epoch = clock.epoch
        ledger = [[hb + epoch * h, gb + epoch * g, h, g] for hb, gb, h, g in unit._slot_ledger]
        assert ledger == recounted_slot_ledger(unit, decoding)

    for req in decoding:
        cached, rid = unit.cached_tokens(req), req.request_id
        blocks = -(-cached // block_size)
        if isinstance(unit, HetisInstanceUnit):
            for target_id in unit._splits[rid].targets():
                manager = unit._managers[target_id]
                assert manager._blocks[rid] == manager.heads_of(rid) // unit.model.gqa_ratio * blocks, rid
                assert manager.tokens_of(rid) <= cached, rid
        else:
            assert unit._table._seq_blocks[rid] == blocks, rid

    assert not unit._due
    live: Dict[Request, int] = {}
    for epoch, position, req in unit._events:
        if req.decode_clock is clock and req.decode_position == position:
            assert req not in live, f"request {req.request_id} has two due events"
            live[req] = epoch
    for req in decoding:
        ahead = 0
        if req.prefill_completion_time is not None:
            ahead = min(-unit.cached_tokens(req) % block_size, req.output_tokens - req.generated_tokens - 1)
        assert live.get(req) == clock.epoch + ahead, req.request_id


def recount_after_every_iteration(units) -> List[int]:
    """Wrap each unit's commit with :func:`check_lazy_state`; returns a per-unit iteration tally."""
    checked = [0] * len(units)
    for i, unit in enumerate(units):
        complete = unit.complete_iteration

        def recounted(iteration, now, unit=unit, complete=complete, i=i):
            outcome = complete(iteration, now)
            check_lazy_state(unit)
            checked[i] += 1
            return outcome

        unit.complete_iteration = recounted
    return checked


def gate_loads(units) -> Dict[str, int]:
    """Check every Hetis dispatcher's h_i and g_i against :func:`recounted_loads` at each read.

    Returns a live tally of the reads, and of those made while a commit
    walks its due events (``clock.cursor`` past 0).
    """
    tally = {"reads": 0, "mid-commit": 0}
    for unit in units:
        if not isinstance(unit, HetisInstanceUnit):
            continue
        loads = unit.dispatcher.loads

        def checked(unit=unit, loads=loads):
            read = loads()
            assert read == recounted_loads(unit), f"{unit.name} at epoch {unit.clock.epoch}"
            tally["reads"] += 1
            tally["mid-commit"] += unit.clock.cursor > 0
            return read

        unit.dispatcher.loads = checked
    return tally


@pytest.mark.parametrize("case", sorted(PRICING_CASES))
def test_lazy_state_matches_a_recount_on_the_parity_cases(case):
    build, trace_args = PRICING_CASES[case]
    system = build()
    checked = recount_after_every_iteration(system.units)
    tally = gate_loads(system.units)
    replay(system, seeded_trace(*trace_args))
    assert sum(checked) > 0
    assert tally["reads"] > 0 or not case.startswith("hetis")
    if case in ("hetis-redispatch", "hetis-gqa-offload"):
        # Cache exhaustion while committing re-dispatches: the reads that
        # must count the requests the commit has passed.
        assert tally["mid-commit"] > 0


@pytest.mark.slow
@pytest.mark.parametrize("name", ["fleet-seed1", "hetis-fleet"])
def test_lazy_state_matches_a_recount_through_failures(name):
    # Failures preempt running work between a unit's plan and its commit.
    prepared = api.build(SPECS[name])
    checked = recount_after_every_iteration(prepared.system.units)
    tally = gate_loads(prepared.system.units)
    result = prepared.run()
    assert prepared.system.failure_events and not result.truncated
    assert sum(checked) > 0
    assert tally["reads"] > 0 or name != "hetis-fleet"


@pytest.mark.slow
@pytest.mark.parametrize("name", ["hetis-whole", "hetis-chunked"])
def test_load_ledger_matches_a_recount_on_the_paper_cluster(name):
    prepared = api.build(SPECS[name])
    tally = gate_loads(prepared.system.units)
    prepared.run()
    assert tally["reads"] > 0


# -- a re-dispatch that moves another request's block boundary onto this token ------------


def roomy_hetis_unit() -> HetisInstanceUnit:
    cluster = simple_cluster("a100", "rtx3090", n_high=1, n_low=1)
    model = get_model_spec("llama-13b")
    config = InstanceParallelConfig(
        stages=[StageConfig(devices=cluster.devices_of_type("a100"), num_layers=model.num_layers)],
        attention_workers=cluster.devices_of_type("rtx3090"),
    )
    return HetisInstanceUnit("hetis", config, model, cluster, limits=SchedulerLimits(max_running_requests=8))


def force_redispatch(unit: HetisInstanceUnit, phase: str, side: str, fired: List[str]) -> None:
    """Once, in ``phase``, make a block start exhausted and re-dispatch another request.

    The re-dispatched request is the first decoding request on ``side`` of the
    one making room whose context is a multiple of 16: its cache is
    re-allocated at that context, so its next token starts a block.
    """
    exhausted = unit._exhausted
    in_phase = [False]
    step_name = {"plan": "next_iteration", "commit": "complete_iteration"}[phase]
    step = getattr(unit, step_name)

    def stepped(*args):
        in_phase[0] = True
        try:
            return step(*args)
        finally:
            in_phase[0] = False

    setattr(unit, step_name, stepped)

    def pick(request):
        order = list(unit.running)
        before = order[: order.index(request)]
        after = order[order.index(request) + 1:]
        for other in before if side == "before" else after:
            if other.decode_clock is unit.clock and other.context_length % 16 == 0:
                return other
        return None

    def forced_exhausted(request):
        if not fired and in_phase[0] and unit.cached_tokens(request) % 16 == 0 and pick(request) is not None:
            fired.append(phase)
            return PRIMARY_TARGET_ID
        return exhausted(request)

    handle = unit.redispatcher.handle_cache_exhaustion

    def forced_handle(exhausted_id, splits, contexts, order):
        handle(exhausted_id, splits, contexts, order)  # reads the loads, as a real trigger does
        victim = pick(unit._current)
        allocation = dict(splits[victim.request_id].allocation)
        worker = unit.config.attention_workers[0].device_id
        moved = unit.model.num_heads // 2
        allocation[PRIMARY_TARGET_ID] = allocation.get(PRIMARY_TARGET_ID, 0) - moved
        allocation[worker] = allocation.get(worker, 0) + moved
        split = HeadSplit(victim.request_id, unit.model.num_heads, unit.model.gqa_ratio,
                          {t: h for t, h in allocation.items() if h > 0})
        return RedispatchDecision(RedispatchAction.REDISPATCH, victim.request_id, split)

    unit._exhausted = forced_exhausted
    unit.redispatcher.handle_cache_exhaustion = forced_handle


def drive(unit, requests, max_iterations=400):
    """Serve ``requests`` (all queued at 0) and list every planned iteration."""
    for req in requests:
        unit.enqueue(req, 0.0)
    iterations, now = [], 0.0
    for _ in range(max_iterations):
        iteration = unit.next_iteration(now)
        if iteration is None:
            break
        iterations.append(([r.request_id for r in iteration.decode_requests], iteration.duration))
        now += iteration.duration
        unit.complete_iteration(iteration, now)
    assert not unit.has_work()
    return iterations


def boundary_requests(phase: str, side: str) -> List[Request]:
    # After prefill, the 32-token prompt's cache ends a block, so its first
    # decode token starts one.  The other request's context is 48 when that
    # token's room is made, so after the re-dispatch its next token starts a
    # block: this iteration's, unless a commit that reached it first already
    # gave it this iteration's token (admitted first, forced while
    # committing); then the next iteration's.
    making_room = Request(0, 0.0, prompt_tokens=32, output_tokens=40)
    moved = Request(1, 0.0, prompt_tokens=46 if (phase, side) == ("commit", "before") else 47, output_tokens=40)
    return [moved, making_room] if side == "before" else [making_room, moved]


@pytest.mark.parametrize("phase", ["plan", "commit"])
@pytest.mark.parametrize("side", ["before", "after"])
def test_redispatch_onto_this_iterations_block_start(phase, side, monkeypatch):
    fast, fired = roomy_hetis_unit(), []
    force_redispatch(fast, phase, side, fired)
    checked = recount_after_every_iteration([fast])
    tally = gate_loads([fast])
    fast_requests = boundary_requests(phase, side)
    fast_iterations = drive(fast, fast_requests)
    assert fired == [phase] and fast.num_cache_redispatches == 1 and checked[0] > 0
    # Only a commit that has passed the moved request reads mid-commit with
    # a cursor past 0: then the ledger must count that request's new token.
    assert tally["mid-commit"] == ((phase, side) == ("commit", "before"))

    reference, ref_fired = roomy_hetis_unit(), []
    use_reference_path([reference], monkeypatch)
    force_redispatch(reference, phase, side, ref_fired)
    ref_requests = boundary_requests(phase, side)
    assert drive(reference, ref_requests) == fast_iterations
    assert ref_fired == [phase]
    assert outcomes({r.request_id: r for r in fast_requests}) == outcomes({r.request_id: r for r in ref_requests})
