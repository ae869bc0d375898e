"""Integration tests for the chunked-prefill execution model.

The LongBench divergence this fixes: multi-thousand-token summarization
prompts used to prefill in one monolithic iteration, stalling every co-batched
decode request for the whole prefill.  With chunking on, no iteration carries
more prefill tokens than the budget, so decode waits at most one chunk.
"""

from repro.api import build, run, run_system
from repro.config import DeploymentSpec
from repro.workloads.trace import generate_trace

CHUNK = 512
BUDGET = 2048
LIMITS = {"max_prefill_tokens_per_iteration": BUDGET, "prefill_chunk_tokens": CHUNK}
MONOLITHIC = {"max_prefill_tokens_per_iteration": BUDGET}
#: A static-tp deployment on the small cluster.
SMALL = DeploymentSpec().with_overrides({"system.name": "static-tp", "cluster.kind": "small"})


def record_prefill_loads(system):
    """Spy on every unit: log each planned iteration's prefill token load."""
    loads = []
    for unit in system.units:
        original = unit.next_iteration

        def spy(now, _orig=original):
            iteration = _orig(now)
            if iteration is not None:
                # At planning time a completing request has not advanced yet,
                # so remaining_prefill_tokens is exactly its share of this
                # iteration's prefill work.
                load = sum(r.remaining_prefill_tokens for r in iteration.prefill_requests)
                load += sum(c.new_tokens for c in iteration.partial_prefills)
                loads.append((iteration, load))
            return iteration

        unit.next_iteration = spy
    return loads


class TestLongBenchChunking:
    def run_longbench(self, limits, system_name="static-tp", n=12, rate=4.0):
        system = build(SMALL.with_overrides({"system.name": system_name, "system.limits": limits})).system
        loads = record_prefill_loads(system)
        trace = generate_trace("longbench", rate, n, seed=0)
        result = run_system(system, trace)
        return result, loads

    def test_budget_hard_enforced_with_chunking(self):
        result, loads = self.run_longbench(LIMITS)
        assert result.summary.num_finished == 12
        prefill_loads = [load for _, load in loads if load]
        assert prefill_loads, "no prefill iterations observed"
        assert max(prefill_loads) <= BUDGET

    def test_monolithic_prefill_violates_budget(self):
        # The divergence being fixed: without chunking, LongBench prompts blow
        # straight through the per-iteration token budget.
        result, loads = self.run_longbench(MONOLITHIC)
        assert result.summary.num_finished == 12
        assert max(load for _, load in loads) > BUDGET

    def test_decode_not_starved_behind_long_prefill(self):
        # With chunking on, decode requests ride along with prefill chunks
        # instead of waiting out a monolithic long-prompt prefill.
        _, loads = self.run_longbench(LIMITS)
        mixed = [
            it for it, _ in loads
            if it.decode_requests and (it.partial_prefills or it.prefill_requests)
        ]
        assert mixed, "decode never interleaved with prefill chunks"
        # And no decode request ever sits behind more prefill work than the
        # iteration budget allows.
        for it, load in loads:
            if it.decode_requests:
                assert load <= BUDGET

    def test_chunking_shrinks_worst_decode_stall(self):
        # One long prompt lands while short requests are decoding: the longest
        # inter-token gap of the short requests must shrink under chunking,
        # because decode never waits out a monolithic 12k-token prefill.
        def worst_gap(limits):
            system = build(SMALL.with_overrides({"system.limits": limits})).system
            finished = {}
            decoded_at = {}  # request id -> completion times of the iterations that decoded it
            original = system.on_iteration

            def spy(unit, iteration, outcome, now, recorder):
                for req in iteration.decode_requests:
                    decoded_at.setdefault(req.request_id, []).append(now)
                for req in outcome.finished:
                    finished[req.request_id] = req
                return original(unit, iteration, outcome, now, recorder)

            system.on_iteration = spy
            trace = generate_trace("sharegpt", 20.0, 8, seed=3)
            # Splice in one LongBench-sized prompt early in the trace.
            entries = list(trace)
            entries[1] = entries[1].__class__(
                arrival_time=entries[1].arrival_time,
                prompt_tokens=12000,
                output_tokens=entries[1].output_tokens,
            )
            result = run_system(system, trace.__class__(entries=entries))
            assert result.summary.num_finished == 8
            gaps = []
            for req in finished.values():
                if req.prompt_tokens >= 12000:
                    continue
                # Without a preemption every decode batch a request sat in gave
                # it one token, so these are all of its token times.
                assert req.num_preemptions == 0
                token_times = [req.prefill_completion_time] + decoded_at.get(req.request_id, [])
                assert len(token_times) == req.generated_tokens
                gaps += [b - a for a, b in zip(token_times, token_times[1:])]
            return max(gaps)

        chunked = worst_gap(LIMITS)
        monolithic = worst_gap(MONOLITHIC)
        assert chunked < monolithic

    def test_all_systems_complete_longbench_with_chunking(self):
        for name in ("hetis", "hexgen", "splitwise", "static-tp"):
            result = run(SMALL.with_overrides({
                "system.name": name,
                "system.prefill_chunk_tokens": CHUNK,
                "cluster.kind": "small" if name != "splitwise" else "paper",
                "workload.dataset": "longbench",
                "workload.num_requests": 8,
            }))
            assert result.summary.num_finished == 8, name
            assert result.summary.p95_ttft > 0

    def test_splitwise_hands_off_once_after_full_prefill(self):
        prepared = build(DeploymentSpec().with_overrides({
            "system.name": "splitwise",
            "system.prefill_chunk_tokens": CHUNK,
            "workload.dataset": "longbench",
            "workload.request_rate": 4.0,
            "workload.num_requests": 6,
        }))
        result = prepared.run()
        system = prepared.system
        assert result.summary.num_finished == 6
        # One migration per request, fired only when its prefill completed.
        assert system.num_migrations == 6
