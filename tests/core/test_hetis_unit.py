"""Tests for the Hetis serving instance unit."""

import pytest

from repro.core.attention_parallel import HeadSplit
from repro.core.hetis_unit import PRIMARY_TARGET_ID, HetisInstanceUnit
from repro.hardware.cluster import ClusterBuilder, simple_cluster
from repro.models.spec import get_model_spec
from repro.parallel.config import InstanceParallelConfig, StageConfig
from repro.perf.commcost import attention_transfer_bytes
from repro.sim.request import Request
from repro.sim.scheduler import SchedulerLimits

from tests.sim.test_batching_parity import recounted_loads


def make_unit(model_name="llama-13b", n_workers=2, **kwargs):
    cluster = simple_cluster("a100", "rtx3090", n_high=1, n_low=max(1, n_workers))
    model = get_model_spec(model_name)
    a100 = cluster.devices_of_type("a100")
    workers = cluster.devices_of_type("rtx3090")[:n_workers]
    config = InstanceParallelConfig(
        stages=[StageConfig(devices=a100, num_layers=model.num_layers)],
        attention_workers=workers,
    )
    return HetisInstanceUnit("hetis-test", config, model, cluster, **kwargs), model, cluster


def make_request(req_id=0, prompt=300, output=4, arrival=0.0):
    return Request(request_id=req_id, arrival_time=arrival, prompt_tokens=prompt, output_tokens=output)


def drive(unit, now=0.0, max_iters=200):
    """Run the unit until it drains or the iteration budget is exhausted."""
    finished = []
    for _ in range(max_iters):
        it = unit.next_iteration(now)
        if it is None:
            if not unit.has_work():
                break
            now += 1e-3
            continue
        now += it.duration
        finished += unit.complete_iteration(it, now).finished
    return finished, now


class TestConstruction:
    def test_device_models_fitted_for_all_targets(self):
        unit, model, _ = make_unit()
        assert len(unit.dispatcher.targets) == 3  # primary + 2 workers
        assert unit.dispatcher.targets[0].is_primary
        for target in unit.dispatcher.targets[1:]:
            assert target.device_model.is_remote

    def test_models_predict_positive_times(self):
        unit, model, _ = make_unit()
        for target in unit.dispatcher.targets:
            assert target.device_model.compute.predict(model.num_heads, model.num_heads * 1000) > 0

    def test_slower_device_has_larger_cache_coefficient(self):
        unit, _, _ = make_unit()
        primary, *workers = unit.dispatcher.targets
        for worker in workers:
            assert worker.device_model.compute.b > primary.device_model.compute.b

    def test_worker_transfer_models_have_positive_gamma(self):
        unit, _, _ = make_unit()
        for worker in unit.dispatcher.targets[1:]:
            assert worker.device_model.transfer.gamma > 0

    def test_fit_profiles_head_counts_a_request_can_hold(self, monkeypatch):
        """Every fit sample gives each request a multiple of r heads (llama-70b: r = 8)."""
        seen = []
        measure = HetisInstanceUnit.attention_time

        def spy(self, target_id, num_requests, heads, context):
            seen.append(heads)
            return measure(self, target_id, num_requests, heads, context)

        monkeypatch.setattr(HetisInstanceUnit, "attention_time", spy)
        _, model, _ = make_unit("llama-70b")
        assert seen and all(h % model.gqa_ratio == 0 for h in seen)

    def test_gqa_models_predict_whole_requests(self):
        unit, model, _ = make_unit("llama-70b")
        for target in unit.dispatcher.targets:
            for n_req, ctx in ((4, 200), (17, 1234), (63, 3999)):
                heads = n_req * model.num_heads
                measured = unit.attention_time(target.target_id, n_req, model.num_heads, ctx)
                assert target.device_model.compute.predict(heads, heads * ctx) == pytest.approx(measured, rel=1e-6)

    def test_transfer_models_predict_transfer_time(self):
        """Eq. (4) is exact for a link priced per byte: the fit reproduces held-out head counts."""
        unit, model, _ = make_unit("llama-70b")
        for target in unit.dispatcher.targets[1:]:
            for heads in (8, 40, 200, 520):
                n_bytes = attention_transfer_bytes(model, float(heads), per_layer=False)
                measured = unit.transfer_time(target.target_id, heads)
                assert target.device_model.transfer.predict(n_bytes) == pytest.approx(measured, rel=1e-6)

    def test_attention_time_is_what_decode_iterations_charge(self, monkeypatch):
        """The fit's measurement prices a decode batch exactly as the iteration does."""
        unit, model, _ = make_unit()
        charged = []
        price = HetisInstanceUnit._decode_attention_time

        def spy(self, decode_requests):
            batch = [(dict(self._splits[r.request_id].allocation), r.context_length) for r in decode_requests]
            charged.append((batch, price(self, decode_requests)))
            return charged[-1][1]

        monkeypatch.setattr(HetisInstanceUnit, "_decode_attention_time", spy)
        unit.enqueue(make_request(prompt=500, output=6), 0.0)
        drive(unit)
        decode = [(batch, time) for batch, time in charged if batch]
        assert len(decode) == 5
        for [(allocation, context)], time in decode:
            assert allocation == {PRIMARY_TARGET_ID: model.num_heads}
            assert unit.attention_time(PRIMARY_TARGET_ID, 1, model.num_heads, context) == time

    def test_kv_capacity_counts_attention_workers(self):
        with_workers, _, _ = make_unit(n_workers=2)
        without, _, _ = make_unit(n_workers=1)
        assert with_workers.available_kv_bytes() > without.available_kv_bytes()

    def test_profiling_error_perturbs_models(self):
        clean, _, _ = make_unit(seed=1)
        noisy, _, _ = make_unit(profiling_error=0.2, seed=1)
        a_clean = clean.dispatcher.targets[0].device_model.compute.a
        a_noisy = noisy.dispatcher.targets[0].device_model.compute.a
        assert a_clean != pytest.approx(a_noisy)


class TestServingLoop:
    def test_single_request_completes_with_correct_tokens(self):
        unit, _, _ = make_unit()
        req = make_request(output=5)
        unit.enqueue(req, 0.0)
        finished, _ = drive(unit)
        assert finished == [req]
        assert req.generated_tokens == 5
        assert req.ttft is not None and req.tpot is not None
        # Cache fully released.
        assert all(v == 0.0 for v in unit.kv_utilization().values())
        assert unit.head_counts()["hetis-test/primary"] == 0.0

    def test_many_requests_all_complete(self):
        unit, _, _ = make_unit()
        reqs = [make_request(i, prompt=200 + 50 * i, output=3) for i in range(12)]
        for r in reqs:
            unit.enqueue(r, 0.0)
        finished, _ = drive(unit)
        assert len(finished) == 12

    def test_decode_iterations_report_module_times(self):
        unit, _, _ = make_unit()
        unit.enqueue(make_request(output=4), 0.0)
        it = unit.next_iteration(0.0)
        unit.complete_iteration(it, it.duration)
        decode_it = unit.next_iteration(it.duration)
        assert decode_it.module_times["mlp"] > 0
        assert decode_it.module_times["attention"] > 0

    def test_head_counts_track_resident_requests(self):
        unit, model, _ = make_unit()
        unit.enqueue(make_request(output=6), 0.0)
        it = unit.next_iteration(0.0)
        unit.complete_iteration(it, it.duration)
        counts = unit.head_counts()
        assert sum(counts.values()) == model.num_heads

    def test_splits_respect_head_integrity(self):
        unit, model, _ = make_unit()
        for i in range(6):
            unit.enqueue(make_request(i, prompt=500, output=3), 0.0)
        unit.next_iteration(0.0)
        for split in unit._splits.values():
            assert sum(split.allocation.values()) == model.num_heads


class TestMemoryPressure:
    def make_tiny_unit(self, enable_redispatch=True):
        """A single P100 primary + one P100 worker serving OPT-2.7B: tight memory."""
        cluster = ClusterBuilder().add_host("p100", 2).build()
        model = get_model_spec("opt-2.7b")
        config = InstanceParallelConfig(
            stages=[StageConfig(devices=cluster.devices[:1], num_layers=model.num_layers)],
            attention_workers=cluster.devices[1:],
        )
        return (
            HetisInstanceUnit(
                "tiny",
                config,
                model,
                cluster,
                limits=SchedulerLimits(max_running_requests=64),
                enable_redispatch=enable_redispatch,
            ),
            model,
        )

    def test_no_deadlock_under_pressure_with_redispatch(self):
        unit, _ = self.make_tiny_unit(enable_redispatch=True)
        reqs = [make_request(i, prompt=1500, output=200) for i in range(6)]
        for r in reqs:
            unit.enqueue(r, 0.0)
        finished, _ = drive(unit, max_iters=800)
        assert len(finished) + unit.num_waiting + unit.num_running + len(unit.dropped) == 6
        assert len(finished) >= 1

    def test_no_deadlock_under_pressure_with_lifo(self):
        unit, _ = self.make_tiny_unit(enable_redispatch=False)
        reqs = [make_request(i, prompt=1500, output=200) for i in range(6)]
        for r in reqs:
            unit.enqueue(r, 0.0)
        finished, _ = drive(unit, max_iters=800)
        assert len(finished) >= 1

    def test_oversized_request_dropped_not_deadlocked(self):
        unit, model = self.make_tiny_unit()
        huge = make_request(0, prompt=500_000, output=10)
        unit.enqueue(huge, 0.0)
        it = unit.next_iteration(0.0)
        assert it is None
        assert huge in unit.dropped


class TestFailedRedispatch:
    """A re-dispatch whose new placement does not fit leaves only the old placement behind."""

    def decoding_unit(self):
        """A request decoding on the Primary, and the second Attention worker full."""
        unit, model, _ = make_unit(n_workers=2)
        request = make_request(prompt=300, output=20)
        unit.enqueue(request, 0.0)
        now = 0.0
        for _ in range(4):
            it = unit.next_iteration(now)
            now += it.duration
            unit.complete_iteration(it, now)
        assert dict(unit._splits[request.request_id].allocation) == {PRIMARY_TARGET_ID: model.num_heads}
        w1, w2 = (w.device_id for w in unit.config.attention_workers)
        full = unit._managers[w2]
        full.allocate(-1, model.gqa_ratio, full.free_blocks * full.block_size)
        assert full.free_blocks == 0
        return unit, model, request, w1, w2

    @pytest.mark.parametrize("placed_first", ["worker", "primary"])
    def test_failed_redispatch_frees_the_partial_placement(self, placed_first):
        unit, model, request, w1, w2 = self.decoding_unit()
        rid = request.request_id
        old = unit._splits[rid]
        first = w1 if placed_first == "worker" else PRIMARY_TARGET_ID
        half = model.num_heads // 2
        # The first target takes its half, then the full worker raises.
        unit._apply_redispatch(rid, HeadSplit(rid, model.num_heads, model.gqa_ratio, {first: half, w2: half}))
        assert unit._splits[rid] is old and unit.num_redispatches == 0
        assert unit._managers[PRIMARY_TARGET_ID].heads_of(rid) == model.num_heads
        assert not unit._managers[w1].has_sequence(rid) and unit._managers[w1].used_blocks == 0
        heads, token_heads = unit.target_loads()
        assert heads[1] == token_heads[1] == 0
        recounted_heads, recounted_token_heads = recounted_loads(unit)
        recounted_heads[2] += model.gqa_ratio  # the sequence filling the full worker
        assert (heads, token_heads) == (recounted_heads, recounted_token_heads)

        finished, _ = drive(unit)
        assert finished == [request]
        assert unit._managers[PRIMARY_TARGET_ID].used_blocks == unit._managers[w1].used_blocks == 0
