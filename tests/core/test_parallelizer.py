"""Tests for the Parallelizer's primary-worker parallelism search."""

import pytest

from repro.api import build_cluster
from repro.core.parallelizer import PREFILL_WEIGHT, Parallelizer, WorkloadHint
from repro.core.system import build_hetis_system
from repro.hardware.cluster import ClusterBuilder, paper_cluster
from repro.models.spec import get_model_spec


@pytest.fixture
def hint():
    return WorkloadHint(avg_prompt_tokens=400, avg_context_tokens=800, expected_concurrency=64)


class TestWorkloadHint:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadHint(avg_prompt_tokens=0)
        with pytest.raises(ValueError):
            WorkloadHint(expected_concurrency=0)

    def test_kv_demand(self, hint):
        model = get_model_spec("llama-13b")
        assert hint.kv_demand_bytes(model) == pytest.approx(
            64 * 800 * model.kv_bytes_per_token()
        )


class TestPaperClusterPlans:
    @pytest.fixture(scope="class")
    def plan70b(self):
        return Parallelizer(paper_cluster(), get_model_spec("llama-70b"), WorkloadHint()).plan()

    def test_llama70b_roles_match_paper_deployment(self, plan70b):
        """Paper Sec. 7.2: A100s and 3090s are Primary workers, P100s Attention workers."""
        primary_types = {d.spec.name for d in plan70b.primary_devices}
        attention_types = {d.spec.name for d in plan70b.attention_workers}
        assert primary_types == {"a100", "rtx3090"}
        assert attention_types == {"p100"}
        assert len(plan70b.attention_workers) == 4

    def test_llama70b_stage_layers_skewed_towards_a100(self, plan70b):
        instance = plan70b.config.instances[0]
        by_type = {s.devices[0].spec.name: s.num_layers for s in instance.stages}
        assert by_type["a100"] > by_type["rtx3090"]
        assert sum(s.num_layers for s in instance.stages) == 80

    def test_llama70b_fits_in_memory(self, plan70b):
        for instance in plan70b.config.instances:
            assert instance.fits_in_memory(get_model_spec("llama-70b"))

    def test_search_is_fast(self, plan70b):
        # Paper: 4 s on the real cluster; the analytic model is far cheaper.
        assert plan70b.search_seconds < 5.0
        assert plan70b.configs_evaluated > 0

    def test_llama13b_prunes_p100s(self):
        plan = Parallelizer(paper_cluster(), get_model_spec("llama-13b"), WorkloadHint()).plan()
        assert all(d.spec.name == "p100" for d in plan.attention_workers)
        assert len(plan.attention_workers) >= 2


class TestPruningCriterion:
    def test_delta_zero_keeps_every_device_as_primary(self):
        plan = Parallelizer(
            paper_cluster(), get_model_spec("llama-70b"), WorkloadHint(), delta=0.0
        ).plan()
        assert len(plan.attention_workers) == 0

    def test_larger_delta_prunes_at_least_as_many(self):
        small = Parallelizer(paper_cluster(), get_model_spec("llama-70b"), delta=0.02).plan()
        large = Parallelizer(paper_cluster(), get_model_spec("llama-70b"), delta=0.3).plan()
        assert len(large.attention_workers) >= len(small.attention_workers)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            Parallelizer(paper_cluster(), get_model_spec("llama-13b"), delta=-0.1)


class TestFeasibility:
    def test_model_too_large_for_cluster_raises(self):
        tiny = ClusterBuilder().add_host("p100", 2).build()
        with pytest.raises(RuntimeError):
            Parallelizer(tiny, get_model_spec("llama-70b"), WorkloadHint()).plan()

    def test_single_type_cluster_plans_without_attention_workers(self):
        cluster = ClusterBuilder().add_host("a100", 4).build()
        plan = Parallelizer(cluster, get_model_spec("llama-13b"), WorkloadHint()).plan()
        assert len(plan.attention_workers) == 0
        assert len(plan.primary_devices) >= 1

    def test_max_instances_respected(self):
        plan = Parallelizer(
            paper_cluster(), get_model_spec("llama-13b"), WorkloadHint(), max_instances=1
        ).plan()
        assert plan.num_instances == 1


class TestCostSurface:
    @pytest.mark.parametrize("cluster_kind, model_name", [("paper", "llama-13b"), ("a100:4", "opt-2.7b")])
    def test_plan_cost_is_what_the_units_are_charged(self, hint, cluster_kind, model_name):
        """The plan's cost prices the hint's prefill and decode step through each unit's own pipeline."""
        system = build_hetis_system(build_cluster(cluster_kind), get_model_spec(model_name), hint=hint)
        concurrency = max(1, hint.expected_concurrency // system.plan.num_instances)
        charged = []
        for unit in system.units:
            prefill, _, _ = unit.pipeline.iteration([(hint.avg_prompt_tokens, 0)], 0)
            decode, _, _ = unit.pipeline.iteration([], concurrency, concurrency * hint.avg_context_tokens)
            charged.append(PREFILL_WEIGHT * prefill + (1.0 - PREFILL_WEIGHT) * decode)
        assert system.plan.cost == max(charged)
