"""Tests for the parallel experiment runner and the spec-driven driver.

The determinism suite is the load-bearing part: a pool run (``jobs=4``) must
produce rows bit-identical to the serial fallback (``jobs=1``) -- including
for elastic, heterogeneous deployments -- and a cache hit must return the
same rows without re-simulating anything.
"""

import json
from pathlib import Path

import pytest

from repro.config import ConfigError, DeploymentSpec, expand_grid
from repro.experiments import runner as runner_mod
from repro.experiments.driver import load_study
from repro.experiments.runner import ResultCache, SweepRunner, Task, table_row


BASE = DeploymentSpec.from_dict(
    {
        "model": "llama-13b",
        "system": {"name": "static-tp"},
        "cluster": {"kind": "a100:1"},
        "workload": {"dataset": "sharegpt", "request_rate": 8.0, "num_requests": 5, "seed": 0},
    }
)

#: Includes replicated + elastic + heterogeneous machinery: per-replica
#: blueprints, a capacity-weighted router, autoscaling, and admission control.
ELASTIC_HETEROGENEOUS = DeploymentSpec.from_dict(
    {
        "model": "llama-13b",
        "system": {"name": "static-tp"},
        "cluster": {"replica_kinds": ["a100:1", "rtx3090:2"]},
        "router": {"name": "weighted-least-kv"},
        "elasticity": {
            "autoscaler": "target-kv",
            "autoscaler_options": {"interval": 1.0, "target_utilization": 0.5},
            "admission": "queue-threshold",
            "admission_options": {"max_queue_depth": 4, "mode": "reject"},
        },
        "workload": {"dataset": "sharegpt", "request_rate": 12.0, "num_requests": 8, "seed": 0},
    }
)

GRID = {"workload.request_rate": [6.0, 12.0], "workload.seed": [0, 1]}


def rows_of(results):
    assert all(res.error is None for res in results), [res.error for res in results]
    return [res.row for res in results]


class TestDeterminism:
    @pytest.mark.parametrize("fault_tolerant", [False, True], ids=["pool", "fault-tolerant"])
    def test_parallel_rows_bit_identical_to_serial(self, fault_tolerant, tmp_path):
        options = {"jobs": 4}
        if fault_tolerant:
            # The fault-tolerance layer armed on a clean run: the timeout
            # routes the serial run through the pool, and retries, backoff
            # and the journal stay idle because nothing fails.
            options = {
                "jobs": 1,
                "task_timeout": 60.0,
                "max_retries": 2,
                "backoff_base": 0.5,
                "journal": tmp_path / "run.journal",
            }
        combos = expand_grid(BASE, GRID)
        serial = SweepRunner(jobs=1).run(combos)
        parallel = SweepRunner(**options).run(combos)
        assert rows_of(parallel) == rows_of(serial)
        assert [r.label for r in parallel] == [r.label for r in serial]
        assert [r.index for r in parallel] == list(range(len(combos)))

    @pytest.mark.slow
    def test_parallel_rows_bit_identical_for_elastic_heterogeneous_grid(self):
        combos = expand_grid(
            ELASTIC_HETEROGENEOUS,
            {
                "elasticity.autoscaler_options.target_utilization": [0.4, 0.8],
                "workload.request_rate": [8.0, 16.0],
            },
        )
        serial = SweepRunner(jobs=1).run(combos)
        parallel = SweepRunner(jobs=4).run(combos)
        assert rows_of(parallel) == rows_of(serial)

    def test_serial_matches_direct_build_run(self):
        """The jobs=1 fallback is the same simulation as api.build(spec).run()."""
        from repro.api import build
        from repro.core.cluster_system import system_cost_per_hour
        from repro.experiments.runner import summary_row

        (result,) = SweepRunner(jobs=1).run([({}, BASE)])
        prepared = build(BASE)
        expected = summary_row(prepared.run())
        expected["cost_per_hour"] = system_cost_per_hour(prepared.system)
        assert result.row == expected

    def test_rows_carry_the_catalog_fleet_price(self):
        """cost_per_hour is the hardware catalog's $/hr for the built fleet."""
        (result,) = SweepRunner(jobs=1).run([({}, BASE)])
        assert result.row["cost_per_hour"] == pytest.approx(3.00)  # 1x a100
        two = BASE.with_overrides({"cluster.replicas": 2})
        (result,) = SweepRunner(jobs=1).run([({}, two)])
        assert result.row["cost_per_hour"] == pytest.approx(6.00)


class TestCache:
    def test_cache_hit_returns_identical_rows_without_rerunning(self, tmp_path, monkeypatch):
        combos = expand_grid(BASE, {"workload.seed": [0, 1]})
        first = SweepRunner(jobs=1, cache_dir=str(tmp_path)).run(combos)
        assert [res.cached for res in first] == [False, False]

        def boom(kind, payload):  # any execution on the second pass is a bug
            raise AssertionError("cache hit must not re-simulate")

        monkeypatch.setattr(runner_mod, "_execute_task", boom)
        second = SweepRunner(jobs=1, cache_dir=str(tmp_path)).run(combos)
        assert [res.cached for res in second] == [True, True]
        assert rows_of(second) == rows_of(first)

    def test_cache_is_keyed_by_spec_content(self, tmp_path):
        sweep = SweepRunner(jobs=1, cache_dir=str(tmp_path))
        sweep.run([({}, BASE)])
        other = BASE.with_overrides({"workload.seed": 3})
        (res,) = sweep.run([({}, other)])
        assert not res.cached  # different spec, different hash

    def test_corrupt_cache_entry_degrades_to_miss(self, tmp_path):
        combos = [({}, BASE)]
        sweep = SweepRunner(jobs=1, cache_dir=str(tmp_path))
        (first,) = sweep.run(combos)
        for entry in tmp_path.glob("*.json"):
            entry.write_text("{not json")
        (again,) = SweepRunner(jobs=1, cache_dir=str(tmp_path)).run(combos)
        assert not again.cached
        assert again.row == first.row

    def test_cache_version_mismatch_is_a_miss(self, tmp_path):
        combos = [({}, BASE)]
        SweepRunner(jobs=1, cache_dir=str(tmp_path)).run(combos)
        for entry in tmp_path.glob("*.json"):
            data = json.loads(entry.read_text())
            data["version"] = -1
            entry.write_text(json.dumps(data))
        cache = ResultCache(tmp_path)
        key = cache.key("deployment", BASE.to_dict())
        assert cache.load(key, "deployment", BASE.to_dict()) is None

    def test_parallel_run_populates_cache_for_serial_rerun(self, tmp_path):
        combos = expand_grid(BASE, {"workload.seed": [0, 1]})
        parallel = SweepRunner(jobs=2, cache_dir=str(tmp_path)).run(combos)
        rerun = SweepRunner(jobs=1, cache_dir=str(tmp_path)).run(combos)
        assert [res.cached for res in rerun] == [True, True]
        assert rows_of(rerun) == rows_of(parallel)


class TestErrorCapture:
    @pytest.fixture()
    def failing_combos(self):
        # Parses fine (options are free-form) but the system builder rejects
        # the unknown keyword at build time -- inside the worker.
        bad = BASE.with_overrides({"system.options.bogus": 1})
        return [({"system.options.bogus": 1}, bad), ({}, BASE)]

    def test_serial_error_names_the_failing_point_and_skips_the_rest(self, failing_combos):
        results = SweepRunner(jobs=1).run(failing_combos)
        assert results[0].error is not None
        assert "bogus" in results[0].error
        assert results[0].label == "system.options.bogus=1"
        assert results[1].skipped and results[1].row is None

    def test_serial_keep_going_still_runs_the_rest(self, failing_combos):
        results = SweepRunner(jobs=1, stop_on_error=False).run(failing_combos)
        assert results[0].error is not None
        assert results[1].ok and not results[1].skipped

    def test_pool_error_names_the_failing_point(self, failing_combos):
        results = SweepRunner(jobs=2).run(failing_combos)
        assert results[0].error is not None and "bogus" in results[0].error
        assert results[0].label == "system.options.bogus=1"
        # both points start immediately on a 2-wide pool, so the second is
        # already running when the failure is observed and keeps its result
        assert results[1].ok

    def test_errors_are_never_cached(self, tmp_path, failing_combos):
        SweepRunner(jobs=1, cache_dir=str(tmp_path)).run(failing_combos)
        results = SweepRunner(jobs=1, cache_dir=str(tmp_path)).run(failing_combos)
        assert not results[0].cached and results[0].error is not None


class TestValidation:
    def test_jobs_must_be_positive_int(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepRunner(jobs=0)
        with pytest.raises(ValueError, match="jobs"):
            SweepRunner(jobs=True)

    def test_unknown_task_kind_fails_before_any_work(self):
        with pytest.raises(ValueError, match="unknown sweep task kind"):
            SweepRunner().run_tasks([Task(kind="teleport", payload={})])

    def test_points_must_carry_specs(self):
        with pytest.raises(TypeError, match="DeploymentSpec"):
            SweepRunner().run([({}, {"model": "llama-13b"})])


EXPERIMENT_TOML = """
[experiment]
name = "tiny-grid"
description = "two-point smoke study"

[experiment.grid]
"workload.request_rate" = [6.0, 12.0]

[deployment]
model = "llama-13b"

[deployment.system]
name = "static-tp"

[deployment.cluster]
kind = "a100:1"

[deployment.workload]
dataset = "sharegpt"
request_rate = 5.0
num_requests = 4
seed = 0
"""


FIG14_GRID = Path(__file__).resolve().parents[2] / "examples" / "configs" / "fig14_grid.toml"


def write_study(tmp_path, text=EXPERIMENT_TOML, name="exp.toml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDriver:
    def test_load_and_run_experiment(self, tmp_path):
        study = load_study(write_study(tmp_path))
        assert study.name == "tiny-grid"
        assert study.axes == {"workload.request_rate": (6.0, 12.0)}
        assert study.execution is None
        results = SweepRunner(jobs=1).run(expand_grid(study.base, study.axes))
        rows = [table_row(res.overrides, res.row) for res in results]
        assert [row["workload.request_rate"] for row in rows] == [6.0, 12.0]
        assert all(row["num_finished"] == 4 for row in rows)
        assert not any(res.error or res.cached for res in results)

    def test_plain_deployment_is_a_one_point_study_named_after_its_file(self, tmp_path):
        path = tmp_path / "deploy.json"
        path.write_text(json.dumps({**BASE.to_dict(), "execution": {"max_retries": 2}}))
        study = load_study(path)
        assert study.name == "deploy"
        assert study.base == BASE and study.axes == {}
        assert study.execution.max_retries == 2

    def test_checked_in_fig14_grid_config_loads(self):
        study = load_study(FIG14_GRID)
        assert study.name == "fig14-elasticity-grid"
        assert study.base.elasticity is not None
        # every expanded point re-validates
        assert len(expand_grid(study.base, study.axes)) == 6

    def test_checked_in_fig14_grid_rows_move_with_each_axis(self):
        # The fleet must scale for the study to say anything: on a cluster
        # where one replica absorbs every burst, all six rows are equal.
        study = load_study(FIG14_GRID)
        results = SweepRunner().run(expand_grid(study.base, study.axes))
        for axis in study.axes:
            rows_by_rest = {}
            for res in results:
                rest = tuple((k, v) for k, v in res.overrides.items() if k != axis)
                metrics = tuple(table_row({}, res.row).items())
                rows_by_rest.setdefault(rest, set()).add(metrics)
            assert any(len(rows) > 1 for rows in rows_by_rest.values()), axis

    def test_rejects_missing_deployment_and_unknown_keys(self, tmp_path):
        with pytest.raises(ConfigError, match="deployment"):
            load_study(write_study(tmp_path, "[experiment]\nname = 'x'\n"))
        with pytest.raises(ConfigError, match="budget"):
            load_study(write_study(
                tmp_path, "[experiment]\nname = 'x'\nbudget = 3\n[deployment]\nmodel = 'llama-13b'\n"
            ))
        with pytest.raises(ConfigError, match="no values"):
            load_study(write_study(
                tmp_path,
                "[experiment.grid]\n'workload.seed' = []\n[deployment]\nmodel = 'llama-13b'\n",
            ))

    def test_grid_scalar_axis_becomes_single_point(self, tmp_path):
        study = load_study(write_study(
            tmp_path, "[experiment.grid]\n'workload.seed' = 3\n[deployment]\nmodel = 'llama-13b'\n"
        ))
        assert study.name == "exp"
        assert study.axes == {"workload.seed": (3,)}
