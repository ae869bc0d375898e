"""The serialized spec form is pinned byte for byte.

``DeploymentSpec.to_dict()`` is the config-file format and, hashed, the key of
the sweep result cache and the run journal.  A change to how specs serialize
-- a key renamed, reordered or dropped, an int no longer coerced to a float --
silently invalidates every cache and journal written before it.  The
expected values below are literals; if one of these tests fails, the
serialized form moved, and ``CACHE_VERSION`` must move with it.
"""

import json
from pathlib import Path

import pytest

from repro.config import DeploymentSpec, ExecutionSpec, expand_grid, load_config_mapping
from repro.experiments.driver import load_study
from repro.experiments.planner import load_planner
from repro.experiments.runner import CACHE_VERSION, ResultCache

CONFIGS = Path(__file__).resolve().parents[1] / "examples" / "configs"

# Every field of every section set away from its default.  Ints where the
# spec stores floats, and the pair / mapping spellings of phases and failure
# events, pin the normalization too.
EVERY_FIELD = {
    "model": "opt-30b",
    "system": {
        "name": "static-tp",
        "prefill_chunk_tokens": 256,
        "limits": {"max_running_requests": 32, "max_prefills_per_iteration": 4},
        "options": {"note": "pinned"},
    },
    "cluster": {"kind": "small", "replicas": 2, "replica_kinds": ["a100:1", "rtx3090:2"]},
    "router": {"name": "least-kv", "options": {"note": "pinned"}},
    "elasticity": {
        "autoscaler": "target-kv",
        "autoscaler_options": {"interval": 2.0, "target_utilization": 0.4},
        "admission": "queue-threshold",
        "admission_options": {"mode": "defer", "max_queue_depth": 8},
        "migration": True,
        "migration_bandwidth_gbps": 25,
    },
    "slo": {"ttft_s": 2, "tpot_s": 0.25},
    "workload": {
        "dataset": "longbench",
        "request_rate": 7,
        "num_requests": 12,
        "seed": 3,
        "phases": [{"rate": 4, "duration": 10}, [0, 5.5]],
        "streaming": True,
    },
    "metrics": {"mode": "bounded", "quantile_epsilon": 0.01, "max_recorder_samples_per_key": 64},
    "failures": {
        "events": [[1.5, 0], {"time": 3, "replica": 1}],
        "rate": 0.2,
        "num_failures": 2,
        "seed": 5,
        "recovery_time": 12,
        "check_interval": 0.5,
    },
    "max_simulated_time": 600,
}

SERIALIZED = {
    "model": "opt-30b",
    "system": {
        "name": "static-tp",
        "prefill_chunk_tokens": 256,
        "limits": {"max_running_requests": 32, "max_prefills_per_iteration": 4},
        "options": {"note": "pinned"},
    },
    "cluster": {"kind": "small", "replicas": 2, "replica_kinds": ["a100:1", "rtx3090:2"]},
    "router": {"name": "least-kv", "options": {"note": "pinned"}},
    "elasticity": {
        "autoscaler": "target-kv",
        "autoscaler_options": {"interval": 2.0, "target_utilization": 0.4},
        "admission": "queue-threshold",
        "admission_options": {"mode": "defer", "max_queue_depth": 8},
        "migration": True,
        "migration_bandwidth_gbps": 25.0,
    },
    "slo": {"ttft_s": 2.0, "tpot_s": 0.25},
    "workload": {
        "dataset": "longbench",
        "request_rate": 7.0,
        "num_requests": 12,
        "seed": 3,
        "phases": [{"rate": 4.0, "duration": 10.0}, {"rate": 0.0, "duration": 5.5}],
        "streaming": True,
    },
    "metrics": {"mode": "bounded", "quantile_epsilon": 0.01, "max_recorder_samples_per_key": 64},
    "failures": {
        "events": [[1.5, 0], [3.0, 1]],
        "rate": 0.2,
        "num_failures": 2,
        "seed": 5,
        "recovery_time": 12.0,
        "check_interval": 0.5,
    },
    "max_simulated_time": 600.0,
}

EVERY_FIELD_KEY = "29b1df4470b4ad692b6202f42e95e04451fe02e9636e370e8d43ba3938b101bb"

# ResultCache keys of every deployment the checked-in configs run: a plain
# config's one spec, an experiment's grid points, a planner's candidates.
CONFIG_KEYS = {
    "elastic_cluster.toml": [
        "24c1ea38a2bb630c3393b7a028410c37a3313978a65043951e2a3c6edadf6902",
    ],
    "elasticity_churn.toml": [
        "46138165671d637925dd80af6c2b4ee28a6cf284579dd0bd1e4b1003f80ddf60",
        "9d78dbe037f1b01b9af66705f682e43e5fea502cff4b9ed5c3b76c6151905034",
    ],
    "fig14_grid.toml": [
        "36c9bae370cbcd32a036a3d1da71e1f989286342d2981cba1ff8c6ac0422fc50",
        "88522810de08376196bbc5b12e4737981530cf3d326fd4a62c03211689606260",
        "6f7a268211b79548bd86e134795ca42a2c6a7c4875fefc35ccbf151ff9962cca",
        "896d26ed0b666b66e2da5be46b6a790c8bf0651460727535161a91b0c34103da",
        "0c5a0d203e5714cfc79248697b3b7d79977f27a84c24e8e243955640f6169e58",
        "757b0758c298fb619fdc69b0cd139c4dfc21bf4a3b31248adf707d900f5266e1",
    ],
    "multi_replica.json": [
        "9577d329c722975ce2d9125194c68268a93d313525f905b67fc547cc1230d0bc",
    ],
    "planner_slo.toml": [
        "93f772dd82246ad421af385798fbe4d143f06ccc339680a1ed3b57234ef20bc9",
        "429ffab2a12a6c9cbc7055011e089cf5ea8d44f83df72cda3414e7cca1f3277e",
        "441cd89fcee86ee902944e6f6a55ea5d63dd3cf16825bc83c8034ff4eab59e9e",
        "eacef75b48b35cebc8fb59bad8904a61d8ccd59ee800470aa44544e3d754ce41",
        "0379d1d21e83372c6e9e91007004043c0f96ee27dd818ada347e76b88a6882ce",
        "c8557d6f90a60a8fbc327fd2cac3433901a64eab2547bc55a0233d4a79e8412c",
    ],
}


def config_deployments(path):
    if "planner" in load_config_mapping(path):
        return [spec for _, spec in load_planner(path).expand()]
    study = load_study(path)
    return [spec for _, spec in expand_grid(study.base, study.axes)]


def test_cache_version_is_the_one_these_keys_were_taken_at():
    assert CACHE_VERSION == 5


def test_every_field_spec_serializes_to_the_pinned_json():
    spec = DeploymentSpec.from_dict(EVERY_FIELD)
    assert spec.to_json() == json.dumps(SERIALIZED, indent=2)
    assert ResultCache.key("deployment", spec.to_dict()) == EVERY_FIELD_KEY
    assert DeploymentSpec.from_dict(spec.to_dict()) == spec


def test_execution_spec_serializes_to_the_pinned_json():
    spec = ExecutionSpec.from_dict({"task_timeout": 30, "max_retries": 2, "backoff_base": 1, "journal": "run.journal"})
    assert json.dumps(spec.to_dict()) == (
        '{"task_timeout": 30.0, "max_retries": 2, "backoff_base": 1.0, "journal": "run.journal"}'
    )
    assert json.dumps(ExecutionSpec().to_dict()) == (
        '{"task_timeout": null, "max_retries": 0, "backoff_base": 0.5, "journal": null}'
    )


def test_every_checked_in_config_is_pinned():
    assert sorted(p.name for p in CONFIGS.iterdir() if p.suffix in (".json", ".toml")) == sorted(CONFIG_KEYS)


@pytest.mark.parametrize("name", sorted(CONFIG_KEYS))
def test_checked_in_config_cache_keys_are_pinned(name):
    specs = config_deployments(CONFIGS / name)
    assert [ResultCache.key("deployment", spec.to_dict()) for spec in specs] == CONFIG_KEYS[name]
