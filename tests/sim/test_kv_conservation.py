"""KV conservation: every block returns to the pool once a run drains.

After a drained run every block manager of every unit must report no used
blocks and no resident sequence, whatever the system, prefill mode or fleet
churn (failures preempt running work and migrate queued work away).
"""

import pytest

from repro import api
from repro.config import DeploymentSpec
from repro.kvcache.block_manager import PagedBlockManager
from repro.kvcache.head_block_manager import HeadwiseBlockManager


def block_managers(unit):
    """Every block manager a unit holds, directly or in a dict."""
    found = []
    for value in vars(unit).values():
        for item in value.values() if isinstance(value, dict) else [value]:
            if isinstance(item, (PagedBlockManager, HeadwiseBlockManager)):
                found.append(item)
    return found


def paper_spec(system, chunk):
    return DeploymentSpec.from_dict({
        "model": "llama-13b",
        "system": {"name": system, "prefill_chunk_tokens": chunk},
        "cluster": {"kind": "paper"},
        "workload": {"dataset": "sharegpt", "request_rate": 8.0, "num_requests": 24, "seed": 3},
    })


def fleet_spec(seed):
    # The benchmark's churning fleet, shrunk: failures preempt, migration moves work.
    return DeploymentSpec.from_dict({
        "model": "llama-13b",
        "system": {"name": "static-tp"},
        "cluster": {"kind": "a100:2", "replicas": 4,
                    "replica_kinds": ["a100:2", "rtx3090:2", "rtx3090:2", "rtx3090:2"]},
        "router": {"name": "weighted-least-kv"},
        "elasticity": {
            "autoscaler": "target-kv",
            "autoscaler_options": {"interval": 2.0},
            "admission": "queue-threshold",
            "admission_options": {"mode": "defer", "max_queue_depth": 32},
            "migration": True,
        },
        "failures": {"rate": 0.1, "num_failures": 2, "seed": seed, "recovery_time": 10.0},
        "workload": {"dataset": "sharegpt", "request_rate": 20.0, "num_requests": 120, "seed": seed},
    })


SPECS = {f"{system}-{'chunked' if chunk else 'whole'}": paper_spec(system, chunk)
         for system in ("static-tp", "splitwise", "hexgen", "hetis") for chunk in (None, 512)}
SPECS.update({f"fleet-seed{seed}": fleet_spec(seed) for seed in (1, 2, 3)})


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SPECS))
def test_blocks_return_to_zero_after_a_drained_run(name):
    spec = SPECS[name]
    prepared = api.build(spec)
    result = prepared.run()
    s = result.summary
    assert not result.truncated
    assert s.num_finished + s.num_rejected + result.num_dropped == spec.workload.num_requests
    if spec.failures is not None:
        assert prepared.system.failure_events
    for unit in prepared.system.units:
        managers = block_managers(unit)
        assert managers, unit.name
        for manager in managers:
            assert manager.used_blocks == 0, unit.name
            assert manager.sequences() == [], unit.name
