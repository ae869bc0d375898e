"""Parity of the change-only observation path against writing every key after every iteration.

After each iteration a unit writes its per-device series (``cache_usage``,
and for Hetis ``heads``) through :meth:`ContinuousBatchingUnit.observe`, which
reads the series only after a KV hook set the unit's ``_dirty`` flag and
writes a sample only when its value moved.  The oracle kept here is the observer it replaced: every key of
``kv_utilization()`` (and ``head_counts()``) after every iteration.  Dropping a
sample equal to its key's previous one must leave the series names, keys, last
and max values and the de-duplicated samples exactly as the oracle wrote them;
the event series of a fleet (failures, migrations, ...) keep every sample.
"""

from typing import List, Tuple

import pytest

from repro import api
from repro.config import DeploymentSpec
from repro.core.hetis_unit import HetisInstanceUnit
from repro.experiments.fig14 import run_dynamic_usage
from repro.sim.batching import ContinuousBatchingUnit
from repro.sim.engine import Engine
from repro.sim.recorder import TimeSeriesRecorder

from tests.sim.test_batching_parity import (
    CHUNKED,
    WHOLE,
    hetis_gqa_system,
    hexgen_system,
    seeded_trace,
    splitwise_system,
    static_system,
)

DEVICE_SERIES = ("cache_usage", "heads")


def observe_every_key(unit, now, recorder):
    """The oracle: every key after every iteration, whether or not it moved."""
    for key, value in unit.kv_utilization().items():
        recorder.record("cache_usage", key, now, value)
    if isinstance(unit, HetisInstanceUnit):
        for key, value in unit.head_counts().items():
            recorder.record("heads", key, now, value)


def collapsed(samples: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """The first sample of each run of equal consecutive values."""
    out: List[Tuple[float, float]] = []
    for time, value in samples:
        if not out or out[-1][1] != value:
            out.append((time, value))
    return out


def assert_same_series(fast: TimeSeriesRecorder, reference: TimeSeriesRecorder) -> None:
    assert fast.series_names() == reference.series_names()
    assert set(DEVICE_SERIES) & set(reference.series_names())
    for series in reference.series_names():
        assert fast.keys(series) == reference.keys(series), series
        for key in reference.keys(series):
            assert fast.last_value(series, key) == reference.last_value(series, key), (series, key)
            assert fast.max_value(series, key) == reference.max_value(series, key), (series, key)
            raw = fast.raw(series, key)
            if series in DEVICE_SERIES:
                assert raw == collapsed(raw), f"{series}/{key} repeated a value"
                assert raw == collapsed(reference.raw(series, key)), (series, key)
            else:
                assert raw == reference.raw(series, key), (series, key)


def both(run, monkeypatch):
    """``run()``'s recorders on the fast path, then with every unit on the oracle."""
    fast = run()
    with monkeypatch.context() as m:
        m.setattr(ContinuousBatchingUnit, "observe", observe_every_key)
        reference = run()
    assert len(fast) == len(reference)
    return zip(fast, reference)


def replay(build, *traces):
    """One system built by ``build``, run once per trace, each run on a fresh recorder."""

    def run():
        system = build()
        return [Engine(system).run(trace).recorder for trace in traces]

    return run


FLEET = DeploymentSpec.from_dict({
    # Each replica writes through its own key prefix; a failure preempts a
    # replica's work (freeing its KV outside its own iterations) and migrates it.
    "model": "llama-13b",
    "system": {"name": "hetis"},
    "cluster": {"kind": "small", "replicas": 2},
    "elasticity": {"migration": True},
    "failures": {"events": [[4.0, 0], [9.0, 1]], "recovery_time": 3.0},
    "workload": {"dataset": "sharegpt", "request_rate": 6.0, "num_requests": 60, "seed": 1},
})

CASES = {
    "static-tp": replay(lambda: static_system(WHOLE), seeded_trace(1, 60, 4.0, 1500, 400)),
    "hexgen": replay(
        lambda: hexgen_system(CHUNKED, "llama2-7b", [["v100", "p100"], ["t4", "p100"]], [18, 14], [(0.6, 0.4), (0.7, 0.3)]),
        seeded_trace(7, 80, 20.0, 3000, 600),
    ),
    "splitwise": replay(lambda: splitwise_system(CHUNKED), seeded_trace(4, 60, 4.0, 1500, 400)),
    "hetis-gqa-offload": replay(lambda: hetis_gqa_system(CHUNKED), seeded_trace(8, 40, 10.0, 2000, 600)),
    # The second run starts on a fresh recorder, so its first observation
    # must write every key again, values left over from the first run included.
    "hetis-run-twice": replay(
        lambda: hetis_gqa_system(CHUNKED), seeded_trace(8, 40, 10.0, 2000, 600), seeded_trace(11, 30, 10.0, 2000, 600)
    ),
    "fleet-failures": lambda: [api.build(FLEET).run().recorder],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_change_only_observation_matches_every_key_every_iteration(case, monkeypatch):
    for fast, reference in both(CASES[case], monkeypatch):
        assert_same_series(fast, reference)
    if case == "fleet-failures":
        assert fast.keys("failures") and fast.keys("migrations")
    if case.startswith("hetis"):
        workers = [key for key in fast.keys("heads") if not key.endswith("/primary")]
        assert any(fast.max_value("heads", key) > 0 for key in workers), "no head was offloaded"


def test_fig14_series_match_every_key_every_iteration(monkeypatch):
    recorders, usages = [], []
    original = Engine.run

    def run_and_keep(self, trace):
        result = original(self, trace)
        recorders.append(result.recorder)
        return result

    monkeypatch.setattr(Engine, "run", run_and_keep)

    def fig14():
        usages.append(run_dynamic_usage())
        return recorders[-1:]

    for fast, reference in both(fig14, monkeypatch):
        assert_same_series(fast, reference)
    fast, reference = usages
    assert fast.cache_usage == reference.cache_usage
    assert fast.head_counts == reference.head_counts
