"""The benchmark's workloads: inputs generated from a seed, one timed operation each.

Arrivals follow open-loop schedules in *simulated* time; in wall-clock time
every workload is a batch job, so the end-to-end metrics are throughput of
the simulator at a stated input size.

* ``static-humaneval-diurnal`` -- one static-tp replay (engine loop, unit
  step, paged KV bookkeeping) of a streaming diurnal HumanEval trace.
* ``hetis-chat-longdoc`` -- one Hetis replay of a ShareGPT + LongBench mix on
  the paper cluster (dispatcher LP + greedy, offload, re-dispatch).
* ``fleet-churn-sweep`` -- one ``SweepRunner`` sweep of an elastic static-tp
  fleet under seeded failures (control plane, migration, runner, journal).

One *operation* is one replay or one sweep point; each one is checked for
request conservation and truncation.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro import api
from repro.config import DeploymentSpec
from repro.experiments.runner import SweepRunner, summary_row
from repro.utils.rng import spawn_rngs
from repro.workloads import diurnal_phases, get_dataset_spec
from repro.workloads.trace import Trace, TraceEntry

MODEL = "llama-13b"

# static-humaneval-diurnal
DIURNAL_REQUESTS = 300
DIURNAL_BASE_RATE, DIURNAL_PEAK_RATE, DIURNAL_PERIOD = 6.0, 18.0, 30.0

# hetis-chat-longdoc
MIX_REQUESTS = 60
MIX_RATE = 2.0
MIX_LONGBENCH_SHARE = 0.3

# fleet-churn-sweep
FLEET_POINTS = 4
FLEET_REQUESTS = 400
FLEET_RATE = 20.0
FLEET_REPLICAS = ("a100:2", "rtx3090:2", "rtx3090:2", "rtx3090:2")


def input_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th distinct input of a run with seed ``seed``."""
    return seed * 16 + index


# -- inputs -------------------------------------------------------------------


def stratified_uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    """One uniform draw from each of ``n`` equal strata of (0, 1), in seeded random order.

    A plain sample of a few dozen heavy-tailed lengths can double or halve a
    replay's work from one seed to the next; a stratified one keeps the
    sample's distribution close to the model's, so seeds change which request
    comes when, not how much work the trace holds.
    """
    u = (np.arange(n) + rng.uniform(0.0, 1.0, size=n)) / max(n, 1)
    return rng.permutation(u)


def stratified_lengths(dataset: str, rng: np.random.Generator, n: int) -> List[Tuple[int, int]]:
    """``n`` (prompt, output) lengths from a dataset's log-normal model, stratified."""
    spec = get_dataset_spec(dataset)
    unit = NormalDist()
    lengths = []
    for (mu, sigma, lo, hi) in ((spec.prompt_mu, spec.prompt_sigma, spec.prompt_min, spec.prompt_max),
                                (spec.output_mu, spec.output_sigma, spec.output_min, spec.output_max)):
        z = np.array([unit.inv_cdf(min(max(u, 1e-12), 1 - 1e-12)) for u in stratified_uniforms(rng, n)])
        lengths.append(np.clip(np.round(np.exp(mu + sigma * z)), lo, hi).astype(int))
    return [(int(p), int(o)) for p, o in zip(*lengths)]


def mixed_trace(num_requests: int, rate: float, longbench_share: float, seed: int) -> Tuple[Trace, List[bool]]:
    """Poisson arrivals whose lengths mix ShareGPT and LongBench requests.

    Exactly ``round(longbench_share * num_requests)`` requests are LongBench,
    one at a seeded random position in each of that many equal stretches of
    the trace; the rest are ShareGPT.  Lengths and
    inter-arrival gaps are stratified samples of their distributions
    (``stratified_uniforms``).  Returns the trace and, per entry, whether it
    is a LongBench request.
    """
    arrival_rng, pick_rng, chat_rng, doc_rng = spawn_rngs(seed, 4)
    times = np.cumsum(-np.log1p(-stratified_uniforms(arrival_rng, num_requests)) / rate)
    num_long = round(longbench_share * num_requests)
    is_long = np.zeros(num_requests, dtype=bool)
    edges = np.round(np.linspace(0, num_requests, num_long + 1)).astype(int)
    for lo, hi in zip(edges[:-1], edges[1:]):
        is_long[lo + pick_rng.integers(hi - lo)] = True
    chat = iter(stratified_lengths("sharegpt", chat_rng, num_requests - num_long))
    docs = iter(stratified_lengths("longbench", doc_rng, num_long))
    entries = []
    for t, long_doc in zip(times, is_long):
        prompt, output = next(docs) if long_doc else next(chat)
        entries.append(TraceEntry(float(t), prompt, output))
    trace = Trace(entries=entries, dataset="sharegpt+longbench", request_rate=rate)
    return trace, [bool(x) for x in is_long]


def diurnal_spec(seed: int) -> DeploymentSpec:
    mean_rate = 0.5 * (DIURNAL_BASE_RATE + DIURNAL_PEAK_RATE)
    cycles = math.ceil(DIURNAL_REQUESTS / (mean_rate * DIURNAL_PERIOD)) + 1
    phases = diurnal_phases(DIURNAL_BASE_RATE, DIURNAL_PEAK_RATE, period=DIURNAL_PERIOD, cycles=cycles)
    return DeploymentSpec.from_dict({
        "model": MODEL,
        "system": {"name": "static-tp"},
        "cluster": {"kind": "small"},
        "workload": {
            "dataset": "humaneval", "request_rate": mean_rate, "num_requests": DIURNAL_REQUESTS,
            "seed": seed, "streaming": True,
            "phases": [{"rate": p.rate, "duration": p.duration} for p in phases],
        },
        "metrics": {"mode": "bounded", "max_recorder_samples_per_key": 4096},
    })


def mix_spec(seed: int) -> DeploymentSpec:
    # The workload block only names the dataset the Parallelizer plans for;
    # the replayed trace is the benchmark's own mix (see mixed_trace).
    return DeploymentSpec.from_dict({
        "model": MODEL,
        "system": {"name": "hetis"},
        "cluster": {"kind": "paper"},
        "workload": {"dataset": "sharegpt", "request_rate": MIX_RATE,
                     "num_requests": MIX_REQUESTS, "seed": seed},
    })


def fleet_spec(seed: int) -> DeploymentSpec:
    return DeploymentSpec.from_dict({
        "model": MODEL,
        "system": {"name": "static-tp"},
        "cluster": {"kind": FLEET_REPLICAS[0], "replicas": len(FLEET_REPLICAS),
                    "replica_kinds": list(FLEET_REPLICAS)},
        "router": {"name": "weighted-least-kv"},
        "elasticity": {
            "autoscaler": "target-kv",
            "autoscaler_options": {"interval": 2.0},
            "admission": "queue-threshold",
            "admission_options": {"mode": "defer", "max_queue_depth": 32},
            "migration": True,
        },
        "failures": {"rate": 0.1, "num_failures": 2, "seed": seed, "recovery_time": 10.0},
        "workload": {"dataset": "sharegpt", "request_rate": FLEET_RATE,
                     "num_requests": FLEET_REQUESTS, "seed": seed},
    })


# -- correctness ----------------------------------------------------------------


def conservation_violations(
    label: str, offered: int, finished: int, rejected: int, dropped: int, truncated: bool
) -> List[str]:
    """Offered = finished + rejected + dropped + cut off; nothing may be cut off.

    A truncated run is itself a violation: its cut-off remainder is whatever
    the other three terms leave, and the benchmark requires complete runs.
    """
    problems = []
    cut_off = offered - finished - rejected - dropped
    if truncated:
        problems.append(f"{label}: run truncated ({cut_off} requests cut off)")
    elif cut_off != 0:
        problems.append(
            f"{label}: conservation violated: offered {offered} != finished {finished}"
            f" + rejected {rejected} + dropped {dropped}"
        )
    return problems


def digest(rows: Sequence[Any]) -> str:
    """SHA-256 of the canonical JSON of summary rows (parent/change comparable)."""
    canonical = json.dumps(list(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def decode_tokens(row: Dict[str, Any]) -> int:
    return round(row["throughput_tokens_per_s"] * row["duration"])


# -- operations -----------------------------------------------------------------


@dataclass
class OpResult:
    """One timed phase: its wall, what it simulated, and its checked operations.

    ``rows`` holds one summary row per operation (``None`` for a sweep point
    that errored); ``failed`` counts operations with a violation.
    """

    wall_s: float
    finished: int
    decode_tokens: int
    events: int
    rows: List[Any]
    failed: int = 0
    violations: List[str] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)


class ReplayWorkload:
    """One ``Engine.run`` replay of a generated trace against a built system."""

    operations = 1  # checked operations per timed phase

    def __init__(self, name: str, spec_for, trace_for=None, inputs_per_run: int = 1,
                 host_exponent: float = 1.0) -> None:
        self.name = name
        self.inputs_per_run = inputs_per_run  # distinct inputs a timed run cycles through
        self.host_exponent = host_exponent  # how the timed phase follows the host factor (hostclock)
        self.spec_for = spec_for
        self.trace_for = trace_for  # None: the spec's own trace

    def setup(self, seed: int):
        """``api.build`` plus trace generation: everything before the first event."""
        spec = self.spec_for(seed)
        prepared = api.build(spec)
        trace = prepared.trace if self.trace_for is None else self.trace_for(seed)
        return spec, prepared, trace

    def run(self, seed: int, setups: int = 1, **_: Any) -> OpResult:
        setup_s = []
        for _i in range(max(setups, 1)):  # the last set-up is the one replayed
            t0 = time.perf_counter()
            spec, prepared, trace = self.setup(seed)
            setup_s.append(time.perf_counter() - t0)
        gc.collect()
        t0 = time.perf_counter()
        result = api.run_system(
            prepared.system, trace, max_simulated_time=spec.max_simulated_time,
            slo=prepared.slo, metrics=spec.metrics,
        )
        wall = time.perf_counter() - t0
        row = summary_row(result)
        offered = sum(1 for _e in trace)
        s = result.summary
        violations = conservation_violations(
            f"{self.name} seed {seed}", offered, s.num_finished, s.num_rejected,
            result.num_dropped, result.truncated,
        )
        return OpResult(wall, s.num_finished, decode_tokens(row), result.wall_clock_events,
                        [row], int(bool(violations)), violations, setup_s)


class SweepWorkload:
    """One ``SweepRunner.run`` over a seed grid, cold cache, journal on.

    Its timed phase keeps every core busy with pool workers.
    """

    def __init__(self, name: str, spec_for, points: int, inputs_per_run: int = 1,
                 host_exponent: float = 1.0) -> None:
        self.name = name
        self.inputs_per_run = inputs_per_run
        self.host_exponent = host_exponent
        self.spec_for = spec_for
        self.operations = points  # checked operations (sweep points) per timed phase

    def grid(self, seed: int) -> List[Tuple[Dict[str, Any], DeploymentSpec]]:
        out = []
        for k in range(self.operations):
            point_seed = input_seed(seed, k)
            out.append(({"workload.seed": point_seed, "failures.seed": point_seed},
                        self.spec_for(point_seed)))
        return out

    def run(self, seed: int, setups: int = 1, jobs: int = 1, scratch: Path = Path(".")) -> OpResult:
        points = self.grid(seed)
        # Set-up cost of a point (what each worker does before its first
        # event), measured in this process; the sweep rebuilds it per point.
        setup_s = []
        for _i in range(setups):
            for _overrides, spec in points:
                t0 = time.perf_counter()
                api.build(spec).trace
                setup_s.append(time.perf_counter() - t0)
        work = scratch / f"sweep-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            runner = SweepRunner(jobs=jobs, cache_dir=str(work / "cache"),
                                 journal=str(work / "journal.jsonl"))
            gc.collect()
            t0 = time.perf_counter()
            results = runner.run(points)
            wall = time.perf_counter() - t0
        finally:
            shutil.rmtree(work, ignore_errors=True)
        rows, violations = [], []
        finished = tokens = events = failed = 0
        for res, (_overrides, spec) in zip(results, points):
            rows.append(res.row)
            if not res.ok:
                bad = [f"{self.name} point {res.label}: {res.error_kind}: {res.error}"]
            else:
                row = res.row
                finished += row["num_finished"]
                tokens += decode_tokens(row)
                events += row["wall_clock_events"]
                bad = conservation_violations(
                    f"{self.name} point {res.label}", spec.workload.num_requests, row["num_finished"],
                    row["num_rejected"], row["num_dropped"], row["truncated"],
                )
            failed += bool(bad)
            violations += bad
        return OpResult(wall, finished, tokens, events, rows, failed, violations, setup_s)


# host_exponent: least-squares slope of log raw wall on log host factor over
# 25-33 timed runs (hostclock).  The pure-Python engine loop follows the
# kernel closely; Hetis spends part of its time in the HiGHS LP solver; the
# sweep's pool already keeps both cores busy, so neighbours move it least.
WORKLOADS: Dict[str, Any] = {
    "static-humaneval-diurnal": ReplayWorkload("static-humaneval-diurnal", diurnal_spec, inputs_per_run=3,
                                               host_exponent=0.8),
    "hetis-chat-longdoc": ReplayWorkload(
        "hetis-chat-longdoc", mix_spec,
        lambda seed: mixed_trace(MIX_REQUESTS, MIX_RATE, MIX_LONGBENCH_SHARE, seed)[0],
        inputs_per_run=8, host_exponent=0.6,
    ),
    "fleet-churn-sweep": SweepWorkload("fleet-churn-sweep", fleet_spec, FLEET_POINTS, inputs_per_run=3,
                                       host_exponent=0.25),
}
