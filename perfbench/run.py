#!/usr/bin/env python3
"""Simulator benchmark: replay and sweep throughput end to end, per-layer cost traced.

    python3 perfbench/run.py --workload static-humaneval-diurnal --seed 1 --seconds 20 --trace 0

``--trace 0`` (timed run) warms up with one operation, then cycles through
the run's inputs until ``--seconds`` have passed and reports the end-to-end
metrics from each input's median operation: ``wall_s`` (the timed phase:
``Engine.run`` for a replay, the whole ``SweepRunner.run`` for the sweep),
``sim_requests_per_s``, ``sim_decode_tokens_per_s``, ``setup_s``
(``api.build`` plus trace generation, a median) and ``peak_rss_mb``.
Timings are scaled to a reference host speed measured between operations
(``hostclock``); the raw figures are printed next to them.  No tracing or
profiler runs in it.

``--trace 1`` (traced run) replays each input once untraced and once with
every layer wrapped by span recorders, checks that both produce the same
``sim_digest``, derives the per-layer metrics from the spans, and writes the
spans as JSONL and Chrome trace-event JSON under ``.perfbench_out/``.

Every operation is checked: requests are conserved (offered = finished +
rejected + dropped), no run is truncated, every sweep point succeeds, and a
repeated input reproduces its summary rows exactly.  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUPS_PER_OP = 3

# The simulator is imported from this checkout's sources only.
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
try:
    import repro
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import the simulator from {ROOT / 'src'}: {exc}")
if Path(repro.__file__).resolve().parent.parent != (ROOT / "src").resolve():
    raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {ROOT / 'src'}")

from repro.perf.attention_model import DeviceAttentionModel  # noqa: E402
from repro.perf.commcost import attention_transfer_bytes  # noqa: E402

from perfbench.hostclock import REFERENCE_S, SETUP_EXPONENT, HostClock  # noqa: E402
from perfbench.instrument import instrumented  # noqa: E402
from perfbench.layers import PER_LAYER, per_layer_metrics, prediction_violations  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, SweepWorkload, digest, input_seed  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("sim_requests_per_s", "req/s"),
    ("sim_decode_tokens_per_s", "tok/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

LRU_CACHES = {
    "attention_transfer_bytes": attention_transfer_bytes,
    "head_coefficient": DeviceAttentionModel.head_coefficient,
}


def sweep_jobs() -> int:
    return min(2, os.cpu_count() or 1)


def run_op(workload, seed: int, **kwargs):
    """One timed phase; an exception fails its operations, never the benchmark."""
    try:
        return workload.run(seed, **kwargs)
    except Exception:  # noqa: BLE001 - an operation failure is reported, not fatal
        traceback.print_exc()
        return None


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers the sweep's worker pool.
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def timed_run(workload, seed: int, seconds: float) -> dict:
    """Cycle the run's inputs until ``seconds`` pass; score per-input medians at reference host speed.

    One untimed operation warms the process first.  Before and after every
    operation the host clock samples its kernel for a twentieth of the
    operation's time, and every timing is scaled to the reference host
    (``hostclock``).  Each
    input scores the median of its operations; summing over several distinct
    inputs damps the seed-to-seed variation of the inputs themselves.  The
    raw (unscaled) figures are reported alongside.
    """
    jobs = sweep_jobs() if isinstance(workload, SweepWorkload) else 1
    inputs = workload.inputs_per_run
    clock = HostClock()
    by_input: dict = {}
    problems, setup_s = [], []
    rows_by_input: dict = {}
    attempted = failed = 0
    phases = -1  # phase -1 is the warm-up
    last_wall = 0.0
    start = None
    while phases < inputs or time.perf_counter() - start < seconds:
        k = max(phases, 0) % inputs
        attempted += workload.operations
        clock.sample(0.05 * last_wall)
        op = run_op(workload, input_seed(seed, k), setups=SETUPS_PER_OP, jobs=jobs, scratch=OUT)
        if op is None:
            failed += workload.operations
            problems.append(f"{workload.name} input {k}: exception")
        else:
            first = rows_by_input.setdefault(k, op.rows)
            changed = sum(a != b for a, b in zip(first, op.rows))
            if changed:
                problems.append(f"{workload.name} input {k}: a repeat produced different rows ({changed})")
            failed += min(workload.operations, op.failed + changed)
            problems += op.violations
            clock.sample(0.05 * op.wall_s)
            last_wall = op.wall_s
            if phases >= 0 and not (op.failed or changed):
                by_input.setdefault(k, []).append(op)
                setup_s += op.setup_s
        if start is None:
            start = time.perf_counter()
        phases += 1
    metrics = {name: 0.0 for name, _unit in END_TO_END}
    raw = {}
    if by_input:
        keys = sorted(by_input)
        wall = sum(statistics.median(op.wall_s for op in by_input[k]) for k in keys)
        finished = sum(by_input[k][0].finished for k in keys)
        tokens = sum(by_input[k][0].decode_tokens for k in keys)
        raw = {
            "wall_s": wall / len(keys),
            "sim_requests_per_s": finished / wall,
            "sim_decode_tokens_per_s": tokens / wall,
            "setup_s": statistics.median(setup_s),
        }
        host = clock.factor()
        phase = host ** workload.host_exponent
        metrics.update(
            wall_s=raw["wall_s"] / phase,
            sim_requests_per_s=raw["sim_requests_per_s"] * phase,
            sim_decode_tokens_per_s=raw["sim_decode_tokens_per_s"] * phase,
            setup_s=raw["setup_s"] / host ** SETUP_EXPONENT,
            peak_rss_mb=peak_rss_mb(),
        )
        raw["host_factor"] = host
    rows = [row for k in sorted(rows_by_input) for row in rows_by_input[k]]
    return {
        "attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics,
        "units": dict(END_TO_END), "sim_digest": digest(rows), "jobs": jobs,
        "samples": {"inputs": len(by_input), "phases": sum(map(len, by_input.values())),
                    "setups": len(setup_s), "host_clock": len(clock.samples)},
        "op_walls": {k: [op.wall_s for op in by_input[k]] for k in sorted(by_input)}, "raw": raw,
    }


def run_cold(workload, seed: int):
    """One timed phase with the cost models' LRU caches emptied first."""
    for fn in LRU_CACHES.values():
        fn.cache_clear()
    gc.collect()
    return run_op(workload, seed, setups=0, jobs=1, scratch=OUT)


def traced_run(workload, seed: int, name: str) -> dict:
    """Each of the run's inputs once untraced, then once traced; per-layer metrics from the spans."""
    seeds = [input_seed(seed, k) for k in range(workload.inputs_per_run)]
    plain = [run_cold(workload, s) for s in seeds]
    tracer = Tracer()
    traced, lru = [], {name: [0, 0] for name in LRU_CACHES}
    with instrumented(tracer) as inst:
        for k, s in enumerate(seeds):
            tracer.run_id = f"{name}/seed{seed}/input{k}"
            traced.append(run_cold(workload, s))
            for cache, fn in LRU_CACHES.items():
                info = fn.cache_info()
                lru[cache][0] += info.hits
                lru[cache][1] += info.misses
        systems = [p.system for p in inst.prepared]
    problems, failed = [], 0
    for label, ops in (("untraced", plain), ("traced", traced)):
        for k, op in enumerate(ops):
            if op is None:
                problems.append(f"{name} {label} input {k}: exception")
                failed += workload.operations
            else:
                problems += op.violations
                failed += op.failed
    ok = None not in plain and None not in traced
    digests = [digest([row for op in ops for row in op.rows]) if ok else "-" for ops in (plain, traced)]
    if ok and digests[0] != digests[1]:
        problems.append(f"traced sim_digest {digests[1]} != untraced {digests[0]}: tracing perturbed the run")
        failed = max(failed, workload.operations)
    metrics = {metric: 0.0 for metric, _unit, _better in PER_LAYER}
    if ok:
        metrics = per_layer_metrics(
            tracer,
            traced_wall=sum(op.wall_s for op in traced),
            untraced_wall=sum(op.wall_s for op in plain),
            untraced_events=sum(op.events for op in plain),
            decode_tokens=sum(op.decode_tokens for op in traced),
            jobs=1, lru={k: tuple(v) for k, v in lru.items()}, systems=systems,
        )
    # One trace per workload (the latest run): sweep traces run to tens of MB.
    stem = OUT / name
    tracer.write_jsonl(stem.with_suffix(".spans.jsonl"))
    tracer.write_chrome(stem.with_suffix(".trace.json"))
    return {
        "attempted": 2 * len(seeds) * workload.operations, "failed": failed, "problems": problems,
        "metrics": metrics, "units": {m: u for m, u, _b in PER_LAYER}, "sim_digest": digests[0], "jobs": 1,
        "samples": {"inputs": len(seeds), "spans": len(tracer.spans)},
        "predictions": prediction_violations(name, metrics) if failed == 0 else [],
        "files": [str(stem.with_suffix(".spans.jsonl")), str(stem.with_suffix(".trace.json"))],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    OUT.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    if args.trace:
        report = traced_run(workload, args.seed, args.workload)
    else:
        report = timed_run(workload, args.seed, args.seconds)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"cpu_count={os.cpu_count()} sweep_jobs={report['jobs']} python={platform.python_version()}")
    samples = ", ".join(f"{k}={v}" for k, v in report["samples"].items())
    print(f"samples: {samples}")
    raw = report.get("raw", {})
    if raw:
        print(f"host factor {raw['host_factor']:.4g} (median host-clock kernel / {REFERENCE_S} s); "
              f"timings below at reference host speed (timed phase / factor ** {workload.host_exponent}, "
              f"set-up / factor ** {SETUP_EXPONENT}), raw figures in parentheses")
    for metric, value in report["metrics"].items():
        unscaled = f"  (raw {raw[metric]:.6g})" if metric in raw else ""
        print(f"  {metric:<44} {value:>16.6g} {report['units'][metric]}{unscaled}")
    failed_frac = report["failed"] / report["attempted"]
    print(f"  {'failed_frac':<44} {failed_frac:>16.6g} share ({report['failed']} of {report['attempted']} operations)")
    print(f"sim_digest {report['sim_digest']}")
    for problem in report["problems"]:
        print(f"FAILED: {problem}")
    for miss in report.get("predictions", []):
        print(f"prediction not met: {miss}")
    for path in report.get("files", []):
        print(f"wrote {path}")
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({k: v for k, v in report.items() if k != "units"}, indent=1, default=str) + "\n"
    )
    correct = report["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m: {"value": v, "unit": report["units"][m]} for m, v in report["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
