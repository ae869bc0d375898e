#!/usr/bin/env python3
"""Replay a large diurnal trace without materializing it.

Day-scale traces (10^4--10^5 requests and beyond) do not fit the list-backed
``Trace`` comfortably: the historical engine pre-pushed every arrival into the
event heap and the collector kept a record per finished request, so peak
memory grew linearly with trace length.  This script drives the streaming
replay path end to end:

* ``workload.streaming`` makes the spec's trace a ``generate_trace_stream``
  that yields arrivals lazily from a piecewise diurnal rate schedule (base
  load with recurring peaks) in O(chunk) memory,
* the engine pulls each arrival into its heap only when simulated time
  reaches it, and
* ``metrics.mode = "bounded"`` swaps the per-request record list for
  streaming aggregates plus Greenwald-Khanna quantile sketches, with the
  time-series recorder capped by rollup downsampling.

Run:  python examples/large_trace_replay.py [--requests N]
"""

import argparse

from repro.api import build
from repro.config import DeploymentSpec
from repro.workloads import RatePhase


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--requests", type=int, default=2_000,
        help="trace length; the streaming path is built for 10^4-10^5 and beyond",
    )
    args = parser.parse_args()

    # One "day" of load compressed into 10-minute cycles: a quiet base rate
    # with a 3x peak.  The schedule repeats until num_requests is reached.
    cycle = [
        RatePhase(rate=20.0, duration=300.0),   # off-peak
        RatePhase(rate=60.0, duration=300.0),   # peak
    ]
    cycles_needed = max(1, args.requests // int(0.5 * (20 + 60) * 600) + 1)
    phases = cycle * cycles_needed

    prepared = build(DeploymentSpec().with_overrides({
        "system.name": "static-tp",
        "cluster.kind": "small",
        "workload.dataset": "humaneval",
        "workload.request_rate": 0.0,
        "workload.num_requests": args.requests,
        "workload.phases": phases,
        "workload.streaming": True,
        "metrics.mode": "bounded",
        "metrics.max_recorder_samples_per_key": 4096,
    }))
    print(f"Replaying {prepared.trace.describe()} ...")
    result = prepared.run()

    s = result.summary
    print(f"\n{'finished requests':<24}{s.num_finished:>12}")
    print(f"{'throughput tok/s':<24}{s.throughput_tokens_per_s:>12.1f}")
    print(f"{'mean TTFT (s)':<24}{s.mean_ttft:>12.3f}")
    print(f"{'P95 TTFT (s, sketch)':<24}{s.p95_ttft:>12.3f}")
    print(f"{'P95 s/token (sketch)':<24}{s.p95_normalized_latency:>12.4f}")
    print(f"{'engine events':<24}{result.wall_clock_events:>12}")

    # Bounded mode keeps no per-request state: quantiles above come from GK
    # sketches with rank error <= eps*n (eps defaults to 0.005).
    assert result.metrics.records == []

    if result.truncated:
        print(f"\nwarning: run truncated ({result.truncation_reason}); "
              "metrics cover only the simulated prefix")
    else:
        print("\nrun completed (not truncated); per-request records kept: 0")


if __name__ == "__main__":
    main()
