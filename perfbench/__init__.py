"""The simulator's benchmark: workloads, span tracing and per-layer metrics.

Run it with ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.
"""
