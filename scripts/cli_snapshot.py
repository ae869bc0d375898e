#!/usr/bin/env python
"""Dump the stdout of a fixed list of ``repro serve`` / ``repro compare`` runs.

Companion to ``metrics_snapshot.py`` and ``cluster_snapshot.py`` for the CLI
layer: every invocation below runs in-process through ``repro.cli.main`` and
the JSON maps each command line to the exact text it printed.
``check_snapshot.sh`` runs this same file against the base revision's ``src``
tree and the working tree's, then compares the two files byte-for-byte, so a
change to how the CLI builds or reports a deployment cannot slip through.

The list covers all four systems and every elasticity, failure, migration,
SLO, streaming and chunking flag.  ``plan`` is left out: its ``search: ...s``
line is wall-clock time.

    PYTHONPATH=src python scripts/cli_snapshot.py out.json
"""

from __future__ import annotations

import io
import json
import sys

from repro.cli import main

SMALL = ["--gpus", "a100:1", "rtx3090:2"]

INVOCATIONS = [
    ["serve", "--system", "hetis", *SMALL, "--rate", "8", "--requests", "16", "--seed", "1"],
    ["serve", "--system", "hexgen", *SMALL, "--dataset", "humaneval", "--rate", "10",
     "--requests", "16"],
    ["serve", "--system", "splitwise", *SMALL, "--rate", "6", "--requests", "12"],
    ["serve", "--system", "static-tp", "--model", "opt-30b", "--gpus", "a100:2",
     "--dataset", "longbench", "--rate", "3", "--requests", "8"],
    ["serve", "--system", "static-tp", "--requests", "8", "--rate", "4"],
    ["serve", "--system", "static-tp", "--gpus", "a100", "rtx3090", "--rate", "4",
     "--requests", "6"],
    ["serve", "--system", "static-tp", "--gpus", "a100:1", "--replicas", "2",
     "--router", "least-kv", "--rate", "12", "--requests", "16"],
    ["serve", "--system", "static-tp", "--replicas", "3", "--replica-gpus", "a100:1",
     "--replica-gpus", "rtx3090:2", "--router", "weighted-round-robin", "--rate", "10",
     "--requests", "12"],
    ["serve", "--system", "static-tp", "--gpus", "a100:1", "--replicas", "3",
     "--autoscaler", "target-kv", "--autoscaler-interval", "1", "--autoscaler-target",
     "0.3", "--min-replicas", "2", "--rate", "12", "--requests", "16"],
    ["serve", "--system", "static-tp", "--gpus", "a100:1", "--replicas", "2",
     "--autoscaler", "queue-depth", "--autoscaler-target", "2", "--rate", "12",
     "--requests", "16"],
    ["serve", "--system", "static-tp", "--gpus", "rtx3090:2", "--dataset", "longbench",
     "--replicas", "2", "--admission", "kv-threshold", "--admission-threshold", "0.05",
     "--admission-mode", "defer", "--rate", "20", "--requests", "12"],
    ["serve", "--system", "static-tp", "--gpus", "rtx3090:2", "--dataset", "longbench",
     "--replicas", "2", "--admission", "queue-threshold", "--admission-threshold", "1",
     "--rate", "20", "--requests", "12"],
    ["serve", "--system", "static-tp", "--gpus", "a100:1", "--replicas", "2",
     "--fail-at", "0.5:0", "--fail-at", "1:1", "--failure-recovery", "2", "--rate", "12",
     "--requests", "16"],
    ["serve", "--system", "static-tp", "--gpus", "a100:1", "--replicas", "2",
     "--failure-rate", "1", "--failures", "2", "--failure-seed", "3", "--migration",
     "--migration-gbps", "25", "--rate", "12", "--requests", "16"],
    ["serve", "--system", "static-tp", *SMALL, "--slo-ttft", "1", "--slo-tpot", "0.1",
     "--rate", "8", "--requests", "12"],
    ["serve", "--system", "hetis", *SMALL, "--prefill-chunk-tokens", "256",
     "--slo-ttft", "2", "--rate", "8", "--requests", "12"],
    ["serve", "--system", "static-tp", "--gpus", "a100:1", "--streaming",
     "--bounded-memory", "--rate", "8", "--requests", "16", "--seed", "2"],
    ["compare", *SMALL, "--rate", "6", "--requests", "8"],
    ["compare", "--systems", "static-tp", "hexgen", *SMALL, "--replicas", "2",
     "--router", "power-of-two", "--slo-ttft", "5", "--rate", "10", "--requests", "12"],
]


def snapshot() -> dict:
    out = {}
    for argv in INVOCATIONS:
        buf = io.StringIO()
        code = main(list(argv), out=buf)
        out[" ".join(argv)] = {"exit": code, "stdout": buf.getvalue()}
    return out


if __name__ == "__main__":
    path = sys.argv[1] if len(sys.argv) > 1 else "cli_snapshot.json"
    with open(path, "w") as fh:
        json.dump(snapshot(), fh, indent=1, sort_keys=True)
    print(f"wrote {path}")
