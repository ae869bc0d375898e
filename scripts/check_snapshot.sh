#!/usr/bin/env bash
# Chunking-off metric-snapshot bit-identity check against a base revision.
#
#   scripts/check_snapshot.sh [base-ref]     # default: origin/main, then main
#
# Generates scripts/metrics_snapshot.py output twice on the SAME machine --
# the working tree's copy of the script run once against the src tree of a
# clean worktree of the base revision, once against the current tree -- and
# diffs the JSON byte-for-byte.  Running both sides locally keeps the
# comparison robust to BLAS/platform differences; only a code change can make
# it fail.  The scenarios cover every system, a GQA model and chunked prefill;
# the rest run with chunking off, guarding the "existing metric snapshots stay
# bit-identical unless opted in" contract.  The same comparison then runs for
# replicated deployments (scripts/cluster_snapshot.py), for the text `repro
# serve` / `repro compare` print (scripts/cli_snapshot.py), and for the
# sim_digest of every perfbench workload at seeds 1, 2 and 3.

set -euo pipefail
cd "$(dirname "$0")/.."

BASE_REF="${1:-}"
if [[ -z "$BASE_REF" ]]; then
    if git rev-parse --verify --quiet origin/main >/dev/null; then
        BASE_REF=origin/main
    else
        BASE_REF=main
    fi
fi

if [[ "$(git rev-parse "$BASE_REF")" == "$(git rev-parse HEAD)" ]] \
   && git diff --quiet "$BASE_REF" -- src scripts; then
    echo "snapshot check: no src/ changes vs $BASE_REF, trivially identical"
    exit 0
fi

WORKDIR="$(mktemp -d)"
trap 'git worktree remove --force "$WORKDIR/base" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

echo "== snapshot @ $BASE_REF =="
git worktree add --detach "$WORKDIR/base" "$BASE_REF" >/dev/null
PYTHONPATH="$WORKDIR/base/src" python scripts/metrics_snapshot.py "$WORKDIR/base.json"

echo "== snapshot @ working tree =="
PYTHONPATH=src python scripts/metrics_snapshot.py "$WORKDIR/head.json"

if cmp -s "$WORKDIR/base.json" "$WORKDIR/head.json"; then
    echo "snapshot check: bit-identical to $BASE_REF"
else
    echo "snapshot check FAILED: metrics diverge from $BASE_REF" >&2
    diff "$WORKDIR/base.json" "$WORKDIR/head.json" | head -40 >&2 || true
    exit 1
fi

# Cluster-layer parity: with autoscaling/admission disabled (the defaults), a
# replicated deployment must also be bit-identical.  The HEAD copy of
# cluster_snapshot.py runs against both src trees.
echo "== cluster snapshot @ $BASE_REF =="
PYTHONPATH="$WORKDIR/base/src" python scripts/cluster_snapshot.py "$WORKDIR/base-cluster.json"
echo "== cluster snapshot @ working tree =="
PYTHONPATH=src python scripts/cluster_snapshot.py "$WORKDIR/head-cluster.json"
if cmp -s "$WORKDIR/base-cluster.json" "$WORKDIR/head-cluster.json"; then
    echo "cluster snapshot check: bit-identical to $BASE_REF (elasticity off)"
else
    echo "cluster snapshot check FAILED: replicated metrics diverge from $BASE_REF" >&2
    diff "$WORKDIR/base-cluster.json" "$WORKDIR/head-cluster.json" | head -40 >&2 || true
    exit 1
fi

# CLI parity: the HEAD copy of cli_snapshot.py runs a fixed list of `serve` /
# `compare` command lines through repro.cli.main against both src trees, so
# any change to how the CLI builds or reports a deployment shows up as a diff
# of the printed text.
echo "== cli snapshot @ $BASE_REF =="
PYTHONPATH="$WORKDIR/base/src" python scripts/cli_snapshot.py "$WORKDIR/base-cli.json"
echo "== cli snapshot @ working tree =="
PYTHONPATH=src python scripts/cli_snapshot.py "$WORKDIR/head-cli.json"
if cmp -s "$WORKDIR/base-cli.json" "$WORKDIR/head-cli.json"; then
    echo "cli snapshot check: byte-identical to $BASE_REF"
else
    echo "cli snapshot check FAILED: serve/compare output diverges from $BASE_REF" >&2
    diff "$WORKDIR/base-cli.json" "$WORKDIR/head-cli.json" | head -40 >&2 || true
    exit 1
fi

# Benchmark parity: every perfbench workload replays each of its inputs for
# seeds 1, 2 and 3 once (--seconds 0) and prints a sim_digest of the summary
# rows.  Each tree runs its own perfbench, as the benchmark itself compares
# revisions.  Skipped when the base predates perfbench.
if [[ -f "$WORKDIR/base/perfbench/run.py" ]]; then
    for workload in static-humaneval-diurnal hetis-chat-longdoc fleet-churn-sweep; do
        for seed in 1 2 3; do
            echo "== perfbench $workload seed $seed sim_digest @ $BASE_REF and working tree =="
            base_digest="$(cd "$WORKDIR/base" && python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 0 --trace 0 | grep '^sim_digest')"
            head_digest="$(python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 0 --trace 0 | grep '^sim_digest')"
            if [[ -n "$base_digest" && "$base_digest" == "$head_digest" ]]; then
                echo "perfbench $workload seed $seed: $head_digest, identical to $BASE_REF"
            else
                echo "perfbench $workload seed $seed FAILED: '$head_digest' vs '$base_digest' at $BASE_REF" >&2
                exit 1
            fi
        done
    done
else
    echo "perfbench digest check skipped: $BASE_REF predates perfbench"
fi
