#!/usr/bin/env bash
# Chunking-off metric-snapshot bit-identity check against a base revision.
#
#   scripts/check_snapshot.sh [base-ref]     # default: origin/main, then main
#
# Generates scripts/metrics_snapshot.py output twice on the SAME machine --
# once from a clean worktree of the base revision, once from the current
# tree -- and diffs the JSON byte-for-byte.  Running both sides locally keeps
# the comparison robust to BLAS/platform differences; only a code change can
# make it fail.  Chunked prefill is off by default, so this guards the
# "existing metric snapshots stay bit-identical unless opted in" contract.
# The same comparison then runs for replicated deployments
# (scripts/cluster_snapshot.py) and for the text `repro serve` / `repro
# compare` print (scripts/cli_snapshot.py).

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
(cd "$WORKDIR/base" && PYTHONPATH=src python scripts/metrics_snapshot.py "$WORKDIR/base.json")

echo "== snapshot @ working tree =="
PYTHONPATH=src python scripts/metrics_snapshot.py "$WORKDIR/head.json"

if cmp -s "$WORKDIR/base.json" "$WORKDIR/head.json"; then
    echo "snapshot check: bit-identical to $BASE_REF"
else
    echo "snapshot check FAILED: metrics diverge from $BASE_REF (chunking off)" >&2
    diff "$WORKDIR/base.json" "$WORKDIR/head.json" | head -40 >&2 || true
    exit 1
fi

# Cluster-layer parity: with autoscaling/admission disabled (the defaults), a
# replicated deployment must also be bit-identical.  The HEAD copy of
# cluster_snapshot.py runs against both src trees (it restricts itself to
# pre-elasticity API); skipped when the base predates multi-replica serving.
if PYTHONPATH="$WORKDIR/base/src" python -c "from repro.api import build_replicated_system" 2>/dev/null; then
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
else
    echo "cluster snapshot check skipped: $BASE_REF predates multi-replica serving"
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
