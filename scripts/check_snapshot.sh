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
# serve` / `repro compare` print (scripts/cli_snapshot.py), for the time
# series the recorder holds (scripts/recorder_snapshot.py), and for the
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

# Every step runs and prints its result, so an intended change in one step
# does not hide the others; the exit status is non-zero if any step differed.
FAILED=()

# snapshot_step NAME SCRIPT WHAT: run scripts/SCRIPT against both src trees
# and compare the JSON it writes byte for byte.
snapshot_step() {
    local name="$1" script="$2" what="$3" tree
    for tree in base head; do
        local src=src label="working tree"
        if [[ "$tree" == base ]]; then src="$WORKDIR/base/src"; label="$BASE_REF"; fi
        echo "== $name @ $label =="
        if ! PYTHONPATH="$src" python "scripts/$script" "$WORKDIR/$tree-$name.json"; then
            echo "$name check FAILED: scripts/$script exited non-zero @ $label" >&2
            FAILED+=("$name")
            return
        fi
    done
    if cmp -s "$WORKDIR/base-$name.json" "$WORKDIR/head-$name.json"; then
        echo "$name check: bit-identical to $BASE_REF"
    else
        echo "$name check FAILED: $what diverge from $BASE_REF" >&2
        diff "$WORKDIR/base-$name.json" "$WORKDIR/head-$name.json" | head -40 >&2 || true
        FAILED+=("$name")
    fi
}

git worktree add --detach "$WORKDIR/base" "$BASE_REF" >/dev/null
snapshot_step metrics metrics_snapshot.py "per-request metrics"

# Cluster-layer parity: with autoscaling/admission disabled (the defaults), a
# replicated deployment must also be bit-identical.
snapshot_step cluster cluster_snapshot.py "replicated metrics (elasticity off)"

# CLI parity: cli_snapshot.py runs a fixed list of `serve` / `compare`
# command lines through repro.cli.main against both src trees, so any change
# to how the CLI builds or reports a deployment shows up as a diff of the
# printed text.
snapshot_step cli cli_snapshot.py "serve/compare output"

# Recorder parity: recorder_snapshot.py dumps every time series of Fig. 14, a
# Hetis run that offloads and re-dispatches, the three baselines and two
# failing fleets (per-device series with equal consecutive samples collapsed).
snapshot_step recorder recorder_snapshot.py "recorder series"

# Benchmark parity: every perfbench workload replays each of its inputs for
# seeds 1, 2 and 3 once (--seconds 0) and prints a sim_digest of the summary
# rows.  Each tree runs its own perfbench, as the benchmark itself compares
# revisions.  Skipped when the base predates perfbench.
if [[ -f "$WORKDIR/base/perfbench/run.py" ]]; then
    for workload in static-humaneval-diurnal hetis-chat-longdoc fleet-churn-sweep; do
        for seed in 1 2 3; do
            echo "== perfbench $workload seed $seed sim_digest @ $BASE_REF and working tree =="
            base_digest="$(cd "$WORKDIR/base" && python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 0 --trace 0 | grep '^sim_digest' || true)"
            head_digest="$(python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 0 --trace 0 | grep '^sim_digest' || true)"
            if [[ -n "$base_digest" && "$base_digest" == "$head_digest" ]]; then
                echo "perfbench $workload seed $seed: $head_digest, identical to $BASE_REF"
            else
                echo "perfbench $workload seed $seed FAILED: '$head_digest' vs '$base_digest' at $BASE_REF" >&2
                FAILED+=("perfbench $workload seed $seed")
            fi
        done
    done
else
    echo "perfbench digest check skipped: $BASE_REF predates perfbench"
fi

if (( ${#FAILED[@]} )); then
    echo "snapshot check FAILED: ${#FAILED[@]} step(s) differ from $BASE_REF:" >&2
    printf '  %s\n' "${FAILED[@]}" >&2
    exit 1
fi
echo "snapshot check: every step identical to $BASE_REF"
