#!/usr/bin/env bash
# Tiered verification: exactly the sequence the tier-1 verify runs.
#
#   scripts/check.sh          # fast tier, then full tier (tests + benchmarks)
#   scripts/check.sh --fast   # fast tier only (< 30 s)
#
# Stale __pycache__ directories are removed first: test modules are imported
# by basename-derived package names, and caches left by an older layout are
# the classic cause of "import file mismatch" collection errors.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== clearing stale __pycache__ =="
find . -type d -name __pycache__ -prune -exec rm -rf {} +
find . -type f -name '*.pyc' -delete

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Every checked-in sample config must still parse and build (no simulation):
# a config that drifts from the spec schema fails fast, here and in CI.
# Experiment configs (an [experiment] section bundling a deployment with grid
# axes) validate through `repro sweep`, planner studies (a [planner] section)
# through `repro plan`, and plain deployment specs through `repro run`.
echo "== validating checked-in deployment configs (--dry-run) =="
shopt -s nullglob
for cfg in examples/configs/*.json examples/configs/*.toml; do
    if grep -Eq '^\[experiment\]|"experiment"[[:space:]]*:' "$cfg" 2>/dev/null; then
        python -m repro sweep "$cfg" --dry-run >/dev/null
    elif grep -Eq '^\[planner\]|"planner"[[:space:]]*:' "$cfg" 2>/dev/null; then
        python -m repro plan "$cfg" --dry-run >/dev/null
    else
        python -m repro run "$cfg" --dry-run >/dev/null
    fi
    echo "  $cfg OK"
done
shopt -u nullglob

# Static analysis gate: the repo's own AST linter (determinism and spec
# invariants -- see README "Static analysis").  Blocking: any finding not in
# lint-baseline.json fails the build.  ruff and mypy run when available; the
# container image does not ship them, so locally they are best-effort while
# the CI lint job always installs and enforces both.
echo "== repro lint (determinism & spec invariants) =="
python -m repro lint src
if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests scripts benchmarks
else
    echo "== ruff not installed; skipped locally (enforced in CI) =="
fi
if command -v mypy >/dev/null 2>&1; then
    echo "== mypy =="
    mypy
else
    echo "== mypy not installed; skipped locally (enforced in CI) =="
fi

echo "== fast tier: pytest -m 'not slow' =="
python -m pytest -m "not slow" -q

# The benchmark's own tests (perfbench/ is outside pytest's testpaths).
echo "== perfbench self-tests =="
python -m pytest perfbench -q

# Streaming-vs-list parity: the lazy arrival-feeding engine path must stay
# bit-identical to replaying the same entries from a materialized Trace.
echo "== streaming-vs-list engine parity =="
python -m pytest tests/sim/test_streaming.py -q

if [[ "${1:-}" == "--fast" ]]; then
    echo "fast tier passed (full tier skipped)"
    exit 0
fi

# Coverage floor for the router/cluster layer: src/repro/core + src/repro/sim
# shipped with thin direct coverage once; the gate keeps that from recurring.
# pytest-cov is optional locally (the container may not have it) but CI
# installs it, so the floor is always enforced before merge.
COV_FLOOR="${COV_FLOOR:-80}"
if python -c "import pytest_cov" 2>/dev/null; then
    echo "== full tier: pytest with coverage floor (core+sim >= ${COV_FLOOR}%) =="
    python -m pytest -q \
        --cov=src/repro/core --cov=src/repro/sim \
        --cov-report=term --cov-fail-under="$COV_FLOOR"
else
    echo "== full tier: pytest (pytest-cov not installed; coverage floor skipped) =="
    python -m pytest -q
fi

# Parallel-runner smoke test: a real 2-job pool sweep through the CLI.  The
# runner's own determinism suite runs in the fast tier; this catches
# environment-level pool breakage (start method, pickling) that unit mocks
# cannot.
echo "== parallel sweep smoke test (--jobs 2) =="
python -m repro sweep examples/configs/multi_replica.json \
    --grid workload.seed=0,1 --set workload.num_requests=8 --jobs 2 >/dev/null
echo "  2-job pool sweep OK"

# Fault-injection smoke test: a 2-job pool sweep where one point crashes its
# worker and one sleeps past the deadline, run keep-going with retries and a
# journal.  Must exit 0 with both healthy points intact and an honest
# degradation report -- environment-level proof the fault-tolerance layer
# survives a real broken pool, not just the mocked unit paths.
echo "== fault-injection smoke test (crash + timeout under keep-going) =="
python scripts/fault_smoke.py
echo "  degraded sweep smoke OK"

# Paper-regeneration smoke test: `repro figures` over every checked-in study
# config (sweeps and the planner search), scaled down, through a 2-job pool.
# It exits 1 if any point fails to regenerate.
echo "== figures smoke test (repro figures --jobs 2) =="
figures_out="$(mktemp -d)"
python -m repro figures --set workload.num_requests=8 --jobs 2 --out-dir "$figures_out" >/dev/null
rm -rf "$figures_out"
echo "  figures regeneration OK"

# Fleet-planner smoke test: a tiny end-to-end `repro plan` search through the
# CLI (shrunk workload so it stays CI-sized).  Exercises the greedy prune +
# evolutionary refinement path against the real simulator.
echo "== fleet-planner smoke test (repro plan --jobs 2) =="
python -m repro plan examples/configs/planner_slo.toml \
    --set workload.num_requests=16 --jobs 2 >/dev/null
echo "  planner search OK"

# Benchmark replays: each input of every workload once (--seconds 0).  A
# replay exits non-zero on any conservation, truncation or repeat-row
# failure, so the certified dispatch path and the shared continuous-batching
# core (static units alone and in a failing, migrating fleet) run end to end.
for workload in static-humaneval-diurnal hetis-chat-longdoc fleet-churn-sweep; do
    echo "== perfbench $workload replay (--seconds 0) =="
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 0 --trace 0 >/dev/null
    echo "  $workload replay OK"
done

# Traced benchmark smoke: each workload once with every layer wrapped
# (--trace 1, about 33 s for all three on a 2-core VM).  perfbench patches
# simulator methods by name, so a src change that deletes one crashes the run
# (non-zero exit).  A change that silences a layer breaks one of the
# per-layer predictions instead, which the exit code does not cover, so the
# output is searched for them.
for workload in static-humaneval-diurnal hetis-chat-longdoc fleet-churn-sweep; do
    echo "== perfbench $workload traced (--trace 1) =="
    traced=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 0 --trace 1)
    if grep "prediction not met" <<<"$traced"; then
        echo "  $workload: per-layer prediction not met" >&2
        exit 1
    fi
    echo "  $workload traced OK"
done

echo "all tiers passed"
