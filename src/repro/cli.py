"""Command-line interface for the Hetis reproduction.

The subcommands cover the common workflows:

``plan``
    With a config file: the SLO-aware fleet planner -- search the deployment
    space described by a ``[planner]`` table over a ``[deployment]`` base for
    the cheapest configuration meeting the target SLO attainment, with the
    simulator as the oracle (``--jobs``/``--cache``/``--budget``; ``--save``
    writes the chosen plan as a runnable deployment config).  Without a
    config: run the Parallelizer on a described cluster and print the
    resulting Primary/Attention role assignment and stage layout.

``serve``
    Simulate serving a workload with one of the systems (hetis, hexgen,
    splitwise, static-tp) and print the latency/throughput summary.

``compare``
    Run the same workload through several systems and print a comparison
    table (the quickest way to reproduce one point of Figs. 8-10).

``serve`` and ``compare`` are ``run`` on a spec built from their flags: each
flag sets the dotted path ``run --set`` takes (``_FLAG_PATHS`` and
``_spec_from_args``), and the spec goes through the same ``api.build``.

``run``
    Run a deployment described by a JSON/TOML config file
    (:class:`~repro.config.DeploymentSpec`); ``--dry-run`` builds and
    validates without simulating, ``--set key=value`` overrides spec fields.

``sweep``
    Run every point of a study config and print/write a CSV or JSON results
    table -- the substrate for parameter studies like the Fig.-14 elasticity
    experiment.  The config is a plain deployment or an ``[experiment]``
    config bundling a base deployment with its grid axes (see
    ``examples/configs/fig14_grid.toml``); ``--grid key=v1,v2,...`` adds axes
    after the config's own (Cartesian product) and replaces the values of an
    axis the config already sweeps.  ``--jobs N`` fans the points out over N
    worker processes (results stay bit-identical to the serial run);
    ``--cache DIR`` re-uses previously computed rows keyed by a content hash
    of each deployment spec; ``--dry-run`` lists the points without running.

``figures``
    Regenerate every checked-in study config in one command: each sweep-shaped
    config runs as ``sweep --keep-going`` would, sharing one journal, and each
    planner config as one search.  With ``--resume JOURNAL`` a killed run
    picks up where it left off; a crashing or hanging point degrades to a
    labelled error row, and the command ends with an honest degradation
    report (n ok / n errored / n timed-out / n retried), exiting 1 only when
    the success fraction falls below ``--min-success``.

The grid-running subcommands (``sweep``, ``plan``, ``figures``) share the
fault-tolerance flags ``--timeout`` (wall-clock bound per point),
``--retries``/``--backoff`` (deterministic retry with exponential backoff),
and ``--resume`` (append-only run journal); the same knobs are accepted as a
top-level ``[execution]`` table in the config files.

``lint``
    Run the determinism / spec-invariant static-analysis rules
    (:mod:`repro.analysis`) over source paths and exit non-zero on findings
    not grandfathered in the checked-in baseline file.

Examples
--------
    python -m repro plan examples/configs/planner_slo.toml --jobs 4 --cache .plan-cache
    python -m repro plan --model llama-70b --gpus a100:4 rtx3090:2 rtx3090:2 p100:4
    python -m repro serve --system hetis --model llama-13b --dataset sharegpt --rate 8 --requests 60
    python -m repro serve --system hetis --rate 8 --requests 60 --slo-ttft 2 --slo-tpot 0.2
    python -m repro compare --model opt-30b --dataset humaneval --rate 20 --requests 48
    python -m repro serve --system static-tp --replicas 4 --router least-kv \
        --autoscaler target-kv --admission kv-threshold --admission-mode defer
    python -m repro serve --replica-gpus a100:2 --replica-gpus t4:4 --router weighted-round-robin
    python -m repro run examples/configs/elastic_cluster.toml
    python -m repro run deployment.json --dry-run
    python -m repro sweep deployment.json --grid workload.request_rate=2,4,8 \
        --grid router.name=round-robin,least-kv --out sweep.csv --jobs 4 --cache .sweep-cache
    python -m repro sweep examples/configs/fig14_grid.toml --jobs 4 --out fig14.csv
    python -m repro sweep deployment.json --grid workload.seed=0,1 --jobs 2 \
        --keep-going --timeout 120 --retries 2 --resume sweep.journal
    python -m repro figures --jobs 4 --cache .fig-cache --resume figures.journal \
        --set workload.num_requests=40 --out-dir figures/
    python -m repro lint src/ --format json
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.api import (
    PreparedRun,
    available_admission_policies,
    available_autoscalers,
    available_routers,
    build,
    build_cluster,
)
from repro.config import (
    ConfigError,
    DeploymentSpec,
    ExecutionSpec,
    expand_grid,
    extract_execution,
    load_config_mapping,
    parse_grid_axis,
    parse_grid_value,
)
from repro.core.parallelizer import Parallelizer, WorkloadHint
from repro.models.spec import get_model_spec
from repro.sim.engine import SimulationResult
from repro.workloads.trace import StreamingTrace

# The experiment runner, driver and planner are imported lazily inside the
# commands that use them: importing repro.experiments eagerly pulls in every
# figure module, which `repro serve`/`run` (and --help) never need.
if TYPE_CHECKING:
    from repro.experiments.runner import PointResult, RunJournal


def _gpus_kind(gpus: Optional[Sequence[str]]) -> str:
    """The ``cluster.kind`` a ``--gpus`` host list names (default: paper cluster)."""
    if not gpus:
        return "paper"
    kind = ",".join(gpus)
    # --gpus reads a bare "a100" as one GPU; a spec blueprint needs a ':' to
    # tell it from a named topology.
    return kind if ":" in kind else f"{kind}:1"


def _fail_at(value: str) -> List[Any]:
    """Parse one ``--fail-at TIME:REPLICA`` into a ``failures.events`` pair."""
    time_s, sep, replica_s = value.partition(":")
    try:
        if sep:
            return [float(time_s), int(replica_s)]
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"takes TIME:REPLICA (e.g. 30:0), got {value!r}")


def _positive_int(value: str) -> int:
    ivalue = int(value)
    if ivalue < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {ivalue}")
    return ivalue


def _add_common_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="llama-13b", help="model name from the catalog")
    parser.add_argument("--dataset", default="sharegpt", choices=["sharegpt", "humaneval", "longbench"])
    parser.add_argument("--rate", type=float, default=5.0, help="Poisson request rate (req/s)")
    parser.add_argument("--requests", type=int, default=60, help="number of requests to simulate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--gpus", nargs="*", default=None, help="hosts as type:count (default: paper cluster)")
    parser.add_argument(
        "--replicas", type=_positive_int, default=1,
        help="number of data-parallel replicas of the deployment (each on its own cluster)",
    )
    parser.add_argument(
        "--router", default="round-robin", choices=available_routers(),
        help="replica router used when --replicas > 1",
    )
    parser.add_argument(
        "--prefill-chunk-tokens", type=_positive_int, default=None,
        help="enable chunked prefill with this per-iteration chunk size "
             "(default: off, monolithic prefill)",
    )
    parser.add_argument(
        "--replica-gpus", action="append", default=None, metavar="SPEC",
        help="per-replica cluster blueprint as comma-separated type:count hosts "
             "(e.g. --replica-gpus a100:2 --replica-gpus t4:4); one flag per "
             "replica, enables heterogeneous replica mixes and overrides "
             "--replicas/--gpus",
    )
    scaling = parser.add_argument_group("elastic serving (replicated deployments)")
    scaling.add_argument(
        "--autoscaler", default=None, choices=available_autoscalers(),
        help="replica autoscaling policy (default: off, fixed active set)",
    )
    scaling.add_argument(
        "--autoscaler-interval", type=float, default=5.0,
        help="seconds between autoscaler decisions",
    )
    scaling.add_argument(
        "--autoscaler-target", type=float, default=None,
        help="policy target: KV utilization in (0,1] for target-kv, "
             "queue depth per replica for queue-depth",
    )
    scaling.add_argument(
        "--min-replicas", type=_positive_int, default=1,
        help="lower bound on active replicas when autoscaling",
    )
    scaling.add_argument(
        "--admission", default=None, choices=available_admission_policies(),
        help="admission control policy (default: off, admit everything)",
    )
    scaling.add_argument(
        "--admission-threshold", type=float, default=None,
        help="overload bound: KV utilization in (0,1] for kv-threshold, "
             "queue depth for queue-threshold",
    )
    scaling.add_argument(
        "--admission-mode", default="reject", choices=["reject", "defer"],
        help="what to do with arrivals while every active replica is overloaded",
    )
    scaling.add_argument(
        "--migration", action="store_true",
        help="KV-aware live migration: queued/preempted work moves off "
             "draining or failed replicas (default: off, work rides in place)",
    )
    scaling.add_argument(
        "--migration-gbps", type=float, default=100.0, metavar="GBPS",
        help="inter-replica link bandwidth used to price KV transfers",
    )
    scaling.add_argument(
        "--fail-at", action="append", type=_fail_at, default=None, metavar="TIME:REPLICA",
        help="inject a replica failure at TIME seconds (repeatable)",
    )
    scaling.add_argument(
        "--failure-rate", type=float, default=0.0, metavar="PER_SEC",
        help="Poisson spot-churn failure rate across the fleet",
    )
    scaling.add_argument(
        "--failures", type=int, default=0, metavar="N",
        help="number of generated failures when --failure-rate is set",
    )
    scaling.add_argument(
        "--failure-seed", type=int, default=0,
        help="seed for the generated failure schedule",
    )
    scaling.add_argument(
        "--failure-recovery", type=float, default=30.0, metavar="SECONDS",
        help="outage length before a failed replica rejoins",
    )
    slo = parser.add_argument_group("latency SLOs (attainment / goodput scoring)")
    slo.add_argument(
        "--slo-ttft", type=float, default=None, metavar="SECONDS",
        help="TTFT objective in seconds (default: the loose interactive-chat bound)",
    )
    slo.add_argument(
        "--slo-tpot", type=float, default=None, metavar="SECONDS",
        help="TPOT objective in seconds per output token",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser(
        "plan",
        help="fleet planner: search a [planner] config for the cheapest "
             "SLO-meeting deployment (without a config: run the Parallelizer "
             "on a described cluster)",
    )
    plan.add_argument(
        "config", nargs="?", default=None,
        help="planner config (.toml/.json) with [planner] and [deployment] "
             "sections; omit to run the single-deployment Parallelizer printout",
    )
    plan.add_argument("--model", default="llama-70b")
    plan.add_argument("--gpus", nargs="*", default=None, help="hosts as type:count (default: paper cluster)")
    plan.add_argument("--delta", type=float, default=0.05)
    plan.add_argument("--avg-prompt", type=int, default=512)
    plan.add_argument("--avg-context", type=int, default=1024)
    plan.add_argument("--concurrency", type=int, default=64)
    plan.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="evaluate candidates over N worker processes (the chosen plan is "
             "bit-identical for any N)",
    )
    plan.add_argument(
        "--cache", default=None, metavar="DIR",
        help="cache candidate rows in DIR keyed by a content hash of each "
             "deployment spec (shared with sweep and figures caches)",
    )
    plan.add_argument(
        "--budget", type=_positive_int, default=None, metavar="N",
        help="cap candidate simulations at N (overrides planner.budget; "
             "cached rows count, so the search is cache-independent)",
    )
    plan.add_argument(
        "--dry-run", action="store_true",
        help="validate the config and list the candidates with their $/hr "
             "without simulating anything",
    )
    plan.add_argument(
        "--set", action="append", default=None, metavar="KEY=VALUE", dest="overrides",
        help="override a deployment-base field by dotted path before the "
             "search (e.g. --set workload.seed=3); repeatable",
    )
    plan.add_argument(
        "--save", default=None, metavar="PATH",
        help="write the chosen plan as a runnable deployment config (.json)",
    )
    _add_execution_args(plan)

    serve = sub.add_parser("serve", help="simulate serving a workload with one system")
    serve.add_argument("--system", default="hetis", choices=["hetis", "hexgen", "splitwise", "static-tp"])
    _add_common_workload_args(serve)
    serve.add_argument(
        "--streaming", action="store_true",
        help="generate the trace lazily (O(chunk) memory) instead of "
             "materializing all requests up front; use for large --requests",
    )
    serve.add_argument(
        "--bounded-memory", action="store_true",
        help="collect metrics with streaming aggregates (GK quantile sketch, "
             "~0.5%% rank error on P95s) so memory stays flat over long runs",
    )

    compare = sub.add_parser("compare", help="run the same workload through several systems")
    compare.add_argument("--systems", nargs="+", default=["splitwise", "hexgen", "hetis"])
    _add_common_workload_args(compare)

    run_p = sub.add_parser(
        "run", help="run a deployment described by a JSON/TOML config file"
    )
    run_p.add_argument("config", help="path to a DeploymentSpec config (.json or .toml)")
    run_p.add_argument(
        "--dry-run", action="store_true",
        help="build and validate the deployment without simulating it",
    )
    run_p.add_argument(
        "--set", action="append", default=None, metavar="KEY=VALUE", dest="overrides",
        help="override a spec field by dotted path (e.g. --set workload.seed=3); "
             "repeatable",
    )

    sweep = sub.add_parser(
        "sweep", help="run every point of a study config and tabulate the results"
    )
    sweep.add_argument(
        "config",
        help="path to a DeploymentSpec config or an [experiment] config "
             "(.json or .toml)",
    )
    sweep.add_argument(
        "--grid", action="append", default=None, metavar="KEY=V1,V2,...",
        help="one sweep axis as dotted-path=comma-separated values "
             "(e.g. --grid workload.request_rate=2,4,8); repeatable, axes follow "
             "the config's own and combine as a Cartesian product",
    )
    sweep.add_argument(
        "--set", action="append", default=None, metavar="KEY=VALUE", dest="overrides",
        help="fixed override applied to every point before the grid expands",
    )
    sweep.add_argument(
        "--dry-run", action="store_true",
        help="validate the config and list the grid points without running",
    )
    sweep.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="run grid points over N worker processes (default 1 = serial; "
             "results are bit-identical either way)",
    )
    sweep.add_argument(
        "--cache", default=None, metavar="DIR",
        help="cache result rows in DIR keyed by a content hash of each "
             "deployment spec; repeat runs and resumed sweeps load cached "
             "rows instead of re-simulating (default: no cache)",
    )
    sweep.add_argument(
        "--keep-going", action="store_true",
        help="run every point even if some fail, report failures at the end "
             "(default: stop at the first failing point)",
    )
    sweep.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the results table to PATH (.csv or .json)",
    )
    sweep.add_argument(
        "--format", default=None, choices=["csv", "json"],
        help="format for --out (default: inferred from the extension)",
    )
    _add_execution_args(sweep)

    figures = sub.add_parser(
        "figures",
        help="regenerate every checked-in study config: each runs as "
             "`sweep --keep-going` (or one planner search), sharing one journal",
    )
    figures.add_argument(
        "configs", nargs="*", default=None, metavar="CONFIG",
        help="config files to regenerate (default: every .toml/.json under "
             "--configs-dir)",
    )
    figures.add_argument(
        "--configs-dir", default="examples/configs", metavar="DIR",
        help="directory scanned for study configs when none are given "
             "explicitly (default: examples/configs)",
    )
    figures.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="run points over N worker processes (results stay bit-identical)",
    )
    figures.add_argument(
        "--cache", default=None, metavar="DIR",
        help="shared result cache keyed by a content hash of each point",
    )
    figures.add_argument(
        "--set", action="append", default=None, metavar="KEY=VALUE", dest="overrides",
        help="override every config's deployment base by dotted path "
             "(e.g. --set workload.num_requests=40 for a scaled-down smoke "
             "regeneration); repeatable",
    )
    figures.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="write one artifact per config there (<stem>.csv tables, "
             "<stem>.plan.json plans)",
    )
    figures.add_argument(
        "--min-success", type=float, default=1.0, metavar="FRACTION",
        help="exit 1 when fewer than this fraction of points regenerate "
             "cleanly (default 1.0: any degradation fails the command)",
    )
    _add_execution_args(figures)

    lint_p = sub.add_parser(
        "lint",
        help="static analysis: determinism & spec-invariant rules over source paths",
    )
    lint_p.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint_p.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="report format (default: text)",
    )
    lint_p.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline file of grandfathered findings "
             "(default: lint-baseline.json if present)",
    )
    lint_p.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report every finding as new",
    )
    lint_p.add_argument(
        "--write-baseline", action="store_true",
        help="grandfather the current findings: merge them into the baseline "
             "file (new entries get a TODO justification to fill in) and exit 0",
    )
    lint_p.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rule codes and exit",
    )
    return parser


def _add_execution_args(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance flags shared by every grid-running subcommand.

    Each flag overrides the matching field of the config's optional top-level
    ``[execution]`` table (see :class:`repro.config.ExecutionSpec`).
    """
    fault = parser.add_argument_group("fault tolerance")
    fault.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock bound per point: a point exceeding it is killed and "
             "booked as a timeout row instead of hanging the run "
             "(default: no bound)",
    )
    fault.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="re-submit a crashed or timed-out point up to N times with "
             "deterministic exponential backoff (default 0: failures are final)",
    )
    fault.add_argument(
        "--backoff", type=float, default=None, metavar="SECONDS",
        help="base of the exponential retry backoff: the k-th retry of a "
             "point waits backoff * 2**(k-1) seconds (default 0.5)",
    )
    fault.add_argument(
        "--resume", default=None, metavar="JOURNAL", dest="resume",
        help="append-only JSONL run journal: every finished point is recorded "
             "there as it completes, and re-running with the same journal "
             "skips completed points (safe to pass on the first run)",
    )


def _resolve_execution(
    args: argparse.Namespace, base: Optional[ExecutionSpec]
) -> Optional[ExecutionSpec]:
    """Merge the CLI fault-tolerance flags over the config's ``[execution]``.

    Flags win field-by-field; with no flags set the config block (or ``None``)
    passes through untouched.
    """
    from dataclasses import replace

    updates: Dict[str, Any] = {}
    if getattr(args, "timeout", None) is not None:
        updates["task_timeout"] = args.timeout
    if getattr(args, "retries", None) is not None:
        updates["max_retries"] = args.retries
    if getattr(args, "backoff", None) is not None:
        updates["backoff_base"] = args.backoff
    if getattr(args, "resume", None) is not None:
        updates["journal"] = args.resume
    if not updates:
        return base
    try:
        return replace(base if base is not None else ExecutionSpec(), **updates)
    except ConfigError as exc:
        raise SystemExit(f"error: {exc}") from None


def _parse_set_overrides(items: Optional[Sequence[str]]) -> Dict[str, Any]:
    """Parse repeated ``--set key.path=value`` flags into an override mapping."""
    parsed: Dict[str, Any] = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set {item!r} must look like key.path=value")
        parsed[key.strip()] = parse_grid_value(value.strip())
    return parsed


def _with_set(spec: DeploymentSpec, args: argparse.Namespace) -> DeploymentSpec:
    """``spec`` with the command's ``--set`` overrides applied."""
    parsed = _parse_set_overrides(args.overrides)
    return spec.with_overrides(parsed) if parsed else spec


def _format_summary(name: str, result: SimulationResult) -> str:
    s = result.summary
    return (
        f"{name:<11}{s.mean_normalized_latency:>12.4f}{s.p95_normalized_latency:>12.4f}"
        f"{s.p95_ttft:>10.3f}{s.p95_tpot:>10.4f}{s.throughput_tokens_per_s:>12.1f}"
        f"{result.available_cache_bytes / 1e9:>10.0f}"
    )


_HEADER = (
    f"{'system':<11}{'mean s/tok':>12}{'p95 s/tok':>12}{'p95 TTFT':>10}{'p95 TPOT':>10}"
    f"{'tokens/s':>12}{'cache GB':>10}"
)


def cmd_plan(args: argparse.Namespace, out=sys.stdout) -> int:
    try:
        cluster = build_cluster(_gpus_kind(args.gpus))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    model = get_model_spec(args.model)
    hint = WorkloadHint(
        avg_prompt_tokens=args.avg_prompt,
        avg_context_tokens=args.avg_context,
        expected_concurrency=args.concurrency,
    )
    plan = Parallelizer(cluster, model, hint=hint, delta=args.delta).plan()
    print(f"model: {model}", file=out)
    print(f"cluster: {cluster!r}", file=out)
    print(f"search: {plan.search_seconds:.2f}s over {plan.configs_evaluated} configurations", file=out)
    for idx, instance in enumerate(plan.config.instances):
        print(f"instance {idx}:", file=out)
        for s_idx, stage in enumerate(instance.stages):
            devices = ", ".join(d.name for d in stage.devices)
            print(f"  stage {s_idx}: {stage.num_layers} layers, TP={stage.tp_degree} [{devices}]", file=out)
        workers = ", ".join(d.name for d in instance.attention_workers) or "(none)"
        print(f"  attention workers: {workers}", file=out)
        print(f"  KV capacity: {instance.total_kv_capacity_bytes(model) / 1e9:.0f} GB", file=out)
    return 0


def cmd_fleet_plan(args: argparse.Namespace, out=sys.stdout) -> int:
    """``repro plan <config>``: search for the cheapest SLO-meeting deployment."""
    from dataclasses import replace

    from repro.experiments.planner import (
        FleetPlanner,
        fleet_cost_per_hour,
        load_planner,
    )
    from repro.experiments.runner import overrides_label

    try:
        planner = load_planner(args.config)
        planner = replace(planner, deployment=_with_set(planner.deployment, args))
        if args.budget is not None:
            planner = replace(planner, budget=args.budget)
    except ConfigError as exc:
        raise SystemExit(f"error: {exc}") from None
    execution = _resolve_execution(args, planner.execution)
    suffix = f" -- {planner.description}" if planner.description else ""
    print(f"planner {planner.name}{suffix}", file=out)
    print(f"base: {planner.deployment.describe()}", file=out)
    if planner.inventory is not None:
        listing = ", ".join(f"{k}:{v}" for k, v in sorted(planner.inventory.items()))
        print(f"inventory: {listing}", file=out)
    axes = ", ".join(planner.axes) if planner.search else "no search axes"
    print(
        f"{planner.num_points} candidate(s) over {axes}; target attainment "
        f"{planner.target_attainment:g}, strategies: {', '.join(planner.strategies)}",
        file=out,
    )
    if args.dry_run:
        for overrides, dspec in planner.expand():
            print(
                f"  {overrides_label(overrides)}  (${fleet_cost_per_hour(dspec):.2f}/hr)",
                file=out,
            )
        print("config OK (dry run, nothing simulated)", file=out)
        return 0
    result = FleetPlanner(
        planner, jobs=args.jobs, cache_dir=args.cache, execution=execution
    ).plan()
    counters = (
        f"evaluated {result.num_evaluated} of {result.total_points} candidate(s), "
        f"pruned {result.num_pruned} as dominated"
    )
    if result.num_filtered:
        counters += f", filtered {result.num_filtered} by inventory"
    if result.budget_exhausted:
        counters += f" [budget of {result.budget} exhausted]"
    print(counters, file=out)
    print(
        f"{'#':>3} {'$/hr':>8} {'attain':>8} {'goodput':>9} {'status':<11} "
        f"{'via':<9} candidate",
        file=out,
    )
    for rank, cand in enumerate(result.candidates, 1):
        att = f"{cand.slo_attainment:.3f}" if cand.slo_attainment is not None else "-"
        goodput = f"{cand.goodput_rps:.2f}" if cand.goodput_rps is not None else "-"
        if cand.feasible:
            status = "feasible"
        elif cand.error is not None:
            status = "error"
        elif cand.evaluated:
            status = "infeasible"
        elif cand.pruned:
            status = "pruned"
        else:
            status = "unevaluated"
        via = cand.source if cand.evaluated else "-"
        print(
            f"{rank:>3} {cand.cost_per_hour:>8.2f} {att:>8} {goodput:>9} "
            f"{status:<11} {via:<9} {cand.label}",
            file=out,
        )
    if result.best is None:
        print("no feasible plan: no evaluated candidate met the target attainment", file=out)
        return 1
    best = result.best
    print(
        f"cheapest feasible plan: {best.label} at ${best.cost_per_hour:.2f}/hr "
        f"(attainment {best.slo_attainment:.3f} >= {result.target_attainment:g})",
        file=out,
    )
    if args.save:
        try:
            DeploymentSpec.from_dict(result.best_spec).save(args.save)
        except ConfigError as exc:
            raise SystemExit(f"error: {exc}") from None
        print(f"wrote chosen deployment to {args.save}", file=out)
    return 0


#: ``serve``/``compare`` flags that copy their value to one spec path (the
#: dotted syntax of ``repro run --set``); a flag left unset writes nothing.
_FLAG_PATHS = {
    "model": "model",
    "prefill_chunk_tokens": "system.prefill_chunk_tokens",
    "router": "router.name",
    "dataset": "workload.dataset",
    "rate": "workload.request_rate",
    "requests": "workload.num_requests",
    "seed": "workload.seed",
    "streaming": "workload.streaming",
    "replicas": "cluster.replicas",
    "slo_ttft": "slo.ttft_s",
    "slo_tpot": "slo.tpot_s",
}


def _spec_from_args(args: argparse.Namespace, system: str) -> DeploymentSpec:
    """The deployment a ``serve``/``compare`` command line describes.

    Every flag sets the spec path ``repro run --set`` takes (the table in the
    README's "Configuration-driven runs"), so ``serve`` is ``run`` on this
    spec.  Policy options are written only when their policy flag is set.
    """
    overrides: Dict[str, Any] = {
        path: getattr(args, flag)
        for flag, path in _FLAG_PATHS.items()
        if getattr(args, flag, None) is not None
    }
    overrides["system.name"] = system
    if args.replica_gpus:
        # One blueprint per replica; overrides --replicas and --gpus.
        overrides["cluster.replica_kinds"] = args.replica_gpus
        overrides["cluster.replicas"] = len(args.replica_gpus)
    else:
        overrides["cluster.kind"] = _gpus_kind(args.gpus)
    if args.autoscaler:
        target = (
            "target_utilization" if args.autoscaler == "target-kv" else "target_queue_per_replica"
        )
        overrides["elasticity.autoscaler"] = args.autoscaler
        overrides["elasticity.autoscaler_options.interval"] = args.autoscaler_interval
        overrides["elasticity.autoscaler_options.min_replicas"] = args.min_replicas
        if args.autoscaler_target is not None:
            overrides[f"elasticity.autoscaler_options.{target}"] = args.autoscaler_target
    if args.admission:
        bound = "max_utilization" if args.admission == "kv-threshold" else "max_queue_depth"
        overrides["elasticity.admission"] = args.admission
        overrides["elasticity.admission_options.mode"] = args.admission_mode
        if args.admission_threshold is not None:
            overrides[f"elasticity.admission_options.{bound}"] = args.admission_threshold
    if args.migration:
        overrides["elasticity.migration"] = True
        overrides["elasticity.migration_bandwidth_gbps"] = args.migration_gbps
    if args.fail_at or args.failure_rate or args.failures:
        overrides["failures.events"] = args.fail_at or []
        overrides["failures.rate"] = args.failure_rate
        overrides["failures.num_failures"] = args.failures
        overrides["failures.seed"] = args.failure_seed
        overrides["failures.recovery_time"] = args.failure_recovery
    if getattr(args, "bounded_memory", False):
        overrides["metrics.mode"] = "bounded"
    try:
        return DeploymentSpec().with_overrides(overrides)
    except ConfigError as exc:
        raise SystemExit(f"error: {exc}") from None


def _build(spec: DeploymentSpec, where: str = "") -> PreparedRun:
    """``api.build`` with builder errors turned into clean ``error:`` exits."""
    try:
        return build(spec)
    # TypeError covers free-form spec.system.options that the builder rejects.
    except (ValueError, TypeError, MemoryError) as exc:
        raise SystemExit(f"error: {where}{exc}") from None


def cmd_serve(args: argparse.Namespace, out=sys.stdout) -> int:
    prepared = _build(_spec_from_args(args, args.system))
    num_replicas = len(getattr(prepared.system, "replicas", [None]))
    label = args.system if num_replicas == 1 else f"{num_replicas}x {args.system} [{args.router}]"
    print(f"{label} serving {args.requests} x {args.dataset} @ {args.rate} req/s ({args.model})", file=out)
    _print_result(prepared, prepared.run(), out)
    return 0


def cmd_compare(args: argparse.Namespace, out=sys.stdout) -> int:
    specs = [_spec_from_args(args, name) for name in args.systems]
    print(f"comparing {args.systems} on {args.requests} x {args.dataset} @ {args.rate} req/s ({args.model})", file=out)
    slo = specs[0].slo
    print(_HEADER + (f"{'slo att':>8}" if slo is not None else ""), file=out)
    best_name, best_latency = None, float("inf")
    for name, spec in zip(args.systems, specs):
        result = _build(spec).run()
        line = _format_summary(name, result)
        if slo is not None:
            line += f"{result.summary.slo_attainment:>8.1%}"
        print(line, file=out)
        if result.summary.mean_normalized_latency < best_latency:
            best_name, best_latency = name, result.summary.mean_normalized_latency
    print(f"lowest mean normalized latency: {best_name}", file=out)
    return 0


def _load_spec(args: argparse.Namespace) -> DeploymentSpec:
    """Load the config file and apply any ``--set`` overrides; clean exits.

    An optional top-level ``[execution]`` table is tolerated and ignored -- a
    single in-process simulation has nothing to retry -- so one config works
    for every subcommand.
    """
    try:
        data = load_config_mapping(args.config)
        extract_execution(data, where=str(args.config))
        try:
            spec = DeploymentSpec.from_dict(data)
        except ConfigError as exc:
            # Same path-prefixed message DeploymentSpec.load would produce.
            raise ConfigError(f"{args.config}: {exc}") from None
        return _with_set(spec, args)
    except ConfigError as exc:
        raise SystemExit(f"error: {exc}") from None


def _print_result(prepared: PreparedRun, result: SimulationResult, out) -> None:
    """Summary block shared by ``run`` and ``serve``."""
    spec, elasticity = prepared.spec, prepared.spec.elasticity
    # Duck-typed: the fleet attributes read below exist only on the
    # ClusterServingSystem that a spec with elasticity or failures builds.
    system: Any = prepared.system
    print(_HEADER, file=out)
    print(_format_summary(spec.system.name, result), file=out)
    s = result.summary
    if spec.slo is not None:
        print(
            f"slo [TTFT<={spec.slo.ttft_s:g}s, TPOT<={spec.slo.tpot_s:g}s]: "
            f"attainment {s.slo_attainment:.1%}, goodput {s.goodput_rps:.2f} req/s",
            file=out,
        )
    if elasticity is not None and elasticity.admission:
        print(
            f"admission [{elasticity.admission}/{system.admission.mode}]: "
            f"{s.num_rejected} rejected ({s.rejection_rate:.1%}), "
            f"{s.num_deferrals} deferrals; SLO attainment {s.slo_attainment:.1%}, "
            f"goodput {s.goodput_rps:.2f} req/s",
            file=out,
        )
    if elasticity is not None and elasticity.autoscaler:
        timeline = ", ".join(f"t={t:.0f}s->{n}" for t, n in system.scale_events) or "no changes"
        print(
            f"autoscaler [{elasticity.autoscaler}]: active replicas {system.num_active}/"
            f"{len(system.replicas)} at end; timeline: {timeline}",
            file=out,
        )
    failure_events = getattr(system, "failure_events", None)
    if failure_events:
        fired = ", ".join(f"t={t:.0f}s replica {i}" for t, i in failure_events)
        print(f"failures: {len(failure_events)} injected ({fired})", file=out)
    if elasticity is not None and elasticity.migration and system.migration_enabled:
        print(
            f"migration [{elasticity.migration_bandwidth_gbps:g} Gbps]: "
            f"{system.num_migrated_requests} request(s) moved, "
            f"{system.migrated_bytes / 1e9:.3f} GB of KV transferred",
            file=out,
        )
    if result.num_dropped:
        print(
            f"warning: {result.num_dropped} request(s) dropped (did not fit in cluster memory)",
            file=out,
        )
    if result.truncated:
        print(
            f"warning: run truncated ({result.truncation_reason}); "
            "metrics cover only the simulated prefix",
            file=out,
        )


def cmd_run(args: argparse.Namespace, out=sys.stdout) -> int:
    spec = _load_spec(args)
    prepared = _build(spec, where=f"building {args.config}: ")
    if args.dry_run:
        print(f"config OK: {spec.describe()}", file=out)
        print(f"system: {prepared.describe()}", file=out)
        trace = prepared.trace
        if isinstance(trace, StreamingTrace):
            # Lazy traces have no cheap length/duration; counting would force
            # the full stream a dry run exists to avoid.
            print(f"trace: {trace.describe()}", file=out)
        else:
            print(f"trace: {len(trace)} requests over {trace.duration:.1f}s", file=out)
        return 0
    print(spec.describe(), file=out)
    _print_result(prepared, prepared.run(), out)
    return 0


def _write_sweep_output(
    rows: List[Dict[str, Any]],
    path: str,
    fmt: Optional[str],
    fieldnames: Optional[List[str]] = None,
) -> None:
    """Write the results table; ``fieldnames`` keeps the CSV header present
    (axis + metric columns) even when the sweep produced zero rows."""
    if fmt is None:
        fmt = "json" if path.lower().endswith(".json") else "csv"
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    else:
        if fieldnames is None:
            fieldnames = list(rows[0]) if rows else []
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)


def _sweep(
    path: str,
    args: argparse.Namespace,
    out,
    keep_going: bool,
    table: Optional[str],
    journal: Optional[RunJournal] = None,
) -> List[PointResult]:
    """Load a sweep-shaped config, run its points, print one line each, write the table.

    The body of ``sweep``, and of ``figures`` for every config that is not a
    planner search.  ``--set`` overrides apply to the config's base; ``--grid``
    axes follow its ``[experiment.grid]`` axes, and one the config already
    sweeps keeps its place with the new values.  Points run through the
    parallel, cached, fault-tolerant
    :class:`~repro.experiments.runner.SweepRunner` (``--jobs``/``--cache``
    plus the execution knobs, flags over the config's ``[execution]``) and
    print in grid order.  A failing point aborts with its override label --
    or, with ``keep_going``, becomes a labelled error row whose
    ``error_kind``/``attempts`` columns say what killed it.  ``table`` is the
    results file (axis columns, then metric columns); a bad config raises
    :class:`ConfigError`.
    """
    from repro.experiments.driver import load_study
    from repro.experiments.runner import (
        TABLE_METRICS,
        SweepRunner,
        overrides_label,
        result_table_row,
    )

    study = load_study(path)
    axes = {**study.axes, **dict(parse_grid_axis(axis) for axis in getattr(args, "grid", None) or [])}
    points = expand_grid(_with_set(study.base, args), axes)
    print(
        f"sweep {study.name} over {len(points)} deployment(s) "
        f"({', '.join(axes) if axes else 'no grid axes'})",
        file=out,
    )
    if getattr(args, "dry_run", False):
        for overrides, _ in points:
            print(f"  {overrides_label(overrides)}", file=out)
        print("config OK (dry run, nothing simulated)", file=out)
        return []
    execution = _resolve_execution(args, study.execution)
    options: Dict[str, Any] = execution.to_dict() if execution is not None else {}
    if journal is not None:
        options["journal"] = journal
    runner = SweepRunner(
        jobs=args.jobs, cache_dir=args.cache, stop_on_error=not keep_going, **options
    )
    results = runner.run(points)
    rows: List[Dict[str, Any]] = []
    for res in results:
        if res.skipped and res.error_kind != "cancelled":
            continue
        rows.append(result_table_row(res))
        retried = f"  [retried x{res.retries}]" if res.retries else ""
        if res.error is not None:
            if not keep_going:
                raise SystemExit(f"error: sweep point {res.label}: {res.error}")
            kind = f" [{res.error_kind}]" if res.error_kind else ""
            print(f"  {res.label}: FAILED{kind} ({res.error}){retried}", file=out)
            continue
        row = res.row
        cached = "  [cached]" if res.cached else ""
        resumed = "  [resumed]" if res.resumed else ""
        truncated = (
            f"  [TRUNCATED: {row.get('truncation_reason') or 'unknown'}]"
            if row.get("truncated")
            else ""
        )
        print(
            f"  {res.label}: mean {row['mean_normalized_latency']:.4f} s/tok, "
            f"p95 TTFT {row['p95_ttft']:.3f}s, {row['throughput_tokens_per_s']:.1f} tok/s, "
            f"goodput {row['goodput_rps']:.2f} req/s{cached}{resumed}{retried}{truncated}",
            file=out,
        )
    if table:
        fieldnames = (
            list(axes)
            + list(TABLE_METRICS)
            + ["num_dropped", "truncated", "error_kind", "attempts"]
        )
        _write_sweep_output(rows, table, getattr(args, "format", None), fieldnames=fieldnames)
        print(f"wrote {len(rows)} row(s) to {table}", file=out)
    return results


def cmd_sweep(args: argparse.Namespace, out=sys.stdout) -> int:
    from repro.experiments.runner import degradation_report, format_degradation

    try:
        results = _sweep(args.config, args, out, keep_going=args.keep_going, table=args.out)
    except ConfigError as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.dry_run:
        return 0
    if args.keep_going:
        print(f"degradation: {format_degradation(degradation_report(results))}", file=out)
    num_failed = sum(1 for res in results if res.error is not None)
    if num_failed:
        print(
            f"{num_failed} of {len(results)} point(s) failed (see FAILED lines above)",
            file=out,
        )
        return 1
    return 0


def cmd_figures(args: argparse.Namespace, out=sys.stdout) -> int:
    """``repro figures``: every study config through one resumable, keep-going loop."""
    from dataclasses import replace

    from repro.experiments.planner import load_planner, run_plan
    from repro.experiments.runner import (
        PointResult,
        RunJournal,
        degradation_report,
        format_degradation,
    )

    if not 0.0 <= args.min_success <= 1.0:
        raise SystemExit(
            f"error: --min-success must be within [0, 1], got {args.min_success!r}"
        )
    configs = [Path(c) for c in args.configs or []]
    if not configs:
        root = Path(args.configs_dir)
        if not root.is_dir():
            raise SystemExit(f"error: configs directory {str(root)!r} does not exist")
        configs = sorted(p for p in root.iterdir() if p.suffix.lower() in (".json", ".toml"))
        if not configs:
            raise SystemExit(
                f"error: no .toml/.json study configs found under {args.configs_dir!r}"
            )
    try:
        _parse_set_overrides(args.overrides)  # malformed --set fails the command
    except ConfigError as exc:
        raise SystemExit(f"error: {exc}") from None
    # One open journal for every sweep-shaped config: appends hit disk at
    # once, so later configs (and resumed runs) see every line.
    journal = RunJournal(args.resume) if args.resume else None
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    print(f"regenerating {len(configs)} config(s)", file=out)
    results: List[PointResult] = []
    for path in configs:
        print(f"== {path}", file=out)
        try:
            if "planner" not in load_config_mapping(path):
                table = str(out_dir / f"{path.stem}.csv") if out_dir is not None else None
                results += _sweep(str(path), args, out, keep_going=True, table=table, journal=journal)
                continue
            planner = load_planner(path)
            planner = replace(planner, deployment=_with_set(planner.deployment, args))
            plan = run_plan(
                planner, jobs=args.jobs, cache_dir=args.cache,
                execution=_resolve_execution(args, planner.execution),
            )
        except ConfigError as exc:
            # An invalid config is one error point, not the end of the run.
            print(f"  {path.stem}: FAILED [exception] (ConfigError: {exc})", file=out)
            results.append(PointResult(
                index=0, label=path.stem, overrides={},
                error=f"ConfigError: {exc}", error_kind="exception",
            ))
            continue
        # A planner search is one pseudo-point: it either produced its ranked
        # table or it did not (an honest "no plan meets the SLO" is a finding).
        print(
            f"  planner {planner.name}: {'feasible' if plan.feasible else 'no feasible'} "
            f"plan, evaluated {plan.num_evaluated} of {plan.total_points} candidate(s)",
            file=out,
        )
        results.append(PointResult(index=0, label=planner.name, overrides={}, row={
            "feasible": plan.feasible,
            "num_evaluated": plan.num_evaluated,
            "total_points": plan.total_points,
        }))
        if out_dir is not None:
            target = out_dir / f"{path.stem}.plan.json"
            target.write_text(json.dumps(plan.to_dict(), indent=2, sort_keys=True) + "\n")
            print(f"wrote {target}", file=out)
    counts = degradation_report(results)
    print(f"degradation: {format_degradation(counts)}", file=out)
    fraction = counts["ok"] / counts["points"] if counts["points"] else 1.0
    if fraction < args.min_success:
        print(
            f"error: success fraction {fraction:.1%} below "
            f"--min-success {args.min_success:.1%}",
            file=out,
        )
        return 1
    print(f"success fraction {fraction:.1%} (min {args.min_success:.1%})", file=out)
    return 0


def cmd_lint(args: argparse.Namespace, out=sys.stdout) -> int:
    # Imported lazily: the analysis subsystem is only needed by this command.
    from repro.analysis import (
        DEFAULT_BASELINE,
        LINT_RULES,
        Baseline,
        BaselineError,
        lint_paths,
    )

    if args.list_rules:
        print(LINT_RULES.help_text(), file=out)
        return 0
    paths = args.paths or ["src"]
    baseline_path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE)
    baseline: Optional[Baseline] = None
    if not args.no_baseline:
        if baseline_path.exists():
            try:
                baseline = Baseline.load(baseline_path)
            except BaselineError as exc:
                raise SystemExit(f"error: {exc}") from None
        elif args.baseline:
            raise SystemExit(f"error: baseline file {args.baseline!r} does not exist")
    try:
        report = lint_paths(paths, baseline=baseline)
    except (FileNotFoundError, OSError) as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.write_baseline:
        stale = {entry.key() for entry in report.stale_baseline}
        kept = [e for e in (baseline.entries if baseline else []) if e.key() not in stale]
        merged = Baseline(kept + Baseline.from_findings(report.findings).entries)
        merged.save(baseline_path)
        print(
            f"wrote {len(merged)} baseline entr{'y' if len(merged) == 1 else 'ies'} "
            f"to {baseline_path} (new entries carry a TODO justification)",
            file=out,
        )
        return 0
    if args.format == "json":
        json.dump(report.to_dict(), out, indent=2)
        out.write("\n")
        return 0 if report.ok else 1
    for finding in report.findings:
        print(finding.format(), file=out)
    for entry in report.stale_baseline:
        print(
            f"warning: stale baseline entry {entry.code} in {entry.path} "
            "matches nothing; remove it from the baseline file",
            file=out,
        )
    summary = (
        f"{report.files_checked} file(s) checked: "
        f"{len(report.findings)} new finding(s), "
        f"{len(report.baselined)} baselined"
    )
    if report.stale_baseline:
        summary += f", {len(report.stale_baseline)} stale baseline entr" + (
            "y" if len(report.stale_baseline) == 1 else "ies"
        )
    print(summary, file=out)
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None, out=sys.stdout) -> int:
    """Entry point used by ``python -m repro`` and by the tests."""
    args = build_parser().parse_args(argv)
    if args.command == "plan":
        # A config file selects the fleet planner; without one the command
        # keeps its historical meaning (Parallelizer printout).
        if args.config is not None:
            return cmd_fleet_plan(args, out)
        return cmd_plan(args, out)
    if args.command == "serve":
        return cmd_serve(args, out)
    if args.command == "compare":
        return cmd_compare(args, out)
    if args.command == "run":
        return cmd_run(args, out)
    if args.command == "sweep":
        return cmd_sweep(args, out)
    if args.command == "figures":
        return cmd_figures(args, out)
    if args.command == "lint":
        return cmd_lint(args, out)
    raise ValueError(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
