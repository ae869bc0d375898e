"""One-command, resumable regeneration of every checked-in study config.

``repro figures`` is the paper-regeneration entry point the ROADMAP promised:
it discovers every config under ``examples/configs`` (or takes explicit
paths), classifies each by its top-level sections -- ``[experiment]`` grids,
``[planner]`` searches, plain ``[deployment]`` specs -- and runs them all
through the cached, journaled, fault-tolerant
:class:`~repro.experiments.runner.SweepRunner`:

* every finished point lands in the shared result cache and (with a journal)
  the shared :class:`~repro.experiments.runner.RunJournal`, so a killed run
  resumed with the same journal recomputes nothing it already finished;
* a crashing or hanging point degrades to a labelled error row instead of
  aborting the command (the runner always runs ``stop_on_error=False`` here);
* the command ends with an honest degradation report -- n ok / n errored /
  n timed-out / n retried -- and the CLI exits 1 only when the success
  fraction falls below ``--min-success``.

Planner configs count as one pseudo-point each (the search either produced
its ranked table or it did not); their per-candidate evaluations still flow
through the same cache and journal via the planner's own oracle.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.config import (
    ConfigError,
    DeploymentSpec,
    ExecutionSpec,
    extract_execution,
    load_config_mapping,
)
from repro.experiments.runner import (
    TABLE_METRICS,
    PointResult,
    RunJournal,
    SweepRunner,
    degradation_report,
    format_degradation,
    result_table_row,
)

#: Top-level config shapes ``repro figures`` understands, in match order.
CONFIG_KINDS = ("experiment", "planner", "deployment")


def classify_config(data: Mapping[str, Any]) -> str:
    """Which driver a loaded config mapping belongs to."""
    if "experiment" in data:
        return "experiment"
    if "planner" in data:
        return "planner"
    return "deployment"


def discover_configs(configs_dir: "str | Path") -> List[Path]:
    """Every ``.toml``/``.json`` study config under ``configs_dir``, sorted."""
    root = Path(configs_dir)
    if not root.is_dir():
        raise ConfigError(f"configs directory {str(root)!r} does not exist")
    return sorted(
        p for p in root.iterdir() if p.suffix.lower() in (".json", ".toml")
    )


@dataclass
class FigureRun:
    """Outcome of one config: its points (or one pseudo-point) plus context."""

    config: str
    kind: str
    name: str
    results: List[PointResult] = field(default_factory=list)
    plan: Optional[Dict[str, Any]] = None  # planner configs: the PlanResult dict

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


@dataclass
class FiguresReport:
    """Everything one ``run_figures`` invocation produced, plus the audit."""

    runs: List[FigureRun]

    @property
    def results(self) -> List[PointResult]:
        return [res for run in self.runs for res in run.results]

    @property
    def counts(self) -> Dict[str, int]:
        return degradation_report(self.results)

    @property
    def success_fraction(self) -> float:
        counts = self.counts
        if counts["points"] == 0:
            return 1.0
        return counts["ok"] / counts["points"]

    def format(self) -> str:
        return format_degradation(self.counts)


def _parse_overrides(overrides: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    return dict(overrides) if overrides else {}


def _error_point(label: str, error: str) -> PointResult:
    return PointResult(
        index=0, label=label, overrides={}, error=error, error_kind="exception"
    )


def _run_one(
    path: Path,
    jobs: int,
    cache_dir: Optional[str],
    execution: Optional[ExecutionSpec],
    journal: Optional[RunJournal],
    overrides: Dict[str, Any],
) -> FigureRun:
    """Load, classify, and execute one config; never raises for a bad config."""
    name = path.stem
    try:
        data = load_config_mapping(path)
        kind = classify_config(data)
        if kind == "experiment":
            from repro.experiments.driver import load_experiment

            experiment = load_experiment(path)
            if overrides:
                experiment = replace(
                    experiment, base=experiment.base.with_overrides(overrides)
                )
            runner = _make_runner(jobs, cache_dir, execution, journal)
            return FigureRun(
                config=str(path),
                kind=kind,
                name=experiment.name,
                results=runner.run(experiment.expand()),
            )
        if kind == "planner":
            from repro.experiments.planner import load_planner, run_plan

            planner = load_planner(path)
            if overrides:
                planner = replace(
                    planner, deployment=planner.deployment.with_overrides(overrides)
                )
            result = run_plan(
                planner, jobs=jobs, cache_dir=cache_dir, execution=execution
            )
            # One pseudo-point: the search completed and produced its table.
            # (Feasibility is a *finding*, not a failure -- an honest "no
            # plan meets the SLO" regenerates fine.)
            point = PointResult(
                index=0,
                label=planner.name,
                overrides={},
                row={
                    "feasible": result.feasible,
                    "num_evaluated": result.num_evaluated,
                    "total_points": result.total_points,
                },
            )
            return FigureRun(
                config=str(path),
                kind=kind,
                name=planner.name,
                results=[point],
                plan=result.to_dict(),
            )
        # Plain deployment: one point.  Its own [execution] block (if any) is
        # popped and ignored -- the figures-level execution settings govern.
        extract_execution(data, where=str(path))
        spec = DeploymentSpec.from_dict(data)
        if overrides:
            spec = spec.with_overrides(overrides)
        runner = _make_runner(jobs, cache_dir, execution, journal)
        return FigureRun(
            config=str(path), kind=kind, name=name, results=runner.run([({}, spec)])
        )
    except ConfigError as exc:
        return FigureRun(
            config=str(path),
            kind="invalid",
            name=name,
            results=[_error_point(name, f"ConfigError: {exc}")],
        )


def _make_runner(
    jobs: int,
    cache_dir: Optional[str],
    execution: Optional[ExecutionSpec],
    journal: Optional[RunJournal],
) -> SweepRunner:
    kwargs = execution.to_dict() if execution is not None else {}
    if journal is not None:
        # One shared, already-open journal for every sweep-shaped config:
        # appends hit disk immediately, so later configs (and resumed runs)
        # see every line without re-reading the file.
        kwargs["journal"] = journal
    return SweepRunner(jobs=jobs, cache_dir=cache_dir, stop_on_error=False, **kwargs)


def run_figures(
    configs: Sequence["str | Path"],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    execution: Optional[ExecutionSpec] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    out_dir: "str | Path | None" = None,
) -> FiguresReport:
    """Regenerate every config in ``configs`` through the journaled runner.

    ``overrides`` (dotted-path -> value) apply to every config's deployment
    base -- the scale-down knob for CI-sized regeneration smoke runs.  With
    ``out_dir`` set, each sweep-shaped config writes a results CSV and each
    planner config writes its plan JSON there.
    """
    if not configs:
        raise ConfigError("repro figures needs at least one config to regenerate")
    parsed = _parse_overrides(overrides)
    journal = (
        RunJournal(execution.journal)
        if execution is not None and execution.journal is not None
        else None
    )
    runs: List[FigureRun] = []
    for path in configs:
        runs.append(
            _run_one(Path(path), jobs, cache_dir, execution, journal, parsed)
        )
    report = FiguresReport(runs=runs)
    if out_dir is not None:
        write_outputs(report, out_dir)
    return report


def write_outputs(report: FiguresReport, out_dir: "str | Path") -> None:
    """One artifact per config: ``<name>.csv`` tables, ``<name>.plan.json`` plans."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    for run in report.runs:
        if run.kind == "planner" and run.plan is not None:
            target = root / f"{Path(run.config).stem}.plan.json"
            target.write_text(json.dumps(run.plan, indent=2, sort_keys=True) + "\n")
            continue
        if run.kind == "invalid":
            continue
        rows = [result_table_row(res) for res in run.results if not res.skipped]
        axis_names: List[str] = []
        for res in run.results:
            for key in res.overrides:
                if key not in axis_names:
                    axis_names.append(key)
        fieldnames = (
            axis_names
            + list(TABLE_METRICS)
            + ["num_dropped", "truncated", "error_kind", "attempts"]
        )
        target = root / f"{Path(run.config).stem}.csv"
        with open(target, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)


def summarize_point(res: PointResult) -> str:
    """One human line per point for the CLI transcript."""
    flags = "".join(
        tag
        for tag, on in (
            (" [cached]", res.cached),
            (" [resumed]", res.resumed),
            (f" [retried x{res.attempts - 1}]", res.attempts > 1),
        )
        if on
    )
    if res.ok:
        row = res.row
        return (
            f"{res.label}: mean {row['mean_normalized_latency']:.4f} s/tok, "
            f"goodput {row['goodput_rps']:.2f} req/s{flags}"
            if "mean_normalized_latency" in row
            else f"{res.label}: ok{flags}"
        )
    return f"{res.label}: FAILED [{res.error_kind or 'skipped'}] {res.error or ''}{flags}"
