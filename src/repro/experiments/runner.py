"""Parallel, cached execution of independent experiment points.

The paper's evaluation is dozens of independent ``(system, model, dataset,
rate)`` simulation points -- the Figs. 8-10 rate sweeps, the Fig. 14
elasticity grids -- and every point is a pure function of its serializable
description.  :class:`SweepRunner` exploits exactly that:

* **Process-pool fan-out.**  Points travel to workers as plain-dict payloads
  (a :meth:`DeploymentSpec.to_dict` tree -- never live systems, clusters, or
  recorders); each worker rebuilds the deployment via
  ``api.build(DeploymentSpec.from_dict(payload)).run()`` and sends back a
  compact summary-row dict.  Results are always assembled in submission
  order, so ``jobs`` changes wall-clock only, never output.
* **Serial fallback.**  ``jobs=1`` runs the same task functions in-process
  with no executor at all -- bit-identical to the historical one-point-at-a-
  time loops (the metric snapshot gates enforce this).
* **Per-point error capture.**  A failing point produces a
  :class:`PointResult` whose ``error`` names the exception and whose
  ``label`` names the override combination, instead of a traceback that
  loses which grid cell died.
* **Spec-hash result cache.**  With ``cache_dir`` set, every finished row is
  written to disk keyed by a stable content hash of ``(task kind, payload)``;
  re-running a figure (or resuming an interrupted sweep) loads cached rows
  instead of re-simulating.
* **Fault tolerance.**  ``task_timeout`` bounds each point's wall clock (a
  hung point becomes an ``error_kind="timeout"`` result, never a stalled
  sweep); crashed workers (``BrokenProcessPool``, ``os._exit``, OOM kills)
  take down only their own point -- the pool is rebuilt (at most
  :data:`MAX_POOL_RESTARTS` times) and the remaining queue continues;
  crashed/timed-out points are retried up to ``max_retries`` times with
  deterministic exponential backoff, re-sending the identical payload so a
  retried run stays bit-identical to a clean one.  An exception the task
  raises is deterministic and never retried.
* **Checkpoint / resume.**  With ``journal`` set, every completed or errored
  point is appended (fsync'd, one atomic line each) to a JSONL
  :class:`RunJournal` keyed by the same spec hash as the cache; re-running
  with the same journal replays finished points instead of recomputing, so a
  killed multi-hour run resumes where it died and reproduces the identical
  final table.

Task kinds are a plugin registry (:data:`TASK_KINDS`), so any experiment
whose unit of work is (picklable payload in, JSON-able row out) can fan out
through the same runner -- ``"deployment"`` covers the serving simulations.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.config import DeploymentSpec
from repro.registry import Registry
from repro.sim.engine import SimulationResult

#: Bump when the row schema (or the meaning of a payload) changes: the cache
#: key folds the version in, so stale cache directories become misses instead
#: of silently serving rows with missing fields.
#: v2: rows gained truncated/truncation_reason.
#: v3: rows gained num_dropped_retries.
#: v4: rows gained cost_per_hour (the fleet's $/hr rental price).
#: v5: results gained error_kind/attempts; run journals share the version.
CACHE_VERSION = 5

#: How many times crashed pools are rebuilt in one run before the remaining
#: queue is abandoned with ``error_kind="crash"`` results -- a backstop against
#: a systematically crashing environment.  Timeout-forced rebuilds are bounded
#: by ``max_retries`` instead and do not count.
MAX_POOL_RESTARTS = 5

#: Scalar SummaryStats fields copied into every deployment summary row.
SUMMARY_FIELDS: Tuple[str, ...] = (
    "num_finished",
    "duration",
    "mean_normalized_latency",
    "p95_normalized_latency",
    "mean_ttft",
    "p95_ttft",
    "mean_tpot",
    "p95_tpot",
    "throughput_rps",
    "throughput_tokens_per_s",
    "total_preemptions",
    "num_rejected",
    "num_deferrals",
    "num_dropped_retries",
    "slo_attainment",
    "goodput_rps",
    "rejection_rate",
)


def summary_row(result: SimulationResult) -> Dict[str, Any]:
    """Compact, JSON-able summary of one simulation (what workers return).

    Recorders and per-request metric records never cross the process
    boundary: they are large, and everything the figure tables need is in the
    summary block plus the run-level counters below.
    """
    s = result.summary
    row: Dict[str, Any] = {name: getattr(s, name) for name in SUMMARY_FIELDS}
    row["p95_module_latency"] = dict(s.p95_module_latency)
    row["mean_module_latency"] = dict(s.mean_module_latency)
    row["num_dropped"] = result.num_dropped
    row["available_cache_bytes"] = result.available_cache_bytes
    row["wall_clock_events"] = result.wall_clock_events
    row["truncated"] = result.truncated
    row["truncation_reason"] = result.truncation_reason
    return row


#: Metric columns of results tables, in print order.  ``repro sweep`` and
#: ``repro figures`` write them through one writer, and rows come back in grid
#: order, so the CSV a parallel run writes is byte-identical to the serial one.
TABLE_METRICS: Tuple[str, ...] = (
    "mean_normalized_latency",
    "p95_normalized_latency",
    "p95_ttft",
    "p95_tpot",
    "throughput_rps",
    "throughput_tokens_per_s",
    "slo_attainment",
    "goodput_rps",
    "cost_per_hour",
    "num_finished",
    "num_rejected",
)


def table_row(overrides: Mapping[str, Any], row: Mapping[str, Any]) -> Dict[str, Any]:
    """One results-table row: grid overrides first, then the metric columns."""
    out = dict(overrides)
    for name in TABLE_METRICS:
        out[name] = row[name]
    out["num_dropped"] = row["num_dropped"]
    # .get(): rows written by pre-truncation-aware cache versions lack the
    # flag; absent means the run finished (truncated runs were unreportable).
    out["truncated"] = bool(row.get("truncated", False))
    return out


def result_table_row(res: "PointResult") -> Dict[str, Any]:
    """One results-table row straight from a :class:`PointResult`.

    Extends :func:`table_row` with the execution-audit columns
    (``error_kind``/``attempts``) and admits *failed* points: a point that
    errored under ``--keep-going`` becomes a row whose metric columns are
    empty but whose ``error_kind`` says what killed it, so a degraded run is
    auditable from the CSV alone.
    """
    if res.ok:
        out = table_row(res.overrides, res.row)
    else:
        out = dict(res.overrides)
        for name in TABLE_METRICS:
            out[name] = None
        out["num_dropped"] = None
        out["truncated"] = False
    out["error_kind"] = res.error_kind
    out["attempts"] = res.attempts
    return out


def overrides_label(overrides: Mapping[str, Any]) -> str:
    """Human-readable name of one grid cell (``"(base)"`` for the bare spec)."""
    return ", ".join(f"{k}={v}" for k, v in overrides.items()) or "(base)"


def degradation_report(results: Sequence["PointResult"]) -> Dict[str, int]:
    """Honest end-of-run accounting of a (possibly degraded) result list."""
    counts = {
        "points": len(results),
        "ok": 0,
        "errored": 0,
        "timed_out": 0,
        "cancelled": 0,
        "skipped": 0,
        "retried": 0,
        "resumed": 0,
        "cached": 0,
    }
    for res in results:
        if res.ok:
            counts["ok"] += 1
        elif res.error_kind == "timeout":
            counts["timed_out"] += 1
        elif res.error_kind == "cancelled":
            counts["cancelled"] += 1
        elif res.error is not None:
            counts["errored"] += 1
        else:
            counts["skipped"] += 1
        if res.retries:
            counts["retried"] += 1
        if res.resumed:
            counts["resumed"] += 1
        if res.cached:
            counts["cached"] += 1
    return counts


def format_degradation(counts: Mapping[str, int]) -> str:
    """``"3 ok / 1 errored / 1 timed out / 2 retried"``-style summary line."""
    parts = [
        f"{counts['ok']} ok",
        f"{counts['errored']} errored",
        f"{counts['timed_out']} timed out",
        f"{counts['retried']} retried",
    ]
    for key, label in (("cancelled", "cancelled"), ("skipped", "skipped"),
                       ("resumed", "resumed"), ("cached", "cached")):
        if counts.get(key):
            parts.append(f"{counts[key]} {label}")
    return " / ".join(parts)


# ------------------------------------------------------------------ task kinds

#: Registry of task-kind functions: picklable payload dict in, JSON-able row
#: dict out.  Workers look the function up by name, so registration must
#: happen at import time of a module the worker imports (this one, or a
#: module imported from it).
TASK_KINDS: Registry[Callable[[Mapping[str, Any]], Dict[str, Any]]] = Registry("sweep task kind")


@TASK_KINDS.register("deployment", help="simulate a DeploymentSpec dict, return its summary row")
def _run_deployment(payload: Mapping[str, Any]) -> Dict[str, Any]:
    # Imported lazily so a spawned worker only pays for what it runs.
    from repro.api import build
    from repro.core.cluster_system import system_cost_per_hour

    spec = DeploymentSpec.from_dict(payload)
    prepared = build(spec)
    row = summary_row(prepared.run())
    # Priced off the *built* fleet, so heterogeneous replica mixes and named
    # topologies report exactly what the hardware catalog says they rent for
    # -- the same $/hr objective the fleet planner minimises.
    row["cost_per_hour"] = system_cost_per_hour(prepared.system)
    return row


def _execute_task(kind: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
    return TASK_KINDS.require(kind)(payload)


def _pool_worker(
    index: int, kind: str, payload: Mapping[str, Any]
) -> Tuple[int, Optional[Dict[str, Any]], Optional[str]]:
    """Run one task in a worker process, never letting an exception escape.

    Exceptions are flattened to ``"Type: message"`` strings: some exception
    objects do not survive pickling back to the parent, and the sweep wants a
    per-point diagnosis either way.
    """
    try:
        return index, _execute_task(kind, payload), None
    except BaseException as exc:  # noqa: BLE001 - a sweep point must never kill the sweep
        return index, None, f"{type(exc).__name__}: {exc}"


# ------------------------------------------------------------------ disk cache


class ResultCache:
    """Content-addressed row store under one directory.

    The key is a SHA-256 of the canonical JSON of ``(CACHE_VERSION, kind,
    payload)``; the stored file carries the payload alongside the row, so a
    (vanishingly unlikely) hash collision or a corrupted file degrades to a
    cache miss, never to a wrong row.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(kind: str, payload: Mapping[str, Any]) -> str:
        canonical = json.dumps(
            {"version": CACHE_VERSION, "kind": kind, "payload": payload},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str, kind: str, payload: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1  # not cached yet (or unreadable): plain miss
            return None
        try:
            data = json.loads(text)
        except ValueError:
            # A truncated/corrupt entry (crash mid-write, disk-full) must
            # degrade to a miss, not abort the sweep.  Quarantine it so the
            # recomputed row can be stored and the debris stays inspectable.
            self._quarantine(path)
            self.misses += 1
            return None
        if (
            not isinstance(data, dict)
            or data.get("version") != CACHE_VERSION
            or data.get("kind") != kind
            or data.get("payload") != _json_roundtrip(payload)
            or not isinstance(data.get("row"), dict)
        ):
            self.misses += 1
            return None
        self.hits += 1
        return data["row"]

    def _quarantine(self, path: Path) -> None:
        target = path.with_name(path.name + ".corrupt")
        try:
            path.replace(target)
        except OSError:
            return  # a concurrent sweep already moved/overwrote it
        warnings.warn(
            f"quarantined corrupt result-cache entry {path.name} -> "
            f"{target.name} (treated as a cache miss)",
            RuntimeWarning,
            stacklevel=3,
        )

    def store(
        self, key: str, kind: str, payload: Mapping[str, Any], label: str, row: Mapping[str, Any]
    ) -> None:
        record = {
            "version": CACHE_VERSION,
            "kind": kind,
            "label": label,
            "payload": payload,
            "row": row,
        }
        path = self._path(key)
        # Per-writer temp name: concurrent sweeps sharing a cache directory
        # (the advertised reuse pattern) each write their own file, and the
        # rename is atomic, so a reader never sees a torn entry -- at worst
        # the last writer wins with an identical row.
        tmp = path.with_name(f"{key}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        tmp.replace(path)


def _json_roundtrip(payload: Mapping[str, Any]) -> Any:
    """Payload as it looks after a JSON round-trip (tuples become lists)."""
    return json.loads(json.dumps(payload))


# ------------------------------------------------------------------ run journal


class RunJournal:
    """Append-only JSONL checkpoint of a sweep: one line per finished point.

    Each line is a self-contained record keyed by the same content hash the
    result cache uses (``ResultCache.key``), written with a single ``write``
    call and fsync'd, so a SIGKILL at any instant leaves at most one torn
    *trailing* line -- which :meth:`_load` skips on resume.  ``status="ok"``
    records carry the row and are replayed by a resumed run; error records
    document the failure but are re-attempted (a later run may have more
    retry budget, a fixed environment, or simply better luck with a flaky
    worker -- and a deterministic failure reproduces the same error row, so
    the final table is identical either way).
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self.records: Dict[str, Dict[str, Any]] = {}
        self.malformed_lines = 0
        self._load()

    def _load(self) -> None:
        try:
            text = self.path.read_text()
        except OSError:
            return  # no journal yet: fresh run
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                self.malformed_lines += 1  # torn trailing write from a kill
                continue
            if not isinstance(record, dict) or record.get("version") != CACHE_VERSION:
                self.malformed_lines += 1
                continue
            key = record.get("key")
            if isinstance(key, str) and key:
                self.records[key] = record
        if self.malformed_lines:
            warnings.warn(
                f"run journal {self.path}: skipped {self.malformed_lines} "
                "malformed/stale line(s) (resume continues from the intact ones)",
                RuntimeWarning,
                stacklevel=3,
            )

    def __len__(self) -> int:
        return len(self.records)

    def replay(self, key: str, kind: str) -> Optional[Dict[str, Any]]:
        """The journaled *successful* record for ``key``, if any."""
        record = self.records.get(key)
        if (
            record is None
            or record.get("kind") != kind
            or record.get("status") != "ok"
            or not isinstance(record.get("row"), dict)
        ):
            return None
        return record

    def append(
        self,
        key: str,
        kind: str,
        label: str,
        status: str,
        row: Optional[Mapping[str, Any]] = None,
        error: Optional[str] = None,
        error_kind: Optional[str] = None,
        attempts: int = 1,
        retries: int = 0,
    ) -> None:
        record: Dict[str, Any] = {
            "version": CACHE_VERSION,
            "key": key,
            "kind": kind,
            "label": label,
            "status": status,
            "row": dict(row) if row is not None else None,
            "error": error,
            "error_kind": error_kind,
            "attempts": attempts,
            "retries": retries,
        }
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Open-per-append keeps the file descriptor's lifetime inside this
        # call: a kill between appends can never leave buffered state, and a
        # single write of one full line is atomic at the OS level.
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        self.records[key] = record


# ------------------------------------------------------------------ the runner


@dataclass(frozen=True)
class Task:
    """One schedulable unit of work: a registered kind plus its payload."""

    kind: str
    payload: Mapping[str, Any]
    label: str = ""
    overrides: Mapping[str, Any] = field(default_factory=dict)


#: ``PointResult.error_kind`` vocabulary: ``"exception"`` (the task function
#: raised), ``"timeout"`` (exceeded ``task_timeout``), ``"crash"`` (the worker
#: process died), ``"cancelled"`` (teardown cancelled the pending future).
ERROR_KINDS = ("exception", "timeout", "crash", "cancelled")


@dataclass
class PointResult:
    """Outcome of one task, in the submission-order slot it was given.

    Exactly one of ``row`` / ``error`` is set for an executed point; a point
    skipped because an earlier serial point failed (``stop_on_error``) has
    both ``None`` and ``skipped=True``.  ``error_kind`` classifies failures
    (one of :data:`ERROR_KINDS`), ``attempts`` counts how many times the point
    was handed to a worker, ``retries`` how many of those re-ran it after its
    own crash or timeout (a solo re-run that finds an ambiguous crash's
    culprit, or a bystander's re-run, is an attempt but not a retry), and
    ``resumed`` marks rows replayed from a :class:`RunJournal` instead of
    recomputed.
    """

    index: int
    label: str
    overrides: Dict[str, Any]
    row: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    cached: bool = False
    skipped: bool = False
    error_kind: Optional[str] = None
    attempts: int = 1
    retries: int = 0
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.row is not None


class SweepRunner:
    """Execute independent experiment points, optionally in parallel and cached.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs everything serially
        in-process -- no executor, no pickling -- which is bit-identical to
        the historical per-point loops.  The pool never grows beyond the
        number of uncached points.
    cache_dir:
        Opt-in disk cache directory (created on demand).  ``None`` disables
        caching entirely.
    stop_on_error:
        In serial mode, stop executing after the first failing point (the
        remaining results come back ``skipped``).  In parallel mode, a
        failure observed during the drain stops new submissions -- points
        already running finish and keep their results, never-submitted points
        come back ``skipped``.  Result order is unaffected either way.
    task_timeout:
        Wall-clock bound in seconds per point (``None`` = unbounded).  A
        point that exceeds it is SIGKILLed with its pool and booked as an
        ``error_kind="timeout"`` result; the pool is rebuilt and innocent
        in-flight bystanders are re-queued.  When set, even ``jobs=1`` runs
        through a one-worker pool -- the only way to bound a hung task
        (the default ``task_timeout=None`` serial path is untouched and
        stays bit-identical to the historical loops).
    max_retries:
        How many times a crashed / timed-out point is re-submitted before its
        failure is booked; an exception the task raises is deterministic and
        final.  Retries re-send the identical payload, so a retry that
        succeeds yields the same row a clean run would.
    backoff_base:
        Deterministic exponential backoff between retries of the same point:
        ``backoff_base * 2**(failures-1)`` seconds, no jitter.
    journal:
        Path of (or an already-open) :class:`RunJournal`.  Every completed or
        errored point is appended (fsync'd); points already recorded as
        ``ok`` are replayed instead of recomputed, which is what
        ``--resume`` rides on.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        stop_on_error: bool = True,
        task_timeout: Optional[float] = None,
        max_retries: int = 0,
        backoff_base: float = 0.5,
        journal: "str | Path | RunJournal | None" = None,
    ) -> None:
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
        if task_timeout is not None and (
            not isinstance(task_timeout, (int, float))
            or isinstance(task_timeout, bool)
            or task_timeout <= 0
        ):
            raise ValueError(f"task_timeout must be a number > 0 or None, got {task_timeout!r}")
        if not isinstance(max_retries, int) or isinstance(max_retries, bool) or max_retries < 0:
            raise ValueError(f"max_retries must be an integer >= 0, got {max_retries!r}")
        if (
            not isinstance(backoff_base, (int, float))
            or isinstance(backoff_base, bool)
            or backoff_base < 0
        ):
            raise ValueError(f"backoff_base must be a number >= 0, got {backoff_base!r}")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.stop_on_error = stop_on_error
        self.task_timeout = None if task_timeout is None else float(task_timeout)
        self.max_retries = max_retries
        self.backoff_base = float(backoff_base)
        if journal is None or isinstance(journal, RunJournal):
            self.journal = journal
        else:
            self.journal = RunJournal(journal)

    # -- public entry points -----------------------------------------------------------

    def run(
        self, points: Sequence[Tuple[Mapping[str, Any], DeploymentSpec]]
    ) -> List[PointResult]:
        """Run ``(overrides, spec)`` points (the :func:`~repro.config.expand_grid`
        shape) and return one :class:`PointResult` per point, in input order."""
        tasks = []
        for overrides, spec in points:
            if not isinstance(spec, DeploymentSpec):
                raise TypeError(
                    f"sweep points carry DeploymentSpec objects, got {type(spec).__name__}"
                )
            tasks.append(
                Task(
                    kind="deployment",
                    payload=spec.to_dict(),
                    label=overrides_label(overrides),
                    overrides=dict(overrides),
                )
            )
        return self.run_tasks(tasks)

    def run_tasks(self, tasks: Sequence[Task]) -> List[PointResult]:
        """Execute tasks (journal, cache, then pool or serial); input order."""
        results: List[Optional[PointResult]] = [None] * len(tasks)
        pending: List[Tuple[int, Task, Optional[str]]] = []  # (index, task, cache key)

        for idx, task in enumerate(tasks):
            TASK_KINDS.resolve(task.kind)  # unknown kinds fail before any work runs
            key = None
            if self.cache is not None or self.journal is not None:
                key = ResultCache.key(task.kind, task.payload)
            if self.journal is not None and key is not None:
                record = self.journal.replay(key, task.kind)
                if record is not None:
                    results[idx] = PointResult(
                        index=idx,
                        label=task.label,
                        overrides=dict(task.overrides),
                        row=dict(record["row"]),
                        resumed=True,
                        attempts=int(record.get("attempts") or 1),
                        # Journals written before retries were recorded lack them.
                        retries=int(record.get("retries") or 0),
                    )
                    continue
            if self.cache is not None and key is not None:
                row = self.cache.load(key, task.kind, task.payload)
                if row is not None:
                    results[idx] = PointResult(
                        index=idx,
                        label=task.label,
                        overrides=dict(task.overrides),
                        row=row,
                        cached=True,
                    )
                    if self.journal is not None:
                        # The journal stays a complete record of the run even
                        # when a row came from the shared cache.
                        self.journal.append(
                            key=key, kind=task.kind, label=task.label, status="ok", row=row
                        )
                    continue
            pending.append((idx, task, key))

        if pending:
            # A task_timeout forces the pool path even for jobs=1: an
            # in-process task cannot be interrupted safely, a worker process
            # can be killed.  The default timeout-less serial path is exactly
            # the historical loop (no executor, no pickling).
            if (self.jobs == 1 or len(pending) == 1) and self.task_timeout is None:
                self._run_serial(pending, results)
            else:
                self._run_pool(pending, results)

        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    # -- execution strategies ----------------------------------------------------------

    def _finish(
        self,
        results: List[Optional[PointResult]],
        idx: int,
        task: Task,
        key: Optional[str],
        row: Optional[Dict[str, Any]],
        error: Optional[str],
        error_kind: Optional[str] = None,
        attempts: int = 1,
        retries: int = 0,
    ) -> None:
        if row is not None and self.cache is not None and key is not None:
            self.cache.store(key, task.kind, task.payload, task.label, row)
        results[idx] = PointResult(
            index=idx,
            label=task.label,
            overrides=dict(task.overrides),
            row=row,
            error=error,
            error_kind=error_kind,
            attempts=attempts,
            retries=retries,
        )
        if self.journal is not None and key is not None:
            self.journal.append(
                key=key,
                kind=task.kind,
                label=task.label,
                status="ok" if row is not None else "error",
                row=row,
                error=error,
                error_kind=error_kind,
                attempts=attempts,
                retries=retries,
            )

    def _backoff_delay(self, failure_count: int) -> float:
        return self.backoff_base * (2 ** (failure_count - 1))

    def _run_serial(
        self,
        pending: Sequence[Tuple[int, Task, Optional[str]]],
        results: List[Optional[PointResult]],
    ) -> None:
        failed = False
        for idx, task, key in pending:
            if failed:
                results[idx] = PointResult(
                    index=idx, label=task.label, overrides=dict(task.overrides), skipped=True
                )
                continue
            try:
                row: Optional[Dict[str, Any]] = _execute_task(task.kind, task.payload)
                error: Optional[str] = None
                error_kind: Optional[str] = None
            # Exception, not BaseException: in-process, a KeyboardInterrupt or
            # SystemExit must abort the whole sweep, not become a point error
            # (the pool worker catches BaseException because it runs in a
            # child process where propagation cannot unwind the parent).
            except Exception as exc:
                row, error = None, f"{type(exc).__name__}: {exc}"
                error_kind = "exception"
                failed = self.stop_on_error
            self._finish(results, idx, task, key, row, error, error_kind=error_kind)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """SIGKILL a pool's workers and reap the broken executor.

        ``ProcessPoolExecutor`` has no per-task kill, and ``shutdown`` alone
        would *wait* for the running (possibly hung) task -- the very thing a
        timeout exists to bound.  The private ``_processes`` map is stable
        across CPython 3.8-3.13.
        """
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.kill()
            except Exception:  # noqa: BLE001 - already dead / never spawned
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _run_pool(
        self,
        pending: Sequence[Tuple[int, Task, Optional[str]]],
        results: List[Optional[PointResult]],
    ) -> None:
        """Windowed, fault-tolerant pool drain.

        At most ``max_workers`` futures are in flight, so submit time is
        start time and per-point deadlines are meaningful.  Completions are
        consumed as they settle (each future knows its index, so results land
        in their submission-order slots regardless of completion order):

        * a worker *crash* breaks the executor -- the pool is rebuilt
          (bounded by :data:`MAX_POOL_RESTARTS`) and the in-flight suspects are
          re-run one at a time, so an innocent bystander completes while the
          actual crasher crashes alone and is identified;
        * a *timeout* SIGKILLs the pool (the only way to stop a hung task),
          books the expired point, and re-queues the bystanders;
        * crashed / timed-out points are re-queued up to ``max_retries``
          times with deterministic exponential backoff.
        """
        tasks: Dict[int, Task] = {}
        keys: Dict[int, Optional[str]] = {}
        queue: Deque[int] = deque()
        for idx, task, key in pending:
            tasks[idx] = task
            keys[idx] = key
            queue.append(idx)
        probe: Deque[int] = deque()  # crash suspects, re-run one at a time
        ready: Dict[int, float] = {}  # idx -> earliest resubmission time (backoff)
        attempts: Dict[int, int] = {idx: 0 for idx in tasks}
        failures: Dict[int, int] = {idx: 0 for idx in tasks}
        # Submissions that followed the point's own crash or timeout: each
        # booked failure within budget re-queues the point exactly once.
        retries: Dict[int, int] = {idx: 0 for idx in tasks}
        inflight: Dict[Future, Tuple[int, Optional[float]]] = {}
        max_workers = min(self.jobs, len(pending))
        restarts = 0
        stop = False
        pool = ProcessPoolExecutor(max_workers=max_workers)

        def submit(idx: int) -> None:
            attempts[idx] += 1
            retries[idx] = failures[idx]
            future = pool.submit(_pool_worker, idx, tasks[idx].kind, dict(tasks[idx].payload))
            deadline = (
                None if self.task_timeout is None else time.monotonic() + self.task_timeout
            )
            inflight[future] = (idx, deadline)

        def book(idx: int, row: Optional[Dict[str, Any]], error: Optional[str],
                 error_kind: Optional[str]) -> None:
            nonlocal stop
            self._finish(
                results, idx, tasks[idx], keys[idx], row, error,
                error_kind=error_kind, attempts=attempts[idx], retries=retries[idx],
            )
            if error is not None and self.stop_on_error:
                stop = True

        def book_cancelled(idx: int) -> None:
            # A cancelled pending future is a labelled row naming the
            # override combo, never an unhandled CancelledError traceback.
            task = tasks[idx]
            results[idx] = PointResult(
                index=idx,
                label=task.label,
                overrides=dict(task.overrides),
                error=f"cancelled during pool teardown ({task.label})",
                error_kind="cancelled",
                skipped=True,
                attempts=attempts[idx],
                retries=retries[idx],
            )

        def fail(idx: int, error: str, error_kind: str) -> None:
            failures[idx] += 1
            if not stop and failures[idx] <= self.max_retries:
                ready[idx] = time.monotonic() + self._backoff_delay(failures[idx])
                # Confirmed crashers go back through the solo probe lane so a
                # re-crash cannot take innocents down with it.
                (probe if error_kind == "crash" else queue).append(idx)
            else:
                book(idx, None, error, error_kind)

        def settle(future: Future, idx: int, crashed: Dict[int, str],
                   timeout: Optional[float] = None) -> None:
            try:
                _, row, error = future.result(timeout=timeout)
            except CancelledError:
                book_cancelled(idx)
                return
            except Exception as exc:  # noqa: BLE001 - BrokenProcessPool & kin
                crashed[idx] = (
                    f"{type(exc).__name__}: {exc} (worker process died "
                    "before returning a result)"
                )
                return
            book(idx, row, error, None if error is None else "exception")

        try:
            while queue or probe or inflight:
                now = time.monotonic()
                if not stop:
                    if probe:
                        # Suspects run alone: nothing else may share the pool
                        # until the culprit is identified.
                        if not inflight and now >= ready.get(probe[0], 0.0):
                            submit(probe.popleft())
                    else:
                        while (
                            queue
                            and len(inflight) < max_workers
                            and now >= ready.get(queue[0], 0.0)
                        ):
                            submit(queue.popleft())
                if not inflight:
                    if stop:
                        break
                    if probe:
                        wake = ready.get(probe[0], 0.0)
                    elif queue:
                        wake = ready.get(queue[0], 0.0)
                    else:
                        break
                    time.sleep(max(0.0, wake - time.monotonic()))
                    continue
                wakes = [d for _, d in inflight.values() if d is not None]
                if not stop and not probe and queue and len(inflight) < max_workers:
                    head_ready = ready.get(queue[0], 0.0)
                    if head_ready > now:
                        # A backed-off retry becomes submittable mid-wait.
                        wakes.append(head_ready)
                timeout = max(0.0, min(wakes) - time.monotonic()) if wakes else None
                wait(set(inflight), timeout=timeout, return_when=FIRST_COMPLETED)
                # Settle everything that finished (wait's snapshot can miss a
                # future that completed just after it returned); index order
                # keeps cache/journal writes deterministic within a round.
                crashed: Dict[int, str] = {}
                for future in sorted(
                    [f for f in inflight if f.done()], key=lambda f: inflight[f][0]
                ):
                    idx, _ = inflight.pop(future)
                    settle(future, idx, crashed)
                if crashed:
                    # The executor is broken: the manager thread is flushing
                    # BrokenProcessPool into every other in-flight future too,
                    # so settle them all (a result that beat the breakage is
                    # kept) and rebuild.
                    for future in list(inflight):
                        idx, _ = inflight.pop(future)
                        settle(future, idx, crashed, timeout=30.0)
                    restarts += 1
                    if restarts > MAX_POOL_RESTARTS:
                        for idx in sorted(crashed):
                            book(
                                idx, None,
                                crashed[idx]
                                + f" [pool restart budget of {MAX_POOL_RESTARTS} exhausted]",
                                "crash",
                            )
                        for idx in sorted(set(probe) | set(queue)):
                            book(
                                idx, None,
                                "not run: pool restart budget exhausted after "
                                "repeated worker crashes",
                                "crash",
                            )
                        probe.clear()
                        queue.clear()
                        continue
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=max_workers)
                    if len(crashed) == 1:
                        ((idx, message),) = crashed.items()
                        fail(idx, message, "crash")
                    else:
                        # Several points were in flight when the worker died;
                        # the culprit is ambiguous, so re-run each alone: the
                        # bystanders complete, the crasher crashes solo and is
                        # identified (their extra attempt is recorded but does
                        # not consume retry budget).
                        for idx in sorted(crashed):
                            probe.append(idx)
                    continue
                if self.task_timeout is not None:
                    now = time.monotonic()
                    expired = sorted(
                        idx
                        for future, (idx, deadline) in inflight.items()
                        if deadline is not None and deadline <= now and not future.done()
                    )
                    if expired:
                        # Snapshot the innocents *before* the kill: our own
                        # SIGKILL breaks the surviving futures asynchronously,
                        # and done() must mean "really finished", not "broken
                        # by us".
                        expired_set = set(expired)
                        bystanders = sorted(
                            idx for future, (idx, _) in inflight.items()
                            if idx not in expired_set and not future.done()
                        )
                        leftovers = sorted(
                            ((future, idx) for future, (idx, _) in inflight.items()
                             if idx not in expired_set and future.done()),
                            key=lambda pair: pair[1],
                        )
                        # A hung worker cannot be stopped any other way.
                        self._kill_pool(pool)
                        pool = ProcessPoolExecutor(max_workers=max_workers)
                        inflight.clear()
                        # A point that finished in the gap between wait() and
                        # the kill keeps its result; one whose worker died
                        # right then is a genuine crash and goes to the probe
                        # lane like any other.
                        late_crashes: Dict[int, str] = {}
                        for future, idx in leftovers:
                            settle(future, idx, late_crashes)
                        for idx in sorted(late_crashes):
                            fail(idx, late_crashes[idx], "crash")
                        # Innocent bystanders rejoin at the front: their
                        # wasted attempt is recorded, but it does not count
                        # against their retry budget.
                        for idx in reversed(bystanders):
                            queue.appendleft(idx)
                        for idx in expired:
                            fail(
                                idx,
                                f"timed out after {self.task_timeout:g}s (wall clock)",
                                "timeout",
                            )
        except BaseException:
            # Teardown (Ctrl-C / fatal error): every pending point becomes a
            # labelled "cancelled" row instead of an unhandled traceback from
            # its future.
            for future in list(inflight):
                idx, _ = inflight.pop(future)
                future.cancel()
                book_cancelled(idx)
            for idx in list(probe) + list(queue):
                book_cancelled(idx)
            raise
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        # stop_on_error: whatever never ran is reported as skipped.
        for idx in sorted(set(probe) | set(queue)):
            task = tasks[idx]
            results[idx] = PointResult(
                index=idx, label=task.label, overrides=dict(task.overrides), skipped=True
            )
