"""Chaos suite for the fault-tolerance layer of the experiment runner.

Injects the real-world failure modes -- a worker that dies mid-task
(``os._exit``), a task that hangs past its deadline, a flaky task that
raises before it succeeds -- and asserts the runner's contracts: crashes are
isolated to their point, timeouts are enforced on the wall clock, crash and
timeout retries are counted while raised exceptions are final, and a
journaled run killed mid-flight resumes to a bit-identical final table.

The chaos task kinds are registered at import time of this module; the pool
uses the ``fork`` start method on Linux, so worker processes inherit them.
"""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.runner import (
    PointResult,
    RunJournal,
    SweepRunner,
    TASK_KINDS,
    Task,
    degradation_report,
    format_degradation,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------- chaos task kinds


@TASK_KINDS.register("chaos-ok", help="return its payload value", overwrite=True)
def _chaos_ok(payload):
    return {"value": payload["value"]}


@TASK_KINDS.register("chaos-crash", help="kill the worker process", overwrite=True)
def _chaos_crash(payload):
    os._exit(13)


@TASK_KINDS.register("chaos-sleep", help="sleep past any deadline", overwrite=True)
def _chaos_sleep(payload):
    time.sleep(payload["seconds"])
    return {"value": payload.get("value", "slept")}


@TASK_KINDS.register(
    "chaos-flaky", help="fail until the cross-process counter reaches the quota",
    overwrite=True,
)
def _chaos_flaky(payload):
    # The counter lives on disk because retries may land in different worker
    # processes (or fresh pools after a rebuild).
    counter = Path(payload["counter"])
    seen = int(counter.read_text()) if counter.exists() else 0
    if seen < int(payload["fail_times"]):
        counter.write_text(str(seen + 1))
        raise RuntimeError(f"flaky failure {seen + 1}")
    return {"value": payload["value"]}


def ok_task(value, label=None):
    return Task(kind="chaos-ok", payload={"value": value}, label=label or f"ok-{value}")


def crash_task(label="crasher", salt=0):
    return Task(kind="chaos-crash", payload={"salt": salt}, label=label)


def sleep_task(seconds, label="sleeper", value="slept"):
    return Task(
        kind="chaos-sleep", payload={"seconds": seconds, "value": value}, label=label
    )


def flaky_task(tmp_path, fail_times, value="recovered", label="flaky"):
    return Task(
        kind="chaos-flaky",
        payload={
            "counter": str(tmp_path / f"{label}.count"),
            "fail_times": fail_times,
            "value": value,
        },
        label=label,
    )


# ------------------------------------------------------------------- timeouts


class TestTimeouts:
    def test_hanging_point_booked_as_timeout_and_neighbor_survives(self):
        runner = SweepRunner(jobs=2, task_timeout=1.0)
        start = time.monotonic()
        results = runner.run_tasks([sleep_task(60.0), ok_task(7)])
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, "timeout must bound the wall clock, not the sleep"
        hung, ok = results
        assert hung.error_kind == "timeout"
        assert "timed out after 1s" in hung.error
        assert ok.row == {"value": 7}

    def test_timeout_applies_to_single_job_runs(self):
        # jobs=1 with a timeout still routes through a killable worker pool.
        runner = SweepRunner(jobs=1, task_timeout=0.5, stop_on_error=False)
        results = runner.run_tasks([sleep_task(60.0), ok_task(1)])
        assert results[0].error_kind == "timeout"
        assert results[1].row == {"value": 1}

    def test_timed_out_point_retries_before_failing(self):
        runner = SweepRunner(jobs=2, task_timeout=0.5, max_retries=1, backoff_base=0.0)
        results = runner.run_tasks([sleep_task(60.0)])
        assert results[0].error_kind == "timeout"
        assert results[0].attempts == 2


# ------------------------------------------------------------- crash isolation


class TestCrashIsolation:
    def test_crash_kills_only_its_point(self):
        runner = SweepRunner(jobs=2, stop_on_error=False)
        results = runner.run_tasks([ok_task(1), crash_task(), ok_task(2)])
        assert results[0].row == {"value": 1}
        assert results[2].row == {"value": 2}
        assert results[1].error_kind == "crash"
        assert "worker process died" in results[1].error

    def test_crash_retry_consumes_budget_then_books(self):
        # The crasher runs alone, so its first crash is never ambiguous
        # (test_crash_kills_only_its_point covers bystanders).  A lone point
        # runs in-process unless a task_timeout routes it through the pool.
        runner = SweepRunner(
            jobs=2, stop_on_error=False, max_retries=1, backoff_base=0.0, task_timeout=60.0
        )
        (result,) = runner.run_tasks([crash_task()])
        assert result.error_kind == "crash"
        assert result.attempts == 2

    def test_ambiguous_crash_probe_attempt_does_not_consume_budget(self):
        # The sleeper is still in flight when the crasher's worker dies, so the
        # culprit is ambiguous: the probe lane re-runs each point alone and
        # records that extra attempt without charging the retry budget.
        runner = SweepRunner(jobs=2, stop_on_error=False, max_retries=1, backoff_base=0.0)
        crashed, slept = runner.run_tasks([crash_task(), sleep_task(1.0)])
        assert crashed.error_kind == "crash"
        assert crashed.attempts == 3
        assert slept.row == {"value": "slept"}

    @pytest.mark.parametrize("max_retries", [0, 1])
    def test_degradation_report_counts_only_retries_after_a_points_own_failure(self, max_retries):
        # The setup above: both points re-run alone after the ambiguous crash.
        # Those re-runs are attempts, not retries; only the crasher's re-run
        # after its own solo crash is, and only within the budget.
        runner = SweepRunner(jobs=2, stop_on_error=False, max_retries=max_retries, backoff_base=0.0)
        crashed, slept = runner.run_tasks([crash_task(), sleep_task(1.0)])
        assert (crashed.attempts, slept.attempts) == (2 + max_retries, 2)
        assert (crashed.retries, slept.retries) == (max_retries, 0)
        counts = degradation_report([crashed, slept])
        assert counts["retried"] == max_retries
        assert f"/ {max_retries} retried" in format_degradation(counts)

    def test_many_crashes_exhaust_pool_restart_budget_honestly(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "MAX_POOL_RESTARTS", 1)
        runner = SweepRunner(jobs=2, stop_on_error=False, backoff_base=0.0)
        tasks = [crash_task(label=f"crash-{i}", salt=i) for i in range(4)] + [ok_task(9)]
        results = runner.run_tasks(tasks)
        crashed = [r for r in results if r.error_kind == "crash"]
        exhausted = [r for r in results if r.error and "restart budget" in r.error]
        assert crashed, "at least the first crash must be attributed"
        assert exhausted, "points beyond the restart budget must say why they stopped"
        assert any("budget of 1 exhausted" in r.error for r in exhausted)
        assert all(r.error is not None or r.row is not None for r in results)


# -------------------------------------------------------------------- retries


class TestRetries:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
    def test_exceptions_are_never_retried(self, jobs, tmp_path):
        # A raised exception is deterministic: only crashes and timeouts
        # spend the retry budget.
        runner = SweepRunner(jobs=jobs, stop_on_error=False, max_retries=3, backoff_base=0.0)
        results = runner.run_tasks([flaky_task(tmp_path, fail_times=1), ok_task(3)])
        assert results[0].error_kind == "exception"
        assert results[0].error.startswith("RuntimeError:")
        assert results[0].attempts == 1
        assert results[1].row == {"value": 3}

    def test_backoff_schedule_is_deterministic(self):
        runner = SweepRunner(jobs=2, max_retries=3, backoff_base=0.5)
        assert [runner._backoff_delay(k) for k in (1, 2, 3)] == [0.5, 1.0, 2.0]


# ----------------------------------------------------------- journal & resume


class TestJournalResume:
    def test_resume_replays_rows_bit_identically(self, tmp_path):
        journal = tmp_path / "run.journal"
        tasks = [ok_task(1), ok_task(2), ok_task(3)]
        first = SweepRunner(jobs=2, journal=str(journal)).run_tasks(tasks)
        assert len(journal.read_text().splitlines()) == 3
        second = SweepRunner(jobs=2, journal=str(journal)).run_tasks(tasks)
        assert [r.row for r in second] == [r.row for r in first]
        assert all(r.resumed for r in second)
        # replay recomputes nothing: no new journal lines were appended
        assert len(journal.read_text().splitlines()) == 3

    def test_errored_points_are_reattempted_on_resume(self, tmp_path):
        journal = tmp_path / "run.journal"
        flaky = flaky_task(tmp_path, fail_times=1)
        first = SweepRunner(jobs=1, stop_on_error=False, journal=str(journal)).run_tasks(
            [flaky, ok_task(4)]
        )
        assert first[0].error is not None and first[1].row == {"value": 4}
        # the counter has burned its one failure; the resumed run must re-run
        # the errored point (and only it) and now succeed
        second = SweepRunner(jobs=1, stop_on_error=False, journal=str(journal)).run_tasks(
            [flaky, ok_task(4)]
        )
        assert second[0].row == {"value": "recovered"} and not second[0].resumed
        assert second[1].resumed

    def test_journal_tolerates_torn_and_alien_lines(self, tmp_path):
        journal = tmp_path / "run.journal"
        SweepRunner(jobs=1, journal=str(journal)).run_tasks([ok_task(1)])
        with open(journal, "a") as fh:
            fh.write("{\"key\": \"torn-off-half-way\n")
            fh.write("not json at all\n")
            fh.write(json.dumps({"version": -1, "key": "stale", "kind": "chaos-ok"}) + "\n")
        with pytest.warns(RuntimeWarning, match="malformed|stale"):
            loaded = RunJournal(journal)
        assert loaded.malformed_lines == 3
        assert len(loaded) == 1

    def test_journal_and_cache_compose(self, tmp_path):
        journal, cache = tmp_path / "run.journal", tmp_path / "cache"
        tasks = [ok_task(1), ok_task(2)]
        SweepRunner(jobs=1, cache_dir=str(cache)).run_tasks(tasks)
        # fresh journal, warm cache: cache hits are appended to the journal so
        # it stays a complete record of the run
        results = SweepRunner(
            jobs=1, cache_dir=str(cache), journal=str(journal)
        ).run_tasks(tasks)
        assert all(r.cached for r in results)
        assert len(journal.read_text().splitlines()) == 2

    @pytest.mark.slow
    def test_kill_mid_run_then_resume_is_bit_identical(self, tmp_path):
        """SIGKILL a journaled sweep mid-flight; the resumed run's table must
        match an uninterrupted run byte for byte."""
        config = tmp_path / "deploy.json"
        config.write_text(json.dumps({
            "model": "llama-13b",
            "system": {"name": "static-tp"},
            "cluster": {"kind": "a100:1"},
            "workload": {"dataset": "sharegpt", "request_rate": 8.0,
                         "num_requests": 40, "seed": 0},
        }))
        journal = tmp_path / "killed.journal"
        out_resumed = tmp_path / "resumed.csv"
        out_clean = tmp_path / "clean.csv"
        grid = "workload.seed=0,1,2,3"

        def sweep_args(journal_path, out_path):
            return [
                sys.executable, "-m", "repro", "sweep", str(config),
                "--grid", grid, "--jobs", "2",
                "--resume", str(journal_path), "--out", str(out_path),
            ]

        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        # Its own process group, so one killpg reaches the sweep's pool workers too;
        # killing only the parent leaves them running, re-parented to init.
        proc = subprocess.Popen(
            sweep_args(journal, out_resumed), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if journal.exists() and journal.read_text().count("\n") >= 1:
                    break
                if proc.poll() is not None:
                    break  # finished before we could kill it; resume still covers replay
                time.sleep(0.05)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)

        resumed = subprocess.run(
            sweep_args(journal, out_resumed), env=env, capture_output=True, text=True
        )
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        clean = subprocess.run(
            sweep_args(tmp_path / "fresh.journal", out_clean),
            env=env, capture_output=True, text=True,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr
        assert out_resumed.read_bytes() == out_clean.read_bytes()


# ------------------------------------------------------------------ teardown


class TestCancellation:
    def test_teardown_books_pending_points_as_cancelled(self, monkeypatch):
        """A BaseException mid-drain labels every in-flight/queued point
        cancelled (naming its override combo) before re-raising."""
        real_wait = runner_mod.wait
        calls = {"n": 0}

        def exploding_wait(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyboardInterrupt
            return real_wait(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "wait", exploding_wait)
        runner = SweepRunner(jobs=2, stop_on_error=False)
        tasks = [sleep_task(30.0, label="combo-a"), sleep_task(30.0, label="combo-b")]
        results: list = [None, None]
        pending = [(idx, task, None) for idx, task in enumerate(tasks)]
        with pytest.raises(KeyboardInterrupt):
            runner._run_pool(pending, results)
        assert all(isinstance(r, PointResult) for r in results)
        for res, task in zip(results, tasks):
            assert res.error_kind == "cancelled"
            assert res.skipped
            assert task.label in res.error
        counts = degradation_report(results)
        assert counts["cancelled"] == 2


# -------------------------------------------------------------- repro figures


class TestFiguresFaultTolerance:
    @staticmethod
    def figures(*args):
        from repro.cli import main

        out = io.StringIO()
        code = main(["figures", *map(str, args)], out=out)
        return code, out.getvalue()

    def test_figures_survives_injected_worker_crash(self, tmp_path):
        """A worker crash inside `repro figures` loses one point, not the run."""
        study = tmp_path / "study.toml"
        study.write_text("\n".join([
            "[experiment]",
            'name = "chaos-study"',
            "[experiment.grid]",
            '"workload.seed" = [0, 1, 2]',
            "[deployment]",
            'model = "llama-13b"',
            "[deployment.system]",
            'name = "static-tp"',
            "[deployment.cluster]",
            'kind = "a100:1"',
            "[deployment.workload]",
            'dataset = "sharegpt"',
            "num_requests = 4",
        ]) + "\n")

        real_deployment = TASK_KINDS.require("deployment")

        def crashing_deployment(payload):
            # Workers inherit this wrapper via fork; seed 1 dies mid-task.
            if payload.get("workload", {}).get("seed") == 1:
                os._exit(23)
            return real_deployment(payload)

        TASK_KINDS.register("deployment", crashing_deployment, overwrite=True)
        try:
            journal = tmp_path / "figures.journal"
            code, text = self.figures(study, "--jobs", 2, "--resume", journal)
        finally:
            TASK_KINDS.register("deployment", real_deployment, overwrite=True)

        assert code == 1, text
        assert "degradation: 2 ok / 1 errored / 0 timed out / 0 retried" in text
        assert "success fraction 66.7% below --min-success 100.0%" in text
        crashed = [line for line in text.splitlines() if "FAILED [crash]" in line]
        assert len(crashed) == 1 and "workload.seed=1" in crashed[0]
        # every point is journaled: the two finished rows replay on resume,
        # the crash is recorded as an error record that gets re-attempted
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        assert sorted(rec["status"] for rec in records) == ["error", "ok", "ok"]

    def test_figures_resume_replays_every_point(self, tmp_path):
        spec = {
            "model": "llama-13b",
            "system": {"name": "static-tp"},
            "cluster": {"kind": "a100:1"},
            "workload": {"dataset": "sharegpt", "num_requests": 4, "seed": 0},
        }
        config = tmp_path / "deploy.json"
        config.write_text(json.dumps(spec))
        journal = tmp_path / "figures.journal"
        code, first = self.figures(config, "--resume", journal)
        assert code == 0 and "[resumed]" not in first
        code, second = self.figures(config, "--resume", journal)
        assert code == 0
        assert second.count("[resumed]") == 1
        assert "0 retried / 1 resumed" in second
        # the replayed row prints exactly as the computed one did
        assert second.replace("  [resumed]", "").replace(" / 1 resumed", "") == first


# ------------------------------------------------------------------- hygiene


class TestLintClean:
    def test_new_modules_pass_repro_lint_with_no_baseline(self):
        from repro.analysis import lint_paths

        report = lint_paths(
            [
                str(REPO_ROOT / "src" / "repro" / "experiments" / "runner.py"),
                str(REPO_ROOT / "src" / "repro" / "experiments" / "driver.py"),
                str(REPO_ROOT / "src" / "repro" / "cli.py"),
            ],
            baseline=None,
        )
        assert report.ok, [f.format() for f in report.findings]
