"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import _spec_from_args, build_parser, main
from repro.config import DeploymentSpec


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_plan_default_cluster():
    code, text = run_cli(["plan", "--model", "llama-70b"])
    assert code == 0
    assert "attention workers" in text
    assert "p100" in text            # P100s relegated to Attention duty
    assert "KV capacity" in text


def test_plan_custom_cluster():
    code, text = run_cli(
        ["plan", "--model", "llama-13b", "--gpus", "a100:2", "rtx3090:2", "--delta", "0.0"]
    )
    assert code == 0
    assert "attention workers: (none)" in text   # delta=0 never prunes


def test_serve_hexgen_small_run():
    code, text = run_cli(
        ["serve", "--system", "hexgen", "--model", "llama-13b", "--dataset", "humaneval",
         "--rate", "10", "--requests", "8", "--seed", "1"]
    )
    assert code == 0
    assert "hexgen" in text
    assert "mean s/tok" in text


def test_compare_lists_all_systems_and_picks_winner():
    code, text = run_cli(
        ["compare", "--systems", "hexgen", "static-tp", "--model", "llama-13b",
         "--dataset", "sharegpt", "--rate", "6", "--requests", "8"]
    )
    assert code == 0
    assert "hexgen" in text and "static-tp" in text
    assert "lowest mean normalized latency" in text


def test_serve_with_autoscaler_prints_timeline():
    code, text = run_cli(
        ["serve", "--system", "static-tp", "--model", "llama-13b", "--gpus", "a100:1",
         "--rate", "12", "--requests", "10", "--replicas", "2",
         "--autoscaler", "target-kv", "--autoscaler-interval", "1",
         "--autoscaler-target", "0.3"]
    )
    assert code == 0
    assert "2x static-tp" in text
    assert "autoscaler [target-kv]" in text
    assert "active replicas" in text


def test_serve_with_admission_prints_goodput_block():
    code, text = run_cli(
        ["serve", "--system", "static-tp", "--model", "llama-13b", "--gpus", "rtx3090:2",
         "--dataset", "longbench", "--rate", "20", "--requests", "12", "--replicas", "2",
         "--admission", "queue-threshold", "--admission-threshold", "1",
         "--admission-mode", "reject"]
    )
    assert code == 0
    assert "admission [queue-threshold/reject]" in text
    assert "rejected" in text
    assert "goodput" in text
    assert "SLO attainment" in text


def test_serve_heterogeneous_replica_blueprints():
    code, text = run_cli(
        ["serve", "--system", "static-tp", "--model", "llama-13b",
         "--replica-gpus", "a100:1", "--replica-gpus", "rtx3090:2",
         "--router", "weighted-round-robin", "--rate", "10", "--requests", "8"]
    )
    assert code == 0
    assert "2x static-tp [weighted-round-robin]" in text


def test_fractional_queue_threshold_rejected_cleanly():
    with pytest.raises(SystemExit, match="whole number"):
        main(["serve", "--system", "static-tp", "--model", "llama-13b",
              "--gpus", "a100:1", "--rate", "5", "--requests", "2", "--replicas", "2",
              "--admission", "queue-threshold", "--admission-threshold", "0.9"],
             out=io.StringIO())


def test_out_of_range_kv_threshold_rejected_cleanly():
    with pytest.raises(SystemExit, match="max_utilization"):
        main(["serve", "--system", "static-tp", "--model", "llama-13b",
              "--gpus", "a100:1", "--rate", "5", "--requests", "2", "--replicas", "2",
              "--admission", "kv-threshold", "--admission-threshold", "1.5"],
             out=io.StringIO())


def test_out_of_range_autoscaler_target_rejected_cleanly():
    with pytest.raises(SystemExit, match="target_utilization"):
        main(["serve", "--system", "static-tp", "--model", "llama-13b",
              "--gpus", "a100:1", "--rate", "5", "--requests", "2", "--replicas", "2",
              "--autoscaler", "target-kv", "--autoscaler-target", "1.5"],
             out=io.StringIO())


def test_invalid_autoscaler_rejected_by_parser():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--autoscaler", "magic"])


def test_invalid_admission_rejected_by_parser():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--admission", "coin-flip"])


def test_invalid_system_rejected_by_parser():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--system", "orca"])


def test_invalid_dataset_rejected_by_parser():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--dataset", "wikitext"])


# ---------------------------------------------------------------- config-driven


BASE_CONFIG = {
    "model": "llama-13b",
    "system": {"name": "static-tp"},
    "cluster": {"kind": "small"},
    "workload": {"dataset": "sharegpt", "request_rate": 8.0, "num_requests": 6, "seed": 0},
}


def write_config(tmp_path, data=None, name="deploy.json"):
    import json

    path = tmp_path / name
    path.write_text(json.dumps(data if data is not None else BASE_CONFIG))
    return str(path)


def test_run_config_end_to_end(tmp_path):
    code, text = run_cli(["run", write_config(tmp_path)])
    assert code == 0
    assert "static-tp on small" in text
    assert "mean s/tok" in text


def test_run_config_dry_run_builds_without_simulating(tmp_path):
    code, text = run_cli(["run", write_config(tmp_path), "--dry-run"])
    assert code == 0
    assert "config OK" in text
    assert "trace: 6 requests" in text
    assert "mean s/tok" not in text


def test_run_config_toml(tmp_path):
    path = tmp_path / "deploy.toml"
    path.write_text(
        'model = "llama-13b"\n'
        '[system]\nname = "static-tp"\n'
        '[cluster]\nkind = "small"\n'
        '[workload]\nrequest_rate = 8.0\nnum_requests = 4\n'
    )
    code, text = run_cli(["run", str(path), "--dry-run"])
    assert code == 0
    assert "config OK" in text


def test_run_config_set_overrides(tmp_path):
    code, text = run_cli(
        ["run", write_config(tmp_path), "--dry-run",
         "--set", "cluster.replicas=2", "--set", "router.name=least-kv"]
    )
    assert code == 0
    assert "2x small" in text
    assert "least-kv" in text


def test_run_config_with_slo_prints_attainment(tmp_path):
    config = dict(BASE_CONFIG, slo={"ttft_s": 2.0, "tpot_s": 0.2})
    code, text = run_cli(["run", write_config(tmp_path, config)])
    assert code == 0
    assert "slo [TTFT<=2s, TPOT<=0.2s]" in text
    assert "attainment" in text


def test_run_rejects_bad_config_cleanly(tmp_path):
    config = dict(BASE_CONFIG, system={"name": "orca"})
    with pytest.raises(SystemExit, match="unknown system 'orca'"):
        main(["run", write_config(tmp_path, config)], out=io.StringIO())


def test_run_rejects_missing_file_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="does not exist"):
        main(["run", str(tmp_path / "nope.json")], out=io.StringIO())


def test_sweep_grid_table_and_csv(tmp_path):
    out_csv = tmp_path / "results.csv"
    code, text = run_cli(
        ["sweep", write_config(tmp_path),
         "--grid", "workload.request_rate=4,8",
         "--grid", "router.name=round-robin,least-kv",
         "--set", "cluster.replicas=2",
         "--out", str(out_csv)]
    )
    assert code == 0
    assert "sweep deploy over 4 deployment(s)" in text
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 rows
    assert lines[0].startswith("workload.request_rate,router.name,mean_normalized_latency")


def test_sweep_json_output(tmp_path):
    import json

    out_json = tmp_path / "results.json"
    code, text = run_cli(
        ["sweep", write_config(tmp_path),
         "--grid", "workload.seed=0,1", "--out", str(out_json)]
    )
    assert code == 0
    rows = json.loads(out_json.read_text())
    assert len(rows) == 2
    assert {row["workload.seed"] for row in rows} == {0, 1}
    assert all("mean_normalized_latency" in row for row in rows)


def test_sweep_rejects_bad_grid_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="grid axis"):
        main(["sweep", write_config(tmp_path), "--grid", "nonsense"], out=io.StringIO())
    with pytest.raises(SystemExit, match="unknown router"):
        main(["sweep", write_config(tmp_path), "--grid", "router.name=teleport"],
             out=io.StringIO())


def test_sweep_parallel_jobs_output_identical_to_serial(tmp_path):
    args = ["sweep", write_config(tmp_path), "--grid", "workload.request_rate=4,8"]
    serial_csv, parallel_csv = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    code_s, text_s = run_cli(args + ["--out", str(serial_csv)])
    code_p, text_p = run_cli(args + ["--out", str(parallel_csv), "--jobs", "2"])
    assert code_s == code_p == 0
    assert serial_csv.read_bytes() == parallel_csv.read_bytes()
    assert text_s.replace(str(serial_csv), "") == text_p.replace(str(parallel_csv), "")


def test_sweep_cache_second_run_hits(tmp_path):
    cache = tmp_path / "cache"
    args = ["sweep", write_config(tmp_path), "--grid", "workload.seed=0,1",
            "--cache", str(cache)]
    code1, text1 = run_cli(args)
    code2, text2 = run_cli(args)
    assert code1 == code2 == 0
    assert "[cached]" not in text1
    assert text2.count("[cached]") == 2
    # identical metrics either way
    assert text2.replace("  [cached]", "") == text1


def test_sweep_failing_point_names_the_override_combo(tmp_path):
    with pytest.raises(SystemExit, match=r"sweep point system\.options\.bogus=1.*bogus"):
        main(["sweep", write_config(tmp_path), "--grid", "system.options.bogus=1,2"],
             out=io.StringIO())


def test_sweep_keep_going_writes_surviving_rows_and_reports(tmp_path):
    out_csv = tmp_path / "partial.csv"
    code, text = run_cli(
        ["sweep", write_config(tmp_path), "--grid", "system.options.bogus=1,2",
         "--keep-going", "--out", str(out_csv)]
    )
    assert code == 1
    assert text.count("FAILED") >= 2
    assert "2 of 2 point(s) failed" in text
    assert "degradation: 0 ok / 2 errored / 0 timed out / 0 retried" in text
    lines = out_csv.read_text().strip().splitlines()
    # failed points still land in the table as auditable error rows
    assert len(lines) == 3
    assert lines[0].startswith("system.options.bogus,mean_normalized_latency")
    assert lines[0].endswith("error_kind,attempts")
    for row in lines[1:]:
        assert row.endswith("exception,1")


def test_write_sweep_output_zero_rows_emits_header(tmp_path):
    from repro.cli import _write_sweep_output

    path = tmp_path / "empty.csv"
    _write_sweep_output([], str(path), None, fieldnames=["workload.seed", "p95_ttft"])
    assert path.read_text().strip() == "workload.seed,p95_ttft"
    # without explicit fieldnames the legacy empty-file behaviour would recur
    _write_sweep_output([], str(path), "csv", fieldnames=[])
    assert path.read_text().strip() == ""


# ---------------------------------------------------------------- experiment configs


EXPERIMENT_TOML = """
[experiment]
name = "cli-smoke"

[experiment.grid]
"workload.request_rate" = [4.0, 8.0]

[deployment]
model = "llama-13b"

[deployment.system]
name = "static-tp"

[deployment.cluster]
kind = "small"

[deployment.workload]
dataset = "sharegpt"
num_requests = 4
"""


def write_experiment(tmp_path, text=EXPERIMENT_TOML, name="exp.toml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_sweep_experiment_config_dry_run_lists_points(tmp_path):
    code, text = run_cli(["sweep", write_experiment(tmp_path), "--dry-run"])
    assert code == 0
    assert "sweep cli-smoke over 2 deployment(s) (workload.request_rate)" in text
    assert "workload.request_rate=4.0" in text
    assert "config OK" in text


def test_sweep_grid_follows_and_replaces_experiment_axes(tmp_path):
    code, text = run_cli(
        ["sweep", write_experiment(tmp_path), "--dry-run",
         "--grid", "workload.seed=0,1", "--grid", "workload.request_rate=2"]
    )
    assert code == 0
    # the config's axis keeps its place with the --grid values; new axes follow
    assert "over 2 deployment(s) (workload.request_rate, workload.seed)" in text
    assert "workload.request_rate=2, workload.seed=1" in text


def test_sweep_experiment_end_to_end_with_output(tmp_path):
    out_json = tmp_path / "rows.json"
    code, text = run_cli(
        ["sweep", write_experiment(tmp_path), "--jobs", "2", "--out", str(out_json),
         "--set", "workload.num_requests=3"]
    )
    assert code == 0
    import json

    rows = json.loads(out_json.read_text())
    assert [row["workload.request_rate"] for row in rows] == [4.0, 8.0]
    assert all(row["num_finished"] == 3 for row in rows)
    assert "wrote 2 row(s)" in text


def test_sweep_rejects_bad_experiment_config_cleanly(tmp_path):
    bad = "[experiment]\nname = 'x'\n[deployment]\nmodel = 'not-a-model'\n"
    with pytest.raises(SystemExit, match="unknown model"):
        main(["sweep", write_experiment(tmp_path, bad)], out=io.StringIO())


def test_serve_slo_flags_print_block():
    code, text = run_cli(
        ["serve", "--system", "static-tp", "--model", "llama-13b", "--gpus", "a100:1",
         "--rate", "8", "--requests", "4", "--slo-ttft", "2", "--slo-tpot", "0.2"]
    )
    assert code == 0
    assert "slo [TTFT<=2s, TPOT<=0.2s]" in text
    assert "attainment" in text


def test_serve_slo_flags_validated():
    with pytest.raises(SystemExit, match="slo.ttft_s must be > 0"):
        main(["serve", "--system", "static-tp", "--gpus", "a100:1",
              "--rate", "5", "--requests", "2", "--slo-ttft", "-1"], out=io.StringIO())


def test_compare_with_slo_adds_column():
    code, text = run_cli(
        ["compare", "--systems", "static-tp", "--model", "llama-13b",
         "--gpus", "a100:1", "--rate", "6", "--requests", "4", "--slo-ttft", "5"]
    )
    assert code == 0
    assert "slo att" in text


def test_malformed_gpus_rejected_cleanly():
    with pytest.raises(SystemExit, match="no GPU count"):
        main(["serve", "--system", "static-tp", "--gpus", "a100:",
              "--rate", "5", "--requests", "2"], out=io.StringIO())


def test_malformed_replica_gpus_rejected_cleanly():
    with pytest.raises(SystemExit, match="count >= 1, got 0"):
        main(["serve", "--system", "static-tp", "--replica-gpus", "a100:0",
              "--rate", "5", "--requests", "2"], out=io.StringIO())


def test_serve_single_replica_gpus_flag():
    """A single --replica-gpus still builds a (1-replica) cluster deployment."""
    code, text = run_cli(
        ["serve", "--system", "static-tp", "--replica-gpus", "a100:1",
         "--rate", "8", "--requests", "4"]
    )
    assert code == 0
    assert "mean s/tok" in text


def test_run_rejects_bad_builder_options_cleanly(tmp_path):
    config = dict(BASE_CONFIG, system={"name": "static-tp", "options": {"bogus": 1}})
    with pytest.raises(SystemExit, match="error: building .*bogus"):
        main(["run", write_config(tmp_path, config), "--dry-run"], out=io.StringIO())


# ---------------------------------------------------------------- streaming / truncation


def test_serve_streaming_bounded_memory():
    code, text = run_cli(
        ["serve", "--system", "static-tp", "--gpus", "a100:1",
         "--dataset", "sharegpt", "--rate", "8", "--requests", "8",
         "--streaming", "--bounded-memory"]
    )
    assert code == 0
    assert "static-tp" in text


def test_run_warns_on_truncated_run(tmp_path):
    config = dict(BASE_CONFIG)
    config["max_simulated_time"] = 0.5  # cuts the 6-request run short
    code, text = run_cli(["run", write_config(tmp_path, config)])
    assert code == 0
    assert "warning: run truncated (max_simulated_time)" in text


def test_run_dry_run_streaming_trace(tmp_path):
    config = dict(BASE_CONFIG)
    config["workload"] = dict(config["workload"], streaming=True)
    code, text = run_cli(["run", write_config(tmp_path, config), "--dry-run"])
    assert code == 0
    assert "streaming" in text


def test_sweep_rows_flag_truncation(tmp_path):
    config = dict(BASE_CONFIG)
    config["max_simulated_time"] = 0.5
    out = tmp_path / "rows.csv"
    code, text = run_cli(["sweep", write_config(tmp_path, config), "--out", str(out)])
    assert code == 0
    assert "[TRUNCATED: max_simulated_time]" in text
    header, row = out.read_text().splitlines()[:2]
    assert header.split(",")[-4:] == ["num_dropped", "truncated", "error_kind", "attempts"]
    assert row.split(",")[-3] == "True"
    # clean points carry the execution-audit columns too: no error, 1 attempt
    assert row.split(",")[-2:] == ["", "1"]


# --- repro plan <config>: the SLO-aware fleet planner --------------------

PLANNER_TOML = "\n".join(
    [
        "[planner]",
        'name = "cli-plan"',
        "target_attainment = 0.6",
        "[planner.search]",
        '"cluster.kind" = ["rtx3090:2", "a100:1"]',
        "[deployment]",
        'model = "llama-13b"',
        "[deployment.system]",
        'name = "static-tp"',
        "[deployment.slo]",
        "ttft_s = 2.0",
        "tpot_s = 0.5",
        "[deployment.workload]",
        'dataset = "sharegpt"',
        "num_requests = 5",
        "request_rate = 4.0",
        "seed = 0",
    ]
)


def write_planner_config(tmp_path, text=PLANNER_TOML, name="plan.toml"):
    path = tmp_path / name
    path.write_text(text + "\n")
    return str(path)


def test_plan_without_config_keeps_layout_behaviour():
    code, text = run_cli(["plan", "--model", "llama-13b", "--gpus", "a100:2"])
    assert code == 0
    assert "attention workers" in text


def test_fleet_plan_dry_run_lists_costed_candidates(tmp_path):
    code, text = run_cli(["plan", write_planner_config(tmp_path), "--dry-run"])
    assert code == 0
    assert "2 candidate(s) over cluster.kind" in text
    assert "cluster.kind=rtx3090:2  ($1.70/hr)" in text
    assert "cluster.kind=a100:1  ($3.00/hr)" in text
    assert "config OK (dry run, nothing simulated)" in text


def test_fleet_plan_end_to_end_picks_cheapest_feasible(tmp_path):
    code, text = run_cli(["plan", write_planner_config(tmp_path)])
    assert code == 0
    assert "cheapest feasible plan: cluster.kind=rtx3090:2 at $1.70/hr" in text
    assert "feasible" in text


def test_fleet_plan_save_round_trips_to_runnable_config(tmp_path):
    from repro.config import DeploymentSpec

    saved = tmp_path / "chosen.json"
    code, text = run_cli(
        ["plan", write_planner_config(tmp_path), "--save", str(saved)]
    )
    assert code == 0
    assert str(saved) in text
    spec = DeploymentSpec.load(str(saved))
    assert spec.cluster.kind == "rtx3090:2"
    # The saved plan is directly runnable.
    code, text = run_cli(["run", str(saved), "--dry-run"])
    assert code == 0


def test_fleet_plan_jobs_output_identical_to_serial(tmp_path):
    config = write_planner_config(tmp_path)
    _, serial = run_cli(["plan", config, "--jobs", "1"])
    _, parallel = run_cli(["plan", config, "--jobs", "4"])
    assert serial == parallel


def test_fleet_plan_set_overrides_the_base_deployment(tmp_path):
    code, text = run_cli(
        ["plan", write_planner_config(tmp_path), "--dry-run",
         "--set", "cluster.replicas=2"]
    )
    assert code == 0
    assert "($3.40/hr)" in text  # 2 x rtx3090:2 at $0.85 each


def test_fleet_plan_no_feasible_plan_exits_nonzero(tmp_path):
    config = PLANNER_TOML.replace("target_attainment = 0.6", "target_attainment = 1.0")
    config = config.replace("request_rate = 4.0", "request_rate = 200.0")
    config = config.replace("ttft_s = 2.0", "ttft_s = 0.001")
    code, text = run_cli(["plan", write_planner_config(tmp_path, config)])
    assert code == 1
    assert "no feasible plan" in text


def test_fleet_plan_rejects_bad_config_cleanly(tmp_path):
    bad = PLANNER_TOML.replace('"cluster.kind"', '"clusterx.kind"')
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["plan", write_planner_config(tmp_path, bad)])
    assert "unknown section 'clusterx'" in str(excinfo.value)


def test_fleet_plan_rejects_bad_set_flag(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["plan", write_planner_config(tmp_path), "--set", "nonsense"])
    assert "must look like key.path=value" in str(excinfo.value)


# --- fault-tolerance flags and repro figures -----------------------------


def test_sweep_resume_journal_skips_completed_points(tmp_path):
    journal = tmp_path / "run.journal"
    args = ["sweep", write_config(tmp_path), "--grid", "workload.seed=0,1",
            "--resume", str(journal)]
    code1, text1 = run_cli(args)
    assert code1 == 0
    assert len(journal.read_text().splitlines()) == 2
    code2, text2 = run_cli(args)
    assert code2 == 0
    assert text2.count("[resumed]") == 2
    # resumed rows are bit-identical to the freshly computed ones
    assert text2.replace("  [resumed]", "") == text1


def test_sweep_execution_config_block_and_flag_override(tmp_path):
    config = dict(BASE_CONFIG)
    config["execution"] = {"max_retries": 1, "journal": str(tmp_path / "cfg.journal")}
    args = ["sweep", write_config(tmp_path, config)]
    code, _ = run_cli(args)
    assert code == 0
    assert (tmp_path / "cfg.journal").exists()
    # the CLI flag wins over the config block, field by field
    code, _ = run_cli(args + ["--resume", str(tmp_path / "flag.journal")])
    assert code == 0
    assert (tmp_path / "flag.journal").exists()


def test_run_tolerates_execution_block(tmp_path):
    config = dict(BASE_CONFIG)
    config["execution"] = {"task_timeout": 60.0}
    code, text = run_cli(["run", write_config(tmp_path, config), "--dry-run"])
    assert code == 0
    assert "config OK" in text


def test_sweep_rejects_bad_execution_block(tmp_path):
    config = dict(BASE_CONFIG)
    config["execution"] = {"task_timeout": -1}
    with pytest.raises(SystemExit, match="task_timeout"):
        main(["sweep", write_config(tmp_path, config)], out=io.StringIO())


def test_sweep_rejects_bad_timeout_flag(tmp_path):
    with pytest.raises(SystemExit, match="task_timeout"):
        main(["sweep", write_config(tmp_path), "--timeout", "-5"], out=io.StringIO())


def test_figures_regenerates_explicit_configs_with_journal(tmp_path):
    journal = tmp_path / "figures.journal"
    config = write_config(tmp_path, name="study.json")
    args = ["figures", config, "--resume", str(journal),
            "--out-dir", str(tmp_path / "out")]
    code, text = run_cli(args)
    assert code == 0
    assert "degradation: 1 ok / 0 errored / 0 timed out / 0 retried" in text
    assert "success fraction 100.0%" in text
    assert (tmp_path / "out" / "study.csv").exists()
    # second run resumes from the journal instead of recomputing
    code, text = run_cli(args)
    assert code == 0
    assert "[resumed]" in text


def test_figures_degrades_on_invalid_config_and_min_success_gates(tmp_path):
    good = write_config(tmp_path, name="good.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "no-such-model"}')
    args = ["figures", good, str(bad)]
    code, text = run_cli(args)
    assert code == 1
    assert "FAILED" in text
    assert "success fraction 50.0%" in text
    # a permissive threshold lets the degraded regeneration pass
    code, text = run_cli(args + ["--min-success", "0.5"])
    assert code == 0


def test_figures_empty_configs_dir_fails_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="no .toml/.json study configs"):
        main(["figures", "--configs-dir", str(tmp_path)], out=io.StringIO())


# --- serve / compare are `run` on a spec built from their flags -----------

SMALL_GPUS = ["--gpus", "a100:1", "rtx3090:2"]

# Each flag set is paired with the config it means, written out by hand (not
# derived through the CLI's mapping).  Every mapped flag appears with a
# non-default value in at least one case.
SERVE_PARITY_CASES = {
    "workload-chunking-slo": (
        ["--system", "hetis", "--model", "llama2-7b", *SMALL_GPUS, "--dataset", "humaneval",
         "--rate", "9", "--requests", "12", "--seed", "3", "--prefill-chunk-tokens", "64",
         "--slo-ttft", "0.2", "--slo-tpot", "0.05"],
        {"model": "llama2-7b",
         "system": {"name": "hetis", "prefill_chunk_tokens": 64},
         "cluster": {"kind": "a100:1,rtx3090:2"},
         "slo": {"ttft_s": 0.2, "tpot_s": 0.05},
         "workload": {"dataset": "humaneval", "request_rate": 9.0, "num_requests": 12,
                      "seed": 3}},
    ),
    "streaming-bounded": (
        ["--system", "static-tp", "--gpus", "a100:1", "--rate", "8", "--requests", "16",
         "--streaming", "--bounded-memory"],
        {"system": {"name": "static-tp"},
         "cluster": {"kind": "a100:1"},
         "metrics": {"mode": "bounded"},
         "workload": {"request_rate": 8.0, "num_requests": 16, "streaming": True}},
    ),
    "router-target-kv-autoscaler": (
        ["--system", "static-tp", "--gpus", "a100:1", "--replicas", "3", "--router",
         "least-kv", "--autoscaler", "target-kv", "--autoscaler-interval", "1",
         "--autoscaler-target", "0.3", "--min-replicas", "2", "--rate", "12",
         "--requests", "16"],
        {"system": {"name": "static-tp"},
         "cluster": {"kind": "a100:1", "replicas": 3},
         "router": {"name": "least-kv"},
         "elasticity": {"autoscaler": "target-kv",
                        "autoscaler_options": {"interval": 1.0, "min_replicas": 2,
                                               "target_utilization": 0.3}},
         "workload": {"request_rate": 12.0, "num_requests": 16}},
    ),
    "queue-depth-autoscaler": (
        ["--system", "static-tp", "--gpus", "a100:1", "--replicas", "2",
         "--autoscaler", "queue-depth", "--autoscaler-target", "2", "--rate", "12",
         "--requests", "16"],
        {"system": {"name": "static-tp"},
         "cluster": {"kind": "a100:1", "replicas": 2},
         "elasticity": {"autoscaler": "queue-depth",
                        "autoscaler_options": {"interval": 5.0, "min_replicas": 1,
                                               "target_queue_per_replica": 2.0}},
         "workload": {"request_rate": 12.0, "num_requests": 16}},
    ),
    "kv-admission-defer": (
        ["--system", "static-tp", "--gpus", "rtx3090:2", "--dataset", "longbench",
         "--replicas", "2", "--admission", "kv-threshold", "--admission-threshold", "0.05",
         "--admission-mode", "defer", "--rate", "20", "--requests", "12"],
        {"system": {"name": "static-tp"},
         "cluster": {"kind": "rtx3090:2", "replicas": 2},
         "elasticity": {"admission": "kv-threshold",
                        "admission_options": {"mode": "defer", "max_utilization": 0.05}},
         "workload": {"dataset": "longbench", "request_rate": 20.0, "num_requests": 12}},
    ),
    "queue-admission-reject": (
        ["--system", "static-tp", "--gpus", "rtx3090:2", "--dataset", "longbench",
         "--replicas", "2", "--admission", "queue-threshold", "--admission-threshold", "1",
         "--rate", "20", "--requests", "12"],
        {"system": {"name": "static-tp"},
         "cluster": {"kind": "rtx3090:2", "replicas": 2},
         "elasticity": {"admission": "queue-threshold",
                        "admission_options": {"mode": "reject", "max_queue_depth": 1}},
         "workload": {"dataset": "longbench", "request_rate": 20.0, "num_requests": 12}},
    ),
    "fail-at": (
        ["--system", "static-tp", "--gpus", "a100:1", "--replicas", "2",
         "--fail-at", "0.5:0", "--fail-at", "1:1", "--failure-recovery", "2",
         "--rate", "12", "--requests", "16"],
        {"system": {"name": "static-tp"},
         "cluster": {"kind": "a100:1", "replicas": 2},
         "failures": {"events": [[0.5, 0], [1.0, 1]], "recovery_time": 2.0},
         "workload": {"request_rate": 12.0, "num_requests": 16}},
    ),
    "failure-rate-migration": (
        ["--system", "static-tp", "--gpus", "a100:1", "--replicas", "2",
         "--failure-rate", "1", "--failures", "2", "--failure-seed", "3",
         "--migration", "--migration-gbps", "25", "--rate", "12", "--requests", "16"],
        {"system": {"name": "static-tp"},
         "cluster": {"kind": "a100:1", "replicas": 2},
         "elasticity": {"migration": True, "migration_bandwidth_gbps": 25.0},
         "failures": {"rate": 1.0, "num_failures": 2, "seed": 3},
         "workload": {"request_rate": 12.0, "num_requests": 16}},
    ),
    "replica-blueprints": (
        # --replica-gpus overrides --replicas: one replica per blueprint.
        ["--system", "static-tp", "--replicas", "3", "--replica-gpus", "a100:1",
         "--replica-gpus", "rtx3090:2", "--router", "weighted-round-robin", "--rate", "10",
         "--requests", "12"],
        {"system": {"name": "static-tp"},
         "cluster": {"replica_kinds": ["a100:1", "rtx3090:2"]},
         "router": {"name": "weighted-round-robin"},
         "workload": {"request_rate": 10.0, "num_requests": 12}},
    ),
}


@pytest.mark.parametrize("case", sorted(SERVE_PARITY_CASES))
def test_serve_is_run_on_the_equivalent_config(tmp_path, case):
    flags, config = SERVE_PARITY_CASES[case]
    args = build_parser().parse_args(["serve", *flags])
    assert _spec_from_args(args, args.system) == DeploymentSpec.from_dict(config)
    code, served = run_cli(["serve", *flags])
    assert code == 0
    code, ran = run_cli(["run", write_config(tmp_path, config)])
    assert code == 0
    # First lines differ by design (serve's label vs run's describe()); the
    # summary row and every SLO/admission/autoscaler/failure/migration line match.
    assert served.splitlines()[1:] == ran.splitlines()[1:]


def test_compare_rows_are_run_rows(tmp_path):
    flags = ["--systems", "static-tp", "hexgen", *SMALL_GPUS, "--replicas", "2",
             "--router", "power-of-two", "--slo-ttft", "5", "--rate", "10",
             "--requests", "12"]
    code, compared = run_cli(["compare", *flags])
    assert code == 0
    rows = {line.split()[0]: line for line in compared.splitlines()[2:-1]}
    for system in ("static-tp", "hexgen"):
        config = {"system": {"name": system},
                  "cluster": {"kind": "a100:1,rtx3090:2", "replicas": 2},
                  "router": {"name": "power-of-two"},
                  "slo": {"ttft_s": 5.0},
                  "workload": {"request_rate": 10.0, "num_requests": 12}}
        code, ran = run_cli(["run", write_config(tmp_path, config, name=f"{system}.json")])
        assert code == 0
        row, slo_line = ran.splitlines()[2:4]
        attainment = slo_line.split("attainment ")[1].split(",")[0]
        assert rows[system] == f"{row}{attainment:>8}"
