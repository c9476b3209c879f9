"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURES, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for figure_id in FIGURES:
        assert figure_id in out


def test_figure_requires_valid_id():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])


def test_figure_table1_runs(capsys):
    assert main(["figure", "table1", "--replications", "1", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out


def test_figure_jobs_ignored_outside_sweeps(capsys):
    assert main(["figure", "table1", "--replications", "1", "--seed", "1", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "note: --jobs is ignored for table1" in out
    assert "Table 1" in out


def test_figure_fig5_with_dataset(capsys):
    assert main(["figure", "fig5", "--dataset", "synthetic", "--replications", "1"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 5 (synthetic)" in out
    assert "ETA2" in out


def test_simulate_default(capsys):
    assert main(["simulate", "--days", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "ETA2 on synthetic" in out
    assert "mean error" in out


def test_simulate_min_cost(capsys):
    assert (
        main(
            [
                "simulate",
                "--approach",
                "eta2-mc",
                "--days",
                "2",
                "--round-budget",
                "30",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "ETA2-mc" in out


def test_simulate_baseline_approach(capsys):
    assert main(["simulate", "--approach", "mean", "--days", "2"]) == 0
    assert "baseline-mean" in capsys.readouterr().out


def test_simulate_with_drift_and_bias(capsys):
    assert main(["simulate", "--days", "2", "--drift", "0.3", "--bias", "0.2"]) == 0


def test_simulate_with_faults(capsys):
    assert (
        main(
            [
                "simulate",
                "--days",
                "2",
                "--seed",
                "3",
                "--fault-exceptions",
                "0.05",
                "--fault-nan",
                "0.1",
                "--fault-drops",
                "0.05",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "injected faults:" in out
    assert "collection:" in out
    assert "quarantine:" in out


def test_simulate_with_checkpointing_and_resume(tmp_path, capsys):
    checkpoint_args = ["--checkpoint-dir", str(tmp_path), "--checkpoint-keep", "2"]
    assert main(["simulate", "--days", "3", "--seed", "3", *checkpoint_args]) == 0
    out = capsys.readouterr().out
    assert "checkpoints: 2 retained" in out
    assert len(list(tmp_path.glob("checkpoint-*.json"))) == 2

    # Resuming restores the newest checkpoint and keeps running.
    assert main(["simulate", "--days", "2", "--seed", "4", "--resume", *checkpoint_args]) == 0
    assert "checkpoints: 2 retained" in capsys.readouterr().out


def test_simulate_checkpoint_dir_ignored_for_baselines(tmp_path, capsys):
    args = ["simulate", "--approach", "mean", "--days", "2", "--checkpoint-dir", str(tmp_path)]
    assert main(args) == 0
    assert "--checkpoint-dir is ignored" in capsys.readouterr().out


def test_simulate_rejects_invalid_fault_rate(capsys):
    # Validation moved into the argparse type, so bad rates exit at parse
    # time (SystemExit(2)) instead of reaching FaultProfile.
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--days", "2", "--fault-exceptions", "1.5"])
    assert excinfo.value.code == 2
    assert "expected a rate in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--fault-drops", "-0.1", "expected a rate in [0, 1]"),
        ("--fault-nan", "abc", "expected a number"),
        ("--adversaries", "2", "expected a rate in [0, 1]"),
        ("--reputation-duplicate-threshold", "1.5", "expected a rate in [0, 1]"),
        ("--reputation-bias-threshold", "0", "expected a positive number"),
        ("--reputation-probation-days", "0", "expected a positive integer"),
        ("--reputation-probation-days", "1.5", "expected an integer"),
    ],
)
def test_simulate_rejects_invalid_robustness_values(capsys, flag, value, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--days", "2", flag, value])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_simulate_reputation_knobs_require_reputation_flag(capsys):
    args = ["simulate", "--days", "2", "--reputation-bias-threshold", "3.0"]
    assert main(args) == 2
    assert "--reputation-* thresholds require --reputation" in capsys.readouterr().err


def test_simulate_with_reputation_and_adversaries(capsys):
    args = [
        "simulate",
        "--days",
        "3",
        "--seed",
        "2017",
        "--adversaries",
        "0.2",
        "--reputation",
        "--guards",
        "warn",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "adversaries (colluding): users" in out
    assert "reputation: quarantined" in out
    assert "ever-quarantined" in out


def test_simulate_reputation_ignored_for_baselines(capsys):
    assert main(["simulate", "--approach", "mean", "--days", "2", "--reputation"]) == 0
    assert "--reputation/--guards are ignored" in capsys.readouterr().out


def test_simulate_trace_and_metrics_out(tmp_path, capsys):
    import json

    from repro.observability import read_trace, validate_prometheus_text

    trace_path = tmp_path / "run.jsonl"
    metrics_path = tmp_path / "metrics.prom"
    args = [
        "simulate", "--days", "2", "--seed", "3",
        "--trace-out", str(trace_path), "--metrics-out", str(metrics_path),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "trace:" in out and "metrics:" in out

    records = read_trace(trace_path)
    types = [r["type"] for r in records]
    assert types[0] == "run.start"
    assert types[-1] == "run.end"
    assert types.count("day.start") == 2
    manifest = records[0]["data"]["manifest"]
    assert manifest["seed"] == 3
    validate_prometheus_text(metrics_path.read_text())

    # JSON metrics via suffix.
    json_path = tmp_path / "metrics.json"
    assert main(args[:-1] + [str(json_path)]) == 0
    capsys.readouterr()
    assert json.loads(json_path.read_text())["manifest"]["seed"] == 3


def test_simulate_same_seed_traces_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        assert main(["simulate", "--days", "2", "--seed", "9", "--trace-out", str(path)]) == 0
        capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trace_summarize_reconstructs_timeline(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    assert (
        main(
            [
                "simulate", "--days", "3", "--seed", "3",
                "--fault-drops", "0.1", "--reputation", "--guards", "warn",
                "--trace-out", str(trace_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["trace", "summarize", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "seed 3" in out
    assert "day 0 (warm-up)" in out
    assert "day 1 (daily)" in out
    assert "day 2 (daily)" in out
    assert "identify -> allocate -> collect -> truth" in out
    assert "events:" in out


def test_simulate_checkpoint_manifest_without_telemetry_flags(tmp_path, caplog):
    import json
    import logging

    # Even with no --trace-out/--metrics-out, checkpoints carry the run
    # manifest so a config-drifted --resume warns.
    assert main(["simulate", "--days", "2", "--seed", "3", "--checkpoint-dir", str(tmp_path)]) == 0
    newest = sorted(tmp_path.glob("checkpoint-*.json"))[-1]
    manifest = json.loads(newest.read_text())["metadata"]["manifest"]
    assert manifest["seed"] == 3
    assert len(manifest["config_hash"]) == 64

    with caplog.at_level(logging.WARNING, logger="repro.reliability.checkpoint"):
        args = ["simulate", "--days", "2", "--seed", "4", "--resume", "--checkpoint-dir", str(tmp_path)]
        assert main(args) == 0
    assert any("different configuration" in r.message for r in caplog.records)


def test_trace_summarize_missing_file_fails(tmp_path, capsys):
    assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 2
    assert "No such file" in capsys.readouterr().err


def test_trace_summarize_corrupt_file_fails(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n{}\n")
    assert main(["trace", "summarize", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_simulate_resume_requires_checkpoint_dir(capsys):
    assert main(["simulate", "--days", "2", "--resume"]) == 2
    assert "requires a checkpoint_dir" in capsys.readouterr().err


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_report_sections_to_stdout(capsys):
    assert main(["report", "--sections", "table1", "--replications", "1"]) == 0
    out = capsys.readouterr().out
    assert "# ETA2 reproduction report" in out
    assert "## table1" in out


def test_report_written_to_file(tmp_path, capsys):
    out_path = tmp_path / "r.md"
    assert (
        main(["report", "--sections", "table1", "--replications", "1", "--out", str(out_path)])
        == 0
    )
    assert "report written" in capsys.readouterr().out
    assert "## table1" in out_path.read_text()


def test_serve_clean_run(tmp_path, capsys):
    assert (
        main(
            [
                "serve",
                "--wal-dir", str(tmp_path / "wal"),
                "--days", "2",
                "--users", "8",
                "--tasks", "12",
                "--seed", "7",
                "--sync", "none",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "served 2/2 days" in out
    assert "state fingerprint: " in out
    assert list((tmp_path / "wal").glob("wal-*.jsonl"))
    assert list((tmp_path / "wal" / "checkpoints").iterdir())


def test_serve_crash_then_resume_matches_clean(tmp_path, capsys):
    common = ["--days", "2", "--users", "8", "--tasks", "12", "--seed", "7", "--sync", "none"]
    assert main(["serve", "--wal-dir", str(tmp_path / "clean"), *common]) == 0
    clean_out = capsys.readouterr().out
    clean_fp = [l for l in clean_out.splitlines() if l.startswith("state fingerprint")][0]

    wal = str(tmp_path / "crashed")
    assert main(["serve", "--wal-dir", wal, *common, "--kill-at", "5"]) == 3
    assert "restart with --resume" in capsys.readouterr().out
    assert main(["serve", "--wal-dir", wal, *common, "--resume"]) == 0
    resumed_out = capsys.readouterr().out
    resumed_fp = [l for l in resumed_out.splitlines() if l.startswith("state fingerprint")][0]
    assert resumed_fp == clean_fp


def test_serve_refuses_existing_wal_without_resume(tmp_path, capsys):
    common = ["--days", "1", "--users", "8", "--tasks", "8", "--sync", "none"]
    wal = str(tmp_path / "wal")
    assert main(["serve", "--wal-dir", wal, *common]) == 0
    capsys.readouterr()
    assert main(["serve", "--wal-dir", wal, *common]) == 2
    assert "resume" in capsys.readouterr().err


def test_serve_rejects_bad_kill_at(tmp_path, capsys):
    assert (
        main(["serve", "--wal-dir", str(tmp_path / "wal"), "--kill-at", "five"]) == 2
    )
    assert "--kill-at expects integers" in capsys.readouterr().err


def test_serve_telemetry_outputs(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.prom"
    assert (
        main(
            [
                "serve",
                "--wal-dir", str(tmp_path / "wal"),
                "--days", "1",
                "--users", "8",
                "--tasks", "8",
                "--sync", "none",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        == 0
    )
    from repro.observability.metrics import validate_prometheus_text

    validate_prometheus_text(metrics_path.read_text())
    assert "repro_serve_days_total" in metrics_path.read_text()
    assert any('"serve.day.applied"' in line for line in trace_path.read_text().splitlines())


# --- trace analytics subcommands --------------------------------------------


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced simulation shared by the analytics tests."""
    path = tmp_path_factory.mktemp("analytics") / "run.jsonl"
    assert main(["simulate", "--days", "2", "--seed", "3", "--trace-out", str(path)]) == 0
    return path


def test_trace_query_streams_jsonl_rows(traced_run, capsys):
    import json

    args = [
        "trace", "query", str(traced_run),
        "--type", "mle.iteration",
        "--select", "day", "--select", "data.iteration",
        "--limit", "3",
    ]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for line in lines:
        row = json.loads(line)
        assert set(row) == {"day", "data.iteration"}


def test_trace_query_aggregate_groups_by_day(traced_run, capsys):
    import json

    args = [
        "trace", "query", str(traced_run),
        "--type", "mle.", "--aggregate", "count", "--group-by", "day",
    ]
    assert main(args) == 0
    result = json.loads(capsys.readouterr().out)
    assert [g["group"] for g in result["groups"]] == [0, 1]
    assert all(g["value"] > 0 for g in result["groups"])


def test_trace_query_rejects_malformed_where(traced_run, capsys):
    assert main(["trace", "query", str(traced_run), "--where", "no-equals"]) == 2
    assert "PATH=VALUE" in capsys.readouterr().err


def test_trace_profile_renders_the_phase_tree(traced_run, capsys):
    assert main(["trace", "profile", str(traced_run)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("frame")
    assert "phase:truth" in out


def test_trace_profile_collapsed_is_flamegraph_ready(traced_run, capsys):
    import re

    assert main(["trace", "profile", str(traced_run), "--collapsed"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines, "collapsed output must not be empty"
    for line in lines:
        assert re.match(r"^\S+(?:;\S+)* \d+$", line), line
    assert any(";" in line for line in lines)  # real stacks, not flat frames


def test_trace_digest_then_diff_passes_the_gate(traced_run, tmp_path, capsys):
    digest_path = tmp_path / "baseline.json"
    assert main(["trace", "digest", str(traced_run), "--out", str(digest_path)]) == 0
    assert "digest written" in capsys.readouterr().out

    # Same trace vs its committed digest: the CI gate passes.
    assert main(["trace", "diff", str(traced_run), str(digest_path)]) == 0
    assert "zero drift" in capsys.readouterr().out


def test_trace_diff_fails_on_perturbed_trace(traced_run, tmp_path, capsys):
    import json

    lines = traced_run.read_text().splitlines()
    dropped = [line for line in lines if '"mle.iteration"' in line][-1:]
    perturbed = tmp_path / "perturbed.jsonl"
    perturbed.write_text("\n".join(l for l in lines if l not in dropped) + "\n")

    assert main(["trace", "diff", str(traced_run), str(perturbed), "--json"]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "drift"
    assert any(d["name"] == "mle.iteration" for d in verdict["drifts"])


def test_trace_diff_mismatched_kinds_exit_2(traced_run, tmp_path, capsys):
    import json

    from repro.observability.metrics import MetricsRegistry

    metrics_path = tmp_path / "metrics.json"
    metrics_path.write_text(json.dumps(MetricsRegistry().to_json()))
    assert main(["trace", "diff", str(traced_run), str(metrics_path)]) == 2
    assert "cannot compare" in capsys.readouterr().err


def test_trace_slo_grades_a_serve_trace(tmp_path, capsys):
    trace_path = tmp_path / "serve.jsonl"
    metrics_path = tmp_path / "metrics.prom"
    args = [
        "serve", "--wal-dir", str(tmp_path / "wal"),
        "--days", "1", "--users", "8", "--tasks", "8", "--sync", "none",
        "--trace-out", str(trace_path), "--metrics-out", str(metrics_path),
        "--slos", "default",
    ]
    assert main(args) == 0
    capsys.readouterr()
    assert "repro_serve_slo_ok" in metrics_path.read_text()

    # Both the trace and the Prometheus export grade clean.
    for source in (trace_path, metrics_path):
        assert main(["trace", "slo", str(source), "--check"]) == 0
        assert "4/4 ok" in capsys.readouterr().out


def test_trace_slo_check_fails_on_a_breached_trace(tmp_path, capsys):
    from repro.observability.tracer import canonical_json

    records = [
        {"type": "serve.batch.accepted", "data": {"day": 0, "submitter": 0}},
        {"type": "serve.batch.rejected",
         "data": {"day": 0, "submitter": 1, "reason": "queue_full"}},
        {"type": "serve.day.sealed", "data": {"day": 0, "ordinal": 0}},
        {"type": "serve.day.applied", "data": {"day": 0, "ordinal": 0}},
    ]
    path = tmp_path / "shed.jsonl"
    path.write_text("\n".join(canonical_json(r) for r in records) + "\n")

    assert main(["trace", "slo", str(path)]) == 0  # report-only never gates
    assert "BREACH" in capsys.readouterr().out
    assert main(["trace", "slo", str(path), "--check"]) == 1


def test_trace_slo_rejects_a_bad_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"slo_spec_version": 99, "slos": []}')
    source = tmp_path / "empty.jsonl"
    source.write_text("")
    assert main(["trace", "slo", str(source), "--spec", str(spec)]) == 2
    assert "slo_spec_version" in capsys.readouterr().err


def test_serve_slos_require_telemetry(tmp_path, capsys):
    args = [
        "serve", "--wal-dir", str(tmp_path / "wal"),
        "--days", "1", "--users", "8", "--tasks", "8", "--sync", "none",
        "--slos", "default",
    ]
    assert main(args) == 2
    assert "--slos needs" in capsys.readouterr().err


def test_trace_commands_survive_a_broken_pipe(traced_run, monkeypatch):
    import io
    import sys as _sys

    class _ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(_sys, "stdout", _ClosedPipe())
    monkeypatch.setattr(_sys, "stderr", io.StringIO())
    assert main(["trace", "summarize", str(traced_run)]) == 0
    assert main(["trace", "query", str(traced_run), "--type", "mle."]) == 0
