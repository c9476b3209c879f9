"""Trace summarisation: timeline reconstruction from records alone."""

import pytest

from repro.observability import read_trace, render_summary, summarize_trace
from repro.observability.tracer import RunTracer, canonical_json


def _sample_records():
    return [
        {"seq": 0, "type": "run.start", "data": {"manifest": {
            "repro_version": "1.0.0", "seed": 7, "config_hash": "ab" * 32}}},
        {"seq": 1, "type": "day.start", "data": {"day": 0, "n_tasks": 10}},
        {"seq": 2, "type": "step.start", "data": {"kind": "warm-up", "step": 1}},
        {"seq": 3, "type": "phase.start", "data": {"phase": "identify"}},
        {"seq": 4, "type": "phase.end", "data": {"phase": "identify"}},
        {"seq": 5, "type": "phase.start", "data": {"phase": "truth"}},
        {"seq": 6, "type": "mle.iteration", "data": {"iteration": 1, "delta": None}},
        {"seq": 7, "type": "mle.iteration", "data": {"iteration": 2, "delta": 0.2}},
        {"seq": 8, "type": "mle.converged", "data": {"iterations": 2, "final_delta": 0.2}},
        {"seq": 9, "type": "phase.end", "data": {"phase": "truth"}},
        {"seq": 10, "type": "clustering.new_domain", "data": {"domain": 3}},
        {"seq": 11, "type": "reputation.quarantine", "data": {"day": 0, "users": [4, 9]}},
        {"seq": 12, "type": "guard.violation",
         "data": {"check": "finite_truths", "phase": "truth", "count": 2}},
        {"seq": 13, "type": "checkpoint.save",
         "data": {"step": 1, "file": "checkpoint-00000001.json", "bytes": 512}},
        {"seq": 14, "type": "step.end", "data": {"step": 1, "converged": True, "iterations": 2}},
        {"seq": 15, "type": "day.end", "data": {"day": 0, "error": 0.3, "cost": 12.0}},
        {"seq": 16, "type": "run.end", "data": {"fault_counts": {"drop": 3}}},
    ]


class TestSummarizeTrace:
    def test_reconstructs_day_timeline(self):
        summary = summarize_trace(_sample_records())
        assert summary["manifest"]["seed"] == 7
        (day,) = summary["days"]
        assert day.day == 0
        assert day.kind == "warm-up"
        assert day.phases == ["identify", "truth"]
        assert day.mle_iterations == 2
        assert day.converged is True
        assert day.final_delta == pytest.approx(0.2)
        assert day.new_domains == [3]
        assert day.quarantined == [4, 9]
        assert day.guard_violations == [("finite_truths", "truth", 2)]
        assert day.checkpoints == [(1, 512)]
        assert day.error == pytest.approx(0.3)
        assert summary["fault_counts"] == {"drop": 3}

    def test_anomalies_collect_quarantines_and_violations(self):
        summary = summarize_trace(_sample_records())
        text = "\n".join(summary["anomalies"])
        assert "quarantined users [4, 9]" in text
        assert "guard violation truth/finite_truths" in text

    def test_non_convergence_is_an_anomaly(self):
        records = [
            {"seq": 0, "type": "day.start", "data": {"day": 2}},
            {"seq": 1, "type": "mle.non_convergence",
             "data": {"iterations": 100, "final_delta": 0.9}},
        ]
        summary = summarize_trace(records)
        assert summary["days"][0].converged is False
        assert any("did not converge" in entry for entry in summary["anomalies"])

    def test_unknown_types_are_counted_not_fatal(self):
        summary = summarize_trace([{"seq": 0, "type": "future.event"}])
        assert summary["unknown_types"] == {"future.event": 1}


class TestRenderSummary:
    def test_renders_manifest_days_and_anomalies(self):
        text = render_summary(summarize_trace(_sample_records()))
        assert "run: repro 1.0.0, seed 7" in text
        assert "day 0 (warm-up): 10 tasks" in text
        assert "phases: identify -> truth" in text
        assert "mle: 2 iterations, converged" in text
        assert "quarantined [4, 9]" in text
        assert "injected faults: drop=3" in text
        assert "anomalies (2):" in text

    def test_clean_run_reports_no_anomalies(self):
        text = render_summary(summarize_trace([
            {"seq": 0, "type": "day.start", "data": {"day": 0}},
            {"seq": 1, "type": "day.end", "data": {"day": 0, "error": 0.1}},
        ]))
        assert "anomalies: none" in text


class TestSimulatedRunTrace:
    def test_every_event_type_of_a_run_is_summarized(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        assert main(["simulate", "--days", "5", "--seed", "2017", "--trace-out", str(path)]) == 0
        summary = summarize_trace(read_trace(path))
        assert summary["unknown_types"] == {}
        warmup, *daily = summary["days"]
        assert warmup.greedy is None
        assert all(day.greedy["picks"] > 0 for day in daily)
        assert all(day.greedy["evaluations"] >= day.greedy["pops"] for day in daily)
        first = daily[0].greedy
        line = f"allocation: greedy {first['picks']} picks, {first['pops']} pops"
        assert line in render_summary(summary)


class TestReadTrace:
    def test_reads_tracer_output(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with RunTracer(sink=path) as tracer:
            tracer.emit("day.start", day=0)
            tracer.emit("day.end", day=0)
        records = read_trace(path)
        assert [r["type"] for r in records] == ["day.start", "day.end"]

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = canonical_json({"seq": 0, "type": "day.start", "data": {"day": 0}})
        path.write_text(good + "\n" + '{"seq": 1, "type": "day.e')
        records = read_trace(path)
        assert records[-1]["type"] == "trace.truncated"
        summary = summarize_trace(records)
        assert summary["truncated"] is True
        assert "crashed run" in render_summary(summary)

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('not json\n{"seq": 0, "type": "x"}\n')
        with pytest.raises(ValueError, match="line 1"):
            read_trace(path)


class TestEmptyAndMetadataOnlyTraces:
    """A run that crashed before its first day must still summarize."""

    def test_empty_record_list(self):
        text = render_summary(summarize_trace([]))
        assert "no days recorded" in text
        assert "anomalies: none" in text

    def test_metadata_only_trace(self):
        records = [
            {"seq": 0, "type": "run.start", "data": {"manifest": {
                "repro_version": "1.0.0", "seed": 3, "config_hash": "cd" * 32}}},
            {"seq": 1, "type": "run.end", "data": {}},
        ]
        text = render_summary(summarize_trace(records))
        assert "no days recorded" in text
        assert "seed 3" in text

    def test_manifest_with_null_config_hash(self):
        # run_manifest(config=None) stores config_hash=None; slicing it
        # used to crash the renderer on exactly the traces that most
        # needed a summary.
        records = [
            {"seq": 0, "type": "run.start", "data": {"manifest": {
                "repro_version": "1.0.0", "seed": 3, "config_hash": None}}},
        ]
        text = render_summary(summarize_trace(records))
        assert "config (none)" in text
        assert "no days recorded" in text

    def test_empty_file_summarizes(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        summary = summarize_trace(read_trace(path))
        assert "no days recorded" in render_summary(summary)


class TestSchemaVersioning:
    def test_unknown_schema_version_warns_once_not_fatal(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            '{"schema": 99, "seq": 0, "type": "day.start", "data": {"day": 0}}\n'
            '{"schema": 99, "seq": 1, "type": "day.end", "data": {"day": 0}}\n'
        )
        with pytest.warns(UserWarning, match="schema version 99") as caught:
            records = read_trace(path)
        assert len(caught) == 1  # one warning per file, not per record
        assert [r["type"] for r in records] == ["day.start", "day.end"]

    def test_current_and_missing_schema_are_silent(self, tmp_path):
        import warnings

        path = tmp_path / "current.jsonl"
        path.write_text(
            '{"schema": 1, "seq": 0, "type": "day.start", "data": {"day": 0}}\n'
            '{"seq": 1, "type": "day.end", "data": {"day": 0}}\n'
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(read_trace(path)) == 2


class TestTruncationFuzz:
    """Every byte-offset cut inside the final two records must be safe.

    The crash contract: a torn tail never raises and never surfaces a
    partial record — whatever suffix the crash ate, the reader returns
    an exact prefix of the original records (plus at most one
    ``trace.truncated`` marker).
    """

    def test_every_cut_in_the_final_two_records(self, tmp_path):
        path = tmp_path / "full.jsonl"
        with RunTracer(sink=path) as tracer:
            tracer.emit("run.start", manifest={"seed": 1})
            for day in range(3):
                tracer.emit("day.start", day=day, n_tasks=5)
                tracer.emit("mle.converged", iterations=day + 2)
                tracer.emit("day.end", day=day, error=0.1 * day)
            tracer.emit("run.end", fault_counts={})
        original = read_trace(path)
        data = path.read_bytes()
        lines = data.splitlines(keepends=True)
        cut_start = len(data) - len(lines[-1]) - len(lines[-2])

        for cut in range(cut_start, len(data) + 1):
            torn = tmp_path / "torn.jsonl"
            torn.write_bytes(data[:cut])
            records = read_trace(torn)  # must never raise
            if records and records[-1]["type"] == "trace.truncated":
                records = records[:-1]
            assert records == original[: len(records)], f"cut at byte {cut}"
