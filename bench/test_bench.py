"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest bench -q``."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

import compare
import workloads
from harness import SpanRecorder, patched, percentile, self_times, speed_factors
from repro.datasets import sfv_dataset, survey_dataset, synthetic_dataset

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Reduced-size versions of the four workloads: same code paths, seconds of work.
SMALL = {
    "synthetic-eta2": replace(
        workloads.WORKLOADS["synthetic-eta2"],
        datasets=(partial(synthetic_dataset, n_users=20, n_tasks=100),),
        error_ceiling=2.0,
    ),
    "synthetic-mc": replace(
        workloads.WORKLOADS["synthetic-mc"],
        datasets=(partial(synthetic_dataset, n_users=20, n_tasks=100),),
        error_ceiling=2.0,
    ),
    "text-cluster": replace(
        workloads.WORKLOADS["text-cluster"],
        datasets=(
            partial(survey_dataset, n_users=12, n_tasks=30),
            partial(sfv_dataset, n_users=8, n_tasks=30),
        ),
        error_ceiling=2.0,
    ),
    "serve-ingest": replace(
        workloads.WORKLOADS["serve-ingest"],
        n_users=20,
        n_domains=3,
        tasks_per_day=20,
        reporters=2,
        rate=20000.0,
        warmup_days=2,
        error_ceiling=2.0,
    ),
}
#: Seconds below every workload's minimum, so that a run takes the fewest
#: inputs or days its percentiles accept (20 inputs, or 100 days).
SHORT = 0.01


def test_self_time_subtracts_direct_children():
    spans = [
        ["run", 0.0, 10.0, -1, 0],
        ["step", 1.0, 4.0, 0, 0],
        ["greedy", 2.0, 3.0, 1, 0],
        ["step", 5.0, 9.0, 0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_recorder_totals_nest_spans_and_sum_per_name():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    outer = recorder.open("outer")  # 0 .. 7
    recorder.close(recorder.open("inner"))  # 1 .. 2
    recorder.wrap("inner", lambda: None)()  # 3 .. 4
    recorder.close(recorder.open("leaf"))  # 5 .. 6
    recorder.close(outer)
    assert [s[3] for s in recorder.spans] == [-1, 0, 0, 0]
    assert recorder.totals() == {
        "outer": (1, 7.0, 4.0),
        "inner": (2, 2.0, 2.0),
        "leaf": (1, 1.0, 1.0),
    }


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert percentile(range(20), 50) == 9.5
    assert percentile(range(100), 90) == pytest.approx(89.1)
    assert percentile(range(1000), 99) == pytest.approx(989.01)
    for n, q in ((19, 50), (99, 90), (999, 99)):
        with pytest.raises(ValueError, match="beyond"):
            percentile(range(n), q)


def test_speed_factors_take_the_median_of_nearby_probes():
    # One slow probe is outvoted; a lasting slowdown to half speed is followed.
    probes = [2e-3, 2e-3, 2e-3, 40e-3, 2e-3, 4e-3, 4e-3, 4e-3, 4e-3]
    expected = [1.0, 1.0, 1.0, 2 / 3, 0.5, 0.5, 0.5, 0.5]
    assert speed_factors(probes, window=2) == pytest.approx(expected)
    assert speed_factors([2e-3, 2e-3], window=3) == [1.0]


def _originals():
    return {
        (owner, attr): owner.__dict__[attr]
        for owner, attr, _ in workloads.trace_points(SpanRecorder())
    }


def test_wrappers_are_restored_even_when_the_traced_run_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with patched(workloads.trace_points(SpanRecorder())):
            assert any(owner.__dict__[attr] is not fn for (owner, attr), fn in before.items())
            raise RuntimeError("traced run failed")
    after = _originals()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.timeout(300)
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(SMALL))
def test_small_workload_is_correct_and_reports_every_metric(name, trace, tmp_path):
    before = _originals()
    outcome = workloads.run(
        name,
        seed=5,
        seconds=SHORT,
        trace=trace,
        workdir=tmp_path,
        spans_path=tmp_path / "spans.jsonl" if trace else None,
        workload=SMALL[name],
    )
    assert outcome.correct, "\n".join(outcome.lines)
    assert outcome.failed == 0 and outcome.attempted > 0
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert set(outcome.metrics) == {m["name"] for m in specs}
    assert re.fullmatch(r"[0-9a-f]{64}", outcome.digest)
    assert list(tmp_path.glob("*/wal-*")) == []  # scratch WAL directories are removed
    if trace:
        assert outcome.metrics["bench.coverage"] >= 0.9
        spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
        assert spans and all(s["end"] >= s["start"] for s in spans)
        assert _originals() == before
    else:
        assert all(value > 0 for value in outcome.metrics.values())


@pytest.mark.timeout(300)
@pytest.mark.parametrize("name", ["synthetic-mc", "serve-ingest"])
def test_accuracy_metrics_do_not_depend_on_the_seed(name, tmp_path):
    first, second = (
        workloads.run(name, seed, SHORT, trace=False, workdir=tmp_path, workload=SMALL[name])
        for seed in (5, 6)
    )
    assert first.digest != second.digest  # the timed inputs do
    for metric in ("est_error", "recruit_cost"):
        assert first.metrics[metric] == second.metrics[metric]


def test_benchmark_json_names_every_workload_once():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synthetic-eta2", "--seconds", "1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode != 0
    assert not child.stdout.strip().splitlines()[-1].startswith("{")


def _result(seed, digest, values, correct=True, failed=0):
    metrics = {name: {"value": value} for name, value in values.items()}
    workload = {"digest": digest, "metrics": metrics, "correct": correct, "failed": failed}
    return {"seed": seed, "seconds": 16.0, "trace": 0, "workloads": {"w": workload}}


COMPARE_SPEC = {"end_to_end": [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.1}]}


@pytest.mark.parametrize(
    "head_scale, expected",
    [(0.8, "better"), (1.2, "worse"), (1.02, "same"), (1.05, "worse"), (0.95, "better")],
)
def test_compare_verdicts_follow_the_bounds(head_scale, expected):
    # 1.05: within the bound, but every pair loses by more than the spread.
    base = [100.0 + i % 3 for i in range(10)]
    head = [v * head_scale for v in base]
    assert compare.verdict(base, head, bound=0.1, better="lower")[0] == expected


def test_compare_ignores_float_noise_in_a_deterministic_metric():
    base = [0.3] * 10
    assert compare.verdict(base, [0.3 * (1 + 1e-12)] * 10, bound=0.001, better="lower")[0] == "same"
    assert compare.verdict(base, [0.3 * 1.0005] * 10, bound=0.001, better="lower")[0] == "worse"


def test_compare_is_unresolved_when_the_spread_exceeds_the_bound():
    base = [80.0, 120.0] * 5
    head = [85.0, 118.0] * 5
    assert compare.verdict(base, head, bound=0.1, better="lower")[0] == "unresolved"


def test_compare_flags_digest_mismatches_within_a_seed():
    base = [_result(1, "aa", {"m": 1.0})]
    _, passed = compare.compare(base, [_result(1, "aa", {"m": 1.0})], COMPARE_SPEC)
    assert passed
    lines, passed = compare.compare(base, [_result(1, "bb", {"m": 1.0})], COMPARE_SPEC)
    assert not passed and any("DIGEST MISMATCH" in line for line in lines)


def test_compare_refuses_pairs_that_ran_different_inputs():
    base = [_result(1, "aa", {"m": 1.0})]
    with pytest.raises(ValueError, match="seed"):
        compare.compare(base, [_result(2, "bb", {"m": 1.0})], COMPARE_SPEC)
    shorter = _result(1, "aa", {"m": 1.0})
    shorter["seconds"] = 8.0
    with pytest.raises(ValueError, match="seed"):
        compare.compare(base, [shorter], COMPARE_SPEC)


@pytest.mark.parametrize(
    "head, flag",
    [
        (_result(1, "aa", {"m": 0.5}, correct=False), "INCORRECT"),
        (_result(1, "aa", {"m": 0.5}, failed=1), "MORE FAILURES"),
    ],
)
def test_compare_fails_a_faster_head_that_is_wrong_or_fails_more(head, flag):
    lines, passed = compare.compare([_result(1, "aa", {"m": 1.0})], [head], COMPARE_SPEC)
    assert not passed and any(line.startswith(flag) for line in lines)
