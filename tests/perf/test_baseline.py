"""The benchmark-regression harness: record shape, comparison, CLI."""

import json
import statistics

import pytest

from repro.perf import baseline
from repro.perf.baseline import KERNELS, compare, main, run_benchmarks


@pytest.fixture(scope="module")
def quick_record():
    return run_benchmarks(quick=True, rounds=1)


def test_record_covers_every_kernel(quick_record):
    assert set(quick_record["kernels"]) == set(KERNELS)
    for kernel in quick_record["kernels"].values():
        assert kernel["median_s"] > 0.0
        assert kernel["reference_median_s"] > 0.0
        assert kernel["speedup"] == pytest.approx(
            kernel["reference_median_s"] / kernel["median_s"]
        )
        assert kernel["rounds"] == 1
        assert kernel["size"]


def test_paired_timing_alternates_and_takes_the_median_ratio(monkeypatch):
    """Both sides run once per round, in turn; the speedup is the median of
    the per-round ratios, not the ratio of the two medians."""
    now = [0.0]
    monkeypatch.setattr(baseline.time, "perf_counter", lambda: now[0])
    calls = []
    # Seconds per call: the calibration call, then rounds 1-3.  Every call
    # outlasts a timing round's minimum, so each round makes one call.
    durations = {"optimised": [1.0, 1.0, 2.0, 4.0], "reference": [1.0, 3.0, 10.0, 4.0]}

    def stub(name):
        def call():
            now[0] += durations[name][sum(1 for seen in calls if seen == name)]
            calls.append(name)

        return call

    timing = baseline._paired_timing(stub("optimised"), stub("reference"), rounds=3)
    assert calls == ["optimised", "reference"] * 4
    assert timing["median_s"] == 2.0
    assert timing["reference_median_s"] == 4.0
    assert timing["speedup"] == statistics.median([3.0, 5.0, 1.0]) == 3.0
    assert timing["speedup"] != timing["reference_median_s"] / timing["median_s"]


def test_record_is_json_serialisable(quick_record):
    loaded = json.loads(json.dumps(quick_record))
    assert loaded["meta"]["mode"] == "quick"


def test_compare_passes_against_itself(quick_record):
    assert compare(quick_record, quick_record) == []


def test_compare_detects_wall_clock_regression(quick_record):
    doctored = json.loads(json.dumps(quick_record))
    name = next(iter(doctored["kernels"]))
    doctored["kernels"][name]["median_s"] /= 10.0  # baseline was 10x faster
    failures = compare(quick_record, doctored, threshold=2.0)
    assert len(failures) == 1 and name in failures[0]


def test_compare_skips_size_mismatched_kernels(quick_record):
    """Speedups are size-dependent, so cross-size comparison must not happen."""
    doctored = json.loads(json.dumps(quick_record))
    name = next(iter(doctored["kernels"]))
    doctored["kernels"][name]["size"] = {"k": 999_999}
    doctored["kernels"][name]["speedup"] *= 1000.0  # would fail if compared
    assert compare(quick_record, doctored, threshold=2.0) == []


def test_compare_uses_speedup_ratios_across_machines(quick_record):
    doctored = json.loads(json.dumps(quick_record))
    doctored["meta"]["node"] = "some-other-box"
    name = next(iter(doctored["kernels"]))
    doctored["kernels"][name]["median_s"] /= 1000.0  # wall-clock not comparable
    assert compare(quick_record, doctored, threshold=2.0) == []
    doctored["kernels"][name]["speedup"] = quick_record["kernels"][name]["speedup"] * 10.0
    failures = compare(quick_record, doctored, threshold=2.0)
    assert len(failures) == 1 and "speedup" in failures[0]


def test_compare_matches_quick_section_of_dual_record(quick_record):
    """CI's quick run is checked against the baseline's quick_kernels section."""
    dual = {
        "meta": dict(quick_record["meta"]),
        "kernels": {},  # full sizes: none match a quick run
        "quick_kernels": json.loads(json.dumps(quick_record["kernels"])),
    }
    assert compare(quick_record, dual) == []
    name = next(iter(dual["quick_kernels"]))
    dual["quick_kernels"][name]["speedup"] *= 10.0
    failures = compare(quick_record, dual, threshold=2.0)
    assert len(failures) == 1 and "speedup" in failures[0]


def test_compare_ignores_unknown_kernels(quick_record):
    extended = json.loads(json.dumps(quick_record))
    extended["kernels"]["brand_new"] = {"size": {}, "median_s": 1.0, "speedup": 1.0}
    assert compare(quick_record, extended) == []


def test_cli_write_then_check(tmp_path):
    path = tmp_path / "BENCH_core.json"
    assert main(["--write", "--quick", "--rounds", "1", "--path", str(path)]) == 0
    assert set(json.loads(path.read_text())["kernels"]) == set(KERNELS)
    out = tmp_path / "fresh" / "BENCH_core.json"
    assert (
        main(
            [
                "--check",
                "--quick",
                "--rounds",
                "1",
                "--path",
                str(path),
                "--out",
                str(out),
                "--threshold",
                "50",
            ]
        )
        == 0
    )
    assert out.exists()


def test_write_records_the_median_speedup_of_three_runs(tmp_path, monkeypatch):
    """A write runs the suite three times per size and keeps, for each
    kernel, the whole entry of the run with the median speedup."""
    speedups = iter([1.0, 5.0, 3.0] * 2)  # the full sizes, then the quick sizes
    calls = []

    def stub(quick=False, rounds=None):
        calls.append(quick)
        speedup = next(speedups)
        kernel = {
            "size": {"quick": quick},
            "rounds": 1,
            "median_s": 1.0 / speedup,
            "reference_median_s": 1.0,
            "speedup": speedup,
        }
        return {
            "meta": {"mode": "quick" if quick else "full"},
            "kernels": {name: dict(kernel) for name in KERNELS},
        }

    monkeypatch.setattr(baseline, "run_benchmarks", stub)
    path = tmp_path / "BENCH_core.json"
    assert main(["--write", "--path", str(path)]) == 0
    assert calls == [False] * 3 + [True] * 3
    written = json.loads(path.read_text())
    for section in ("kernels", "quick_kernels"):
        assert set(written[section]) == set(KERNELS)
        for kernel in written[section].values():
            assert kernel["speedup"] == 3.0
            assert kernel["median_s"] == 1.0 / 3.0


def test_cli_check_fails_on_doctored_baseline(tmp_path):
    path = tmp_path / "BENCH_core.json"
    main(["--write", "--quick", "--rounds", "1", "--path", str(path)])
    record = json.loads(path.read_text())
    for kernel in record["kernels"].values():
        kernel["median_s"] /= 1000.0
        kernel["speedup"] *= 1000.0
    path.write_text(json.dumps(record))
    assert main(["--check", "--quick", "--rounds", "1", "--path", str(path)]) == 1


def test_cli_check_missing_baseline(tmp_path):
    assert main(["--check", "--quick", "--rounds", "1", "--path", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("rounds", ["0", "-1"])
def test_cli_rejects_rounds_below_one(tmp_path, rounds):
    with pytest.raises(SystemExit) as exit_info:
        main(["--check", "--quick", "--rounds", rounds, "--path", str(tmp_path / "b.json")])
    assert exit_info.value.code == 2
