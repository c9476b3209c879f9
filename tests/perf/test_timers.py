"""Phase-timer bookkeeping and its wiring through pipeline and engine."""

import numpy as np

from repro.experiments.config import ExperimentConfig, dataset_factory
from repro.perf.timers import PHASES, PhaseTimer
from repro.simulation.approaches import ETA2Approach
from repro.simulation.engine import SimulationConfig, run_simulation


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_phase_accumulates_across_entries():
    clock = FakeClock()
    timer = PhaseTimer(clock=clock)
    with timer.phase("collect"):
        clock.t += 2.0
    with timer.phase("collect"):
        clock.t += 3.0
    assert timer.get("collect") == 5.0
    assert timer.total == 5.0


def test_wrap_times_every_call():
    clock = FakeClock()
    timer = PhaseTimer(clock=clock)

    def work(x):
        clock.t += 1.5
        return x * 2

    timed = timer.wrap("truth", work)
    assert timed(4) == 8
    assert timed(5) == 10
    assert timer.get("truth") == 3.0


def test_phase_records_on_exception():
    clock = FakeClock()
    timer = PhaseTimer(clock=clock)
    try:
        with timer.phase("allocate"):
            clock.t += 1.0
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert timer.get("allocate") == 1.0


def test_wrap_records_time_when_the_call_raises():
    clock = FakeClock()
    timer = PhaseTimer(clock=clock)

    def explode():
        clock.t += 2.0
        raise ValueError("boom")

    timed = timer.wrap("truth", explode)
    try:
        timed()
    except ValueError:
        pass
    assert timer.get("truth") == 2.0


def test_wrap_exception_propagates_unchanged():
    timer = PhaseTimer(clock=FakeClock())

    def explode():
        raise KeyError("original")

    timed = timer.wrap("collect", explode)
    import pytest

    with pytest.raises(KeyError, match="original"):
        timed()


def test_add_clamps_negative_spans():
    timer = PhaseTimer()
    timer.add("allocate", -0.5)
    assert timer.get("allocate") == 0.0


def test_add_clamps_negative_spans_without_touching_positives():
    timer = PhaseTimer()
    timer.add("truth", 1.0)
    timer.add("truth", -5.0)  # clock skew: clamp, do not subtract
    assert timer.get("truth") == 1.0
    assert timer.total == 1.0


def test_timings_always_lists_canonical_phases():
    timer = PhaseTimer()
    timings = timer.timings()
    assert set(PHASES) <= set(timings)
    assert all(v == 0.0 for v in timings.values())


def test_phase_emits_trace_spans():
    from repro.observability import RunTracer

    clock = FakeClock()
    tracer = RunTracer()
    timer = PhaseTimer(clock=clock, tracer=tracer)
    with timer.phase("truth"):
        clock.t += 2.0
    types = [r["type"] for r in tracer.events()]
    assert types == ["phase.start", "phase.end"]
    end = tracer.events("phase.end")[0]["data"]
    assert end == {"phase": "truth"}
    # Wall-clock durations stay out of the trace unless explicitly opted in,
    # so same-seed runs stay byte-identical.
    assert timer.get("truth") == 2.0


def test_phase_trace_span_records_exception_class():
    from repro.observability import RunTracer

    tracer = RunTracer()
    timer = PhaseTimer(clock=FakeClock(), tracer=tracer)
    try:
        with timer.phase("allocate"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    end = tracer.events("phase.end")[0]["data"]
    assert end["phase"] == "allocate"
    assert end["error"] == "RuntimeError"


def test_phase_wall_time_opt_in():
    from repro.observability import RunTracer

    clock = FakeClock()
    tracer = RunTracer(include_wall_time=True)
    timer = PhaseTimer(clock=clock, tracer=tracer)
    with timer.phase("collect"):
        clock.t += 1.0
    end = tracer.events("phase.end")[0]["data"]
    assert end["wall_seconds"] == 1.0


def test_simulation_day_records_carry_timings():
    config = ExperimentConfig(replications=1, n_days=3, seed=5)
    dataset = dataset_factory("synthetic", config, seed=0)
    approach = ETA2Approach(gamma=0.5, alpha=0.5)
    result = run_simulation(dataset, approach, SimulationConfig(n_days=3, seed=1))
    for day in result.days:
        assert day.timings is not None
        assert set(PHASES) <= set(day.timings)
        assert all(seconds >= 0.0 for seconds in day.timings.values())
    assert sum(day.timings["truth"] for day in result.days) > 0.0


def test_min_cost_steps_split_allocate_collect_truth():
    config = ExperimentConfig(replications=1, n_days=2, seed=6)
    dataset = dataset_factory("synthetic", config, seed=0)
    approach = ETA2Approach(gamma=0.5, alpha=0.5, allocator="min-cost")
    result = run_simulation(dataset, approach, SimulationConfig(n_days=2, seed=2))
    daily = result.days[-1].timings  # day 1+ uses Algorithm 2
    assert daily["collect"] > 0.0
    assert daily["truth"] > 0.0
    assert np.isfinite(daily["allocate"]) and daily["allocate"] >= 0.0
