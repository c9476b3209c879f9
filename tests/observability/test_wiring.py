"""Telemetry wiring through the closed loop, end to end.

The acceptance contract: tracing disabled leaves simulation output
bit-identical; tracing enabled under the same seed produces byte-identical
JSONL traces; the trace alone reconstructs the day timeline.
"""

import logging

import numpy as np
import pytest

from repro.core.pipeline import ETA2System, IncomingTask, StepResult
from repro.core.truth import estimate_truth
from repro.datasets import synthetic_dataset
from repro.observability import (
    Telemetry,
    read_trace,
    render_summary,
    run_manifest,
    summarize_trace,
    validate_prometheus_text,
)
from repro.observability.tracer import NULL_TRACER, RunTracer
from repro.reliability.checkpoint import CheckpointManager
from repro.reliability.guards import InvariantGuard
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation.approaches import ETA2Approach
from repro.truthdiscovery.base import ObservationMatrix


def _dataset():
    return synthetic_dataset(n_users=12, n_tasks=40, n_domains=3, seed=3)


def _config(**overrides):
    params = dict(n_days=3, seed=5)
    params.update(overrides)
    return SimulationConfig(**params)


def _run(telemetry=None, **config_overrides):
    return run_simulation(
        _dataset(), ETA2Approach(), _config(**config_overrides), telemetry=telemetry
    )


class TestSimulationTracing:
    def test_trace_covers_the_full_day_timeline(self, tmp_path):
        path = tmp_path / "run.jsonl"
        telemetry = Telemetry.create(trace_path=path, config=_config(), seed=5)
        result = _run(telemetry=telemetry)
        telemetry.finalize()

        records = read_trace(path)
        types = {r["type"] for r in records}
        for expected in (
            "run.start", "day.start", "step.start", "phase.start", "phase.end",
            "mle.iteration", "step.end", "day.end", "run.end",
        ):
            assert expected in types, f"missing {expected}"

        summary = summarize_trace(records)
        assert [day.day for day in summary["days"]] == [r.day for r in result.days]
        assert summary["days"][0].kind == "warm-up"
        assert summary["days"][1].kind == "daily"
        for day in summary["days"]:
            assert day.phases == ["identify", "allocate", "collect", "truth"]
            assert day.mle_iterations >= 1
        rendered = render_summary(summary)
        assert "day 0 (warm-up)" in rendered

    def test_day_records_carry_the_trace_handle(self):
        telemetry = Telemetry.create()
        result = _run(telemetry=telemetry)
        for day in result.days:
            assert day.trace is telemetry.tracer
        assert telemetry.tracer.events("day.start")
        untraced = _run()
        assert all(day.trace is None for day in untraced.days)

    def test_same_seed_traces_are_byte_identical(self, tmp_path):
        contents = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.jsonl"
            telemetry = Telemetry.create(trace_path=path, config=_config(), seed=5)
            _run(telemetry=telemetry)
            telemetry.finalize()
            contents.append(path.read_bytes())
        assert contents[0] == contents[1]

    def test_tracing_does_not_change_simulation_output(self):
        baseline = _run()
        telemetry = Telemetry.create(config=_config(), seed=5)
        traced = _run(telemetry=telemetry)
        np.testing.assert_array_equal(baseline.errors_by_day(), traced.errors_by_day())
        for base_day, traced_day in zip(baseline.days, traced.days):
            np.testing.assert_array_equal(base_day.truths, traced_day.truths)
            np.testing.assert_array_equal(
                base_day.observations.values, traced_day.observations.values
            )

    def test_chaos_trace_gets_virtual_clock_timestamps(self, tmp_path):
        from repro.reliability.faults import FaultProfile

        path = tmp_path / "chaos.jsonl"
        config_overrides = {"faults": FaultProfile(drop_rate=0.2, exception_rate=0.1)}
        telemetry = Telemetry.create(trace_path=path, config=_config(**config_overrides), seed=5)
        _run(telemetry=telemetry, **config_overrides)
        telemetry.finalize()
        records = read_trace(path)
        day_events = [r for r in records if r["type"] == "day.start"]
        assert day_events and all("ts" in r for r in day_events)

    def test_metrics_registry_fills_and_validates(self, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        telemetry = Telemetry.create(
            metrics_path=metrics_path, config=_config(), seed=5
        )
        result = _run(telemetry=telemetry)
        telemetry.finalize()
        registry = telemetry.metrics
        assert registry.counter("repro_steps_total").value(kind="warm-up") == 1
        assert registry.counter("repro_steps_total").value(kind="daily") == len(result.days) - 1
        total_obs = sum(day.observations.observation_count for day in result.days)
        assert registry.counter("repro_observations_total").value() == total_obs
        assert registry.counter("repro_days_total").value() == len(result.days)
        validate_prometheus_text(metrics_path.read_text())


class TestSystemTelemetry:
    def _system(self, **kwargs):
        return ETA2System(n_users=6, capacities=[4.0] * 6, **kwargs)

    def test_default_tracer_is_the_shared_null_tracer(self):
        system = self._system()
        assert system.tracer is NULL_TRACER
        assert system.metrics is None

    def test_enable_telemetry_repoints_existing_subsystems(self, tmp_path):
        system = self._system()
        system.enable_guards()
        system.enable_checkpointing(tmp_path)
        tracer = RunTracer()
        manifest = run_manifest(seed=1)
        system.enable_telemetry(tracer=tracer, manifest=manifest)
        assert system.guard.tracer is tracer
        assert system.checkpoint_manager.tracer is tracer
        assert system.checkpoint_manager.manifest is manifest

    def test_subsystems_enabled_later_pick_up_telemetry(self, tmp_path):
        system = self._system()
        tracer = RunTracer()
        system.enable_telemetry(tracer=tracer, manifest=run_manifest(seed=1))
        system.enable_guards()
        manager = system.enable_checkpointing(tmp_path)
        assert system.guard.tracer is tracer
        assert manager.tracer is tracer
        assert manager.manifest is system.run_manifest

    def test_reputation_transitions_emit_events(self):
        import types

        from repro.core.allocation.base import Assignment
        from repro.reliability.reputation import ReputationHook

        system = self._system()
        tracer = RunTracer()
        system.enable_telemetry(tracer=tracer)
        summary = types.SimpleNamespace(
            day=4,
            newly_quarantined=(2, 5),
            newly_probation=(1,),
            reinstated=(0,),
        )
        # The hook reads the tracker from the system at call time.
        system.reputation = types.SimpleNamespace(record_day=lambda *a, **k: summary)
        observations = ObservationMatrix(
            values=np.zeros((6, 2)), mask=np.zeros((6, 2), dtype=bool)
        )
        result = StepResult(
            assignment=Assignment(matrix=np.zeros((6, 2), dtype=bool)),
            observations=observations,
            truths=np.zeros(2),
            sigmas=np.ones(2),
            task_domains=np.zeros(2, dtype=int),
            merges=(),
            new_domains=(),
            mle_iterations=1,
            allocation_cost=0.0,
            task_expertise=np.ones((6, 2)),
        )
        scored = ReputationHook().after_step(system, result, "daily")
        assert scored.reputation is summary
        assert tracer.events("reputation.quarantine")[0]["data"] == {
            "day": 4, "users": [2, 5]
        }
        assert tracer.events("reputation.probation")[0]["data"]["users"] == [1]
        assert tracer.events("reputation.reinstate")[0]["data"]["users"] == [0]


class TestMLETracing:
    def test_iteration_events_match_iteration_count(self):
        rng = np.random.default_rng(0)
        values = rng.normal(10.0, 1.0, size=(8, 12))
        observations = ObservationMatrix(values=values, mask=np.ones_like(values, dtype=bool))
        domains = np.zeros(12, dtype=int)
        tracer = RunTracer()
        result = estimate_truth(observations, domains, tracer=tracer)
        iterations = tracer.events("mle.iteration")
        assert len(iterations) == result.iterations
        assert [r["data"]["iteration"] for r in iterations] == list(
            range(1, result.iterations + 1)
        )
        # Deltas beyond the first iteration are real numbers.
        assert all(r["data"]["delta"] is not None for r in iterations[1:])
        if result.converged:
            verdict = tracer.events("mle.converged")[0]["data"]
            assert verdict["iterations"] == result.iterations

    def test_non_convergence_emits_structured_event(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0.0, 5.0, size=(6, 10))
        observations = ObservationMatrix(values=values, mask=np.ones_like(values, dtype=bool))
        tracer = RunTracer()
        result = estimate_truth(
            observations, np.zeros(10, dtype=int), max_iterations=2, tracer=tracer
        )
        assert not result.converged
        event = tracer.events("mle.non_convergence")[0]["data"]
        assert event["iterations"] == 2
        assert event["n_tasks"] == 10

    def test_tracing_does_not_change_the_estimate(self):
        rng = np.random.default_rng(2)
        values = rng.normal(5.0, 2.0, size=(8, 12))
        observations = ObservationMatrix(values=values, mask=np.ones_like(values, dtype=bool))
        domains = np.zeros(12, dtype=int)
        plain = estimate_truth(observations, domains)
        traced = estimate_truth(observations, domains, tracer=RunTracer())
        np.testing.assert_array_equal(plain.truths, traced.truths)
        np.testing.assert_array_equal(plain.expertise, traced.expertise)
        assert plain.iterations == traced.iterations


class TestGuardTracing:
    def test_violations_emit_events(self):
        tracer = RunTracer()
        guard = InvariantGuard(tracer=tracer)
        truths = np.array([1.0, np.inf, 2.0])
        sigmas = np.array([1.0, 1.0, -1.0])
        guard.check_truths(truths, sigmas)
        events = tracer.events("guard.violation")
        assert events, "expected guard.violation events"
        checks = {r["data"]["check"] for r in events}
        assert "finite_truths" in checks or len(checks) >= 1
        for record in events:
            assert record["data"]["phase"] == "truth"
            assert record["data"]["count"] >= 1


class TestCheckpointManifest:
    def _system(self):
        return ETA2System(n_users=4, capacities=[3.0] * 4)

    def test_manifest_lands_in_checkpoint_metadata(self, tmp_path):
        manifest = run_manifest(config={"n_days": 3}, seed=9)
        manager = CheckpointManager(tmp_path, manifest=manifest)
        manager.save(self._system(), step=1)
        record = manager.load_record(manager.path_for(1))
        assert record["metadata"]["manifest"]["config_hash"] == manifest["config_hash"]
        assert record["metadata"]["manifest"]["seed"] == 9

    def test_restore_warns_on_config_drift(self, tmp_path, caplog):
        old = run_manifest(config={"n_days": 3}, seed=9)
        CheckpointManager(tmp_path, manifest=old).save(self._system(), step=1)

        new = run_manifest(config={"n_days": 5}, seed=9)
        tracer = RunTracer()
        manager = CheckpointManager(tmp_path, manifest=new, tracer=tracer)
        with caplog.at_level(logging.WARNING, logger="repro.reliability.checkpoint"):
            step = manager.restore(self._system())
        assert step == 1
        assert any("different configuration" in r.message for r in caplog.records)
        drift = tracer.events("checkpoint.config_drift")[0]["data"]
        assert drift["stored"] == old["config_hash"]
        assert drift["current"] == new["config_hash"]

    def test_restore_is_silent_when_config_matches(self, tmp_path, caplog):
        manifest = run_manifest(config={"n_days": 3}, seed=9)
        CheckpointManager(tmp_path, manifest=manifest).save(self._system(), step=1)
        with caplog.at_level(logging.WARNING, logger="repro.reliability.checkpoint"):
            CheckpointManager(tmp_path, manifest=manifest).restore(self._system())
        assert not any("different configuration" in r.message for r in caplog.records)

    def test_pre_telemetry_checkpoints_stay_restorable(self, tmp_path):
        CheckpointManager(tmp_path).save(self._system(), step=1)  # no manifest stored
        manager = CheckpointManager(tmp_path, manifest=run_manifest(seed=1))
        assert manager.restore(self._system()) == 1

    def test_save_emits_checkpoint_event_with_bytes(self, tmp_path):
        tracer = RunTracer()
        manager = CheckpointManager(tmp_path, tracer=tracer)
        path = manager.save(self._system(), step=2)
        event = tracer.events("checkpoint.save")[0]["data"]
        assert event["step"] == 2
        assert event["file"] == path.name  # name only: byte-identity across tmp dirs
        assert event["bytes"] == len(path.read_text())


class TestZeroObservationStep:
    def test_degraded_step_is_traced(self):
        system = ETA2System(n_users=4, capacities=[3.0] * 4)
        tracer = RunTracer()
        system.enable_telemetry(tracer=tracer)
        tasks = [IncomingTask(processing_time=1.0, domain=0) for _ in range(3)]
        result = system.warmup(tasks, lambda pairs: [np.nan] * len(pairs))
        assert result.degraded
        assert tracer.events("step.degraded")[0]["data"]["kind"] == "warm-up"
