"""The step-hook contract of :class:`ETA2System`.

Reputation, guards, telemetry and checkpointing each run as one
``StepHook``.  Their order is fixed by layer, not by the order of the
``enable_*`` calls, and every hook reads its layer's objects from the
system at call time, so a checkpoint restore that replaces
``system.reputation`` is what the next step uses.
"""

import json

import numpy as np
import pytest

from repro.core.hooks import LAYERS
from repro.core.pipeline import ETA2System, IncomingTask
from repro.observability import MetricsRegistry, RunTracer, run_manifest
from repro.reliability.reputation import QUARANTINED, ReputationConfig, ReputationTracker

N_USERS = 12
COLLUDERS = (0, 1)


def _system():
    return ETA2System(n_users=N_USERS, capacities=np.full(N_USERS, 8.0), alpha=0.5, seed=0)


def _tasks(rng, n=20, n_domains=3):
    return [
        IncomingTask(processing_time=float(rng.uniform(0.5, 1.5)), domain=int(rng.integers(n_domains)))
        for _ in range(n)
    ]


def _observe(rng, truths):
    """Honest users report truth plus noise; the colluders copy one lie."""

    def observe(pairs):
        return [
            truths[task] + 7.0 if user in COLLUDERS else truths[task] + rng.standard_normal()
            for user, task in pairs
        ]

    return observe


def _run_days(system, seed=3, days=4):
    rng = np.random.default_rng(seed)
    results = []
    for day in range(days):
        tasks = _tasks(rng)
        observe = _observe(rng, rng.uniform(0.0, 20.0, len(tasks)))
        entry = system.warmup if day == 0 else system.step
        results.append(entry(tasks, observe))
    return results


def _enable(system, layer, tmp_path, manifest):
    if layer == "reputation":
        system.enable_reputation(ReputationConfig(min_observations=2.0))
    elif layer == "guards":
        system.enable_guards("repair")
    elif layer == "telemetry":
        system.enable_telemetry(
            tracer=RunTracer(sink=tmp_path / "run.jsonl"),
            metrics=MetricsRegistry(manifest=manifest),
            manifest=manifest,
        )
    else:
        system.enable_checkpointing(tmp_path / "ckpt", keep=10)


@pytest.mark.parametrize(
    "order", [LAYERS[::-1], LAYERS[2:] + LAYERS[:2]], ids=["reversed", "rotated"]
)
def test_enable_order_does_not_change_outputs(tmp_path, order):
    """Any enable order gives the byte-identical trace, checkpoints and metrics
    of the layer order."""
    manifest = run_manifest(config={"test": "step-hooks"}, seed=3)
    outputs = []
    for name, layers in (("reference", LAYERS), ("permuted", order)):
        directory = tmp_path / name
        system = _system()
        for layer in layers:
            _enable(system, layer, directory, manifest)
        results = _run_days(system)
        system.tracer.close()
        checkpoints = {path.name: path.read_bytes() for path in (directory / "ckpt").iterdir()}
        metrics = json.dumps(system.metrics.to_json(), sort_keys=True)
        outputs.append(((directory / "run.jsonl").read_bytes(), checkpoints, metrics))
    assert outputs[0] == outputs[1]
    # The run exercised every layer: colluders quarantined, a checkpoint a day.
    assert any(result.excluded_users for result in results)
    assert b'"reputation.quarantine"' in outputs[0][0]
    assert len(outputs[0][1]) == 4


def _checkpoint_with_quarantine(directory, user=3):
    """A checkpoint (step 1) whose reputation tracker has ``user`` quarantined."""
    source = _system()
    source.enable_reputation()
    source.enable_checkpointing(directory)
    _run_days(source, days=1)
    state = source.reputation.state_dict()
    state["status"][user] = QUARANTINED
    source.reputation = ReputationTracker.load_state(state)
    source.checkpoint_manager.save(source, 1)
    return source.reputation.day


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "restored-only"])
def test_restored_tracker_drives_eligibility_and_scoring(tmp_path, enabled):
    restored_day = _checkpoint_with_quarantine(tmp_path)
    system = _system()
    old = None
    if enabled:
        old = system.enable_reputation()
        _run_days(system, seed=7, days=1)  # the hooks have used the old tracker
    system.enable_checkpointing(tmp_path)
    assert system.restore_latest() == 1
    assert system.reputation is not old and system.reputation.day == restored_day

    rng = np.random.default_rng(11)
    tasks = _tasks(rng)
    result = system.step(tasks, _observe(rng, rng.uniform(0.0, 20.0, len(tasks))))
    assert result.excluded_users == (3,)
    assert not result.observations.mask[3].any()
    assert result.reputation is not None and result.reputation.day == restored_day + 1
    assert system.reputation.day == restored_day + 1
    if old is not None:
        assert old.day == 1


def test_degraded_step_skips_the_after_step_point(tmp_path):
    system = _system()
    system.enable_reputation()
    system.enable_guards()
    system.enable_checkpointing(tmp_path)
    tracer = RunTracer()
    system.enable_telemetry(tracer=tracer)
    rng = np.random.default_rng(5)
    result = system.warmup(_tasks(rng), lambda pairs: [float("nan")] * len(pairs))
    assert result.degraded and result.reputation is None
    assert result.guard_report is not None and result.guard_report.ok
    assert system.completed_steps == 0 and system.reputation.day == 0
    assert not system.checkpoint_manager.checkpoints()
    assert not tracer.events("step.end")
