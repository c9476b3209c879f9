"""Replication pins: every experiment's seed derivation goes through ``SimulationJob``.

Each pin is a SHA-256 over the per-replication
``SimulationResult.fingerprint()``s of one experiment cell at a tiny
configuration.  The digests were recorded before the experiments shared one
replication path (when ``replicate``, the adversarial sweep and the dropout
benchmark each derived their own seeds), so they also prove that moving those
callers onto ``SimulationJob`` changed no number.
"""

import hashlib

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.reputation import reputation_defense
from repro.experiments.runner import replicate
from repro.perf.sweep import ApproachSpec, SimulationJob, replication_jobs, run_jobs
from repro.simulation.approaches import ETA2Approach

TINY = ExperimentConfig(
    replications=2, n_days=3, synthetic_tasks=60, synthetic_users=20, seed=7
)
BEST = TINY.best_parameters("synthetic")
ETA2 = ApproachSpec.eta2(gamma=BEST["gamma"], alpha=BEST["alpha"])
ATTACK = {"adversary_fraction": 0.2, "adversary_kind": "colluding"}

PLAIN = "38d2fc88336923e20a99e39f632d6631d86f10db8dbef0aa09d9866dc79154b2"
BIAS_04 = "8d07da7ac3a69226965ba52e549846b04f1ab771f591f2ec0196ca907d1baa1f"
MIN_COST_30 = "76068d72b2de922ba417710010db474b336a3624913638d0b8c32403a01b1615"
ADVERSARIAL_ETA2 = "6b768cc5ce9c73915a394c7136ba3729c093f9bab26d4c642cfbf06aeff58b2d"
ADVERSARIAL_MEAN = "924ab32a5ae63992f7e0d8b9d4124703bc264bd80efb41609a9a49fde8ee3b1a"
DROPOUT_025 = "6ff0d9eef0b2bb180c3a04af2ebf5fd2f1334384a36b5e1030ebc2cd12851c6e"


def _digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(result.fingerprint().encode())
    return digest.hexdigest()


def _run(approach, scenario=()):
    return _digest(run_jobs(replication_jobs("synthetic", approach, TINY, scenario=scenario)))


def test_plain_replicate_pin():
    assert _digest(replicate("synthetic", ETA2, TINY)) == PLAIN
    # A factory callable takes the same path as the picklable spec.
    factory = lambda: ETA2Approach(gamma=BEST["gamma"], alpha=BEST["alpha"])  # noqa: E731
    assert _digest(replicate("synthetic", factory, TINY)) == PLAIN


def test_bias_replicate_pin():
    """Fig. 8's cell: ``bias_fraction`` is a scenario key."""
    assert _digest(replicate("synthetic", ETA2, TINY, bias_fraction=0.4)) == BIAS_04
    assert _run(ETA2, {"bias_fraction": 0.4}) == BIAS_04


def test_min_cost_pin():
    """Figs. 9-10's ETA2-mc cell at round budget 30."""
    spec = ApproachSpec.eta2(
        gamma=BEST["gamma"],
        alpha=BEST["alpha"],
        allocator="min-cost",
        min_cost_round_budget=30.0,
        min_cost_error_limit=0.5,
        min_cost_confidence=0.95,
    )
    assert _run(spec) == MIN_COST_30


def test_adversarial_pins():
    assert _run(ETA2, ATTACK) == ADVERSARIAL_ETA2
    assert _run(ApproachSpec(kind="mean"), ATTACK) == ADVERSARIAL_MEAN


def test_dropout_pin():
    assert _run(ApproachSpec.eta2(), {"dropout_rate": 0.25}) == DROPOUT_025


def _triple_runs(monkeypatch, config) -> dict:
    """Run ``reputation_defense`` and collect its runs by leg (the job tag)."""
    runs: dict = {}
    real_run = SimulationJob.run

    def recording_run(job):
        result = real_run(job)
        runs.setdefault(job.tag, []).append(result)
        return result

    monkeypatch.setattr(SimulationJob, "run", recording_run)
    reputation_defense(config, kind="colluding", fraction=0.2)
    return runs


def test_reputation_triple_shares_one_replication(monkeypatch):
    """The three legs of a replication differ only in attack and defense."""
    config = ExperimentConfig(
        replications=1, n_days=3, synthetic_tasks=60, synthetic_users=20, seed=7
    )
    runs = _triple_runs(monkeypatch, config)
    [clean], [unprotected], [protected] = runs["clean"], runs["unprotected"], runs["protected"]
    for days in zip(clean.days, unprotected.days, protected.days):
        assert days[0].task_indices.tolist() == days[1].task_indices.tolist()
        assert days[0].task_indices.tolist() == days[2].task_indices.tolist()
    assert unprotected.adversary_users
    assert unprotected.adversary_users == protected.adversary_users


def test_reputation_triple_reuses_the_pinned_runs(monkeypatch):
    """The clean and unprotected legs are the plain and adversarial cells."""
    runs = _triple_runs(monkeypatch, TINY)
    assert _digest(runs["clean"]) == PLAIN
    assert _digest(runs["unprotected"]) == ADVERSARIAL_ETA2


@pytest.mark.parametrize("name", ["n_days", "seed"])
def test_scenario_rejects_derived_fields(name):
    with pytest.raises(ValueError, match="scenario"):
        SimulationJob("synthetic", ETA2, TINY, replication=0, scenario={name: 1})


def test_scenario_rejects_unknown_fields():
    with pytest.raises(ValueError, match="scenario"):
        SimulationJob("synthetic", ETA2, TINY, replication=0, scenario={"no_such_field": 1})


def test_scenario_is_sorted_pairs():
    job = SimulationJob(
        "synthetic", ETA2, TINY, replication=0, scenario={"dropout_rate": 0.1, "bias_fraction": 0.2}
    )
    assert job.scenario == (("bias_fraction", 0.2), ("dropout_rate", 0.1))
