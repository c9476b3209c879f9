"""Golden full-run fingerprints (seed-2017 smoke).

:meth:`SimulationResult.fingerprint` hashes a run's per-day errors, every
observation record, the MLE iteration counts and each day's truth
estimates byte-for-byte.  These tests pin the digests of eta2 and eta2-mc
runs — on synthetic data with known domains and on the survey and SFV
datasets, whose tasks go through text clustering — and of the mean and
TruthFinder baselines on the synthetic data to committed values, so any
change to the numbers a simulation produces — not just a large one —
fails here.  A served run (``ETA2System.step_from_batch`` from cold to
warm) is pinned by its learned-state fingerprint, and a fault-injected
eta2-mc run (exceptions that force retries and per-pair salvage, NaN and
outlier payloads, dropouts) pins the chaos, resilient-observer and
sanitizer path together with its counters.  A change that is meant
to move the numbers must update the constants below and say why.
"""

import numpy as np
import pytest

from repro.core.pipeline import ETA2System, IncomingTask
from repro.core.serialization import state_fingerprint
from repro.datasets import sfv_dataset, survey_dataset, synthetic_dataset
from repro.reliability.faults import FaultProfile
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation.approaches import ETA2Approach, MeanApproach, ReliabilityApproach
from repro.truthdiscovery import TruthFinder

ETA2_FINGERPRINT = "dd100c40ca237cc35621347e30c989338008903c10f4c49a592631a2b9d72089"
ETA2_MC_FINGERPRINT = "b53fd797210739fdb7ff545521bfd6464877195e5d4df651cf4f312c3a7e39ad"
SURVEY_ETA2_FINGERPRINT = "0d20c69f1c6932236c8634978519e93199a93722652e67da73b0050a4dd21664"
SURVEY_ETA2_MC_FINGERPRINT = "9d6ea00c96c45406baee6c392f404fe143aef1f4672ee5ce4f34090d194dc406"
SFV_ETA2_FINGERPRINT = "a79446f93fc45303a6bcd7004e0e115b8570eb06de6eb624d88d20f2fb94e2a7"
SERVED_STATE_FINGERPRINT = "00c930632eea88b5daa7dcf7c5912c0eb29bf1669dfc48a10ac8632e24c283a7"
MEAN_FINGERPRINT = "88e389db1957b4a5c0c398dbc922069998d78fcd91153d5262d752750287ffc1"
TRUTHFINDER_FINGERPRINT = "b3bcd26a21a186278f5ff16788af7045451dc3e9d0c7aa196ff0eaff2a9bdea1"
FAULTY_ETA2_MC_FINGERPRINT = "94bc18f76585ff314521da7a9b96f9a0a80d973fad2cd93e65d0f7d1bb41306d"


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(n_users=24, n_tasks=90, n_domains=6, seed=2017)


def run(dataset, *, seed=2017, allocator="max-quality", **kwargs):
    approach = ETA2Approach(alpha=0.5, gamma=0.3, allocator=allocator, **kwargs)
    config = SimulationConfig(n_days=3, seed=seed)
    return run_simulation(dataset, approach, config)


def test_eta2_fingerprint_is_golden(dataset):
    assert run(dataset).fingerprint() == ETA2_FINGERPRINT


def test_eta2_mc_fingerprint_is_golden(dataset):
    result = run(dataset, allocator="min-cost", min_cost_round_budget=60.0)
    assert result.fingerprint() == ETA2_MC_FINGERPRINT


@pytest.mark.parametrize(
    "allocator, expected",
    [
        ("max-quality", SURVEY_ETA2_FINGERPRINT),
        ("min-cost", SURVEY_ETA2_MC_FINGERPRINT),
    ],
    ids=["eta2", "eta2-mc"],
)
def test_survey_fingerprint_is_golden(allocator, expected):
    result = run(survey_dataset(seed=2017), allocator=allocator, guards="warn", reputation=True)
    assert result.fingerprint() == expected


def test_sfv_fingerprint_is_golden():
    result = run(sfv_dataset(seed=2017), guards="warn", reputation=True)
    assert result.fingerprint() == SFV_ETA2_FINGERPRINT


@pytest.mark.parametrize(
    "make, expected",
    [
        (MeanApproach, MEAN_FINGERPRINT),
        (lambda: ReliabilityApproach(TruthFinder()), TRUTHFINDER_FINGERPRINT),
    ],
    ids=["mean", "truthfinder"],
)
def test_baseline_fingerprint_is_golden(dataset, make, expected):
    result = run_simulation(dataset, make(), SimulationConfig(n_days=3, seed=2017))
    assert result.fingerprint() == expected


def test_faulty_eta2_mc_fingerprint_is_golden(dataset):
    """Seven in ten transport calls raise, so batches exhaust their retries
    and fall back to per-pair salvage; NaN and outlier payloads reach the
    sanitizer, and one in ten delivered pairs drops out."""
    faults = FaultProfile(exception_rate=0.7, nan_rate=0.05, outlier_rate=0.03)
    approach = ETA2Approach(alpha=0.5, gamma=0.3, allocator="min-cost", min_cost_round_budget=60.0)
    config = SimulationConfig(n_days=3, seed=2017, faults=faults, dropout_rate=0.1)
    result = run_simulation(dataset, approach, config)
    assert result.fingerprint() == FAULTY_ETA2_MC_FINGERPRINT
    assert result.observer_report.as_dict() == {
        "calls": 12,
        "retries": 16,
        "exceptions": 186,
        "timeouts": 0,
        "malformed": 0,
        "short_circuits": 0,
        "salvage_calls": 233,
        "salvaged_pairs": 68,
        "failed_pairs": 165,
        "delivered_pairs": 648,
    }
    assert result.fault_counts == {
        "exceptions": 186,
        "timeouts": 0,
        "latency": 0,
        "drops": 0,
        "nan_payloads": 43,
        "outliers": 24,
    }
    assert result.sanitize_report.as_dict() == {
        "pairs": 881,
        "nan_payloads": 285,
        "inf_payloads": 0,
        "out_of_bounds": 0,
        "outliers": 33,
        "accepted": 563,
    }


def test_served_state_fingerprint_is_golden():
    """Four days of partial reports replayed cold-to-warm through the
    serving entry point, with repairing guards and reputation on."""
    system = ETA2System(n_users=8, capacities=np.full(8, 10.0), seed=3)
    system.enable_guards("repair")
    system.enable_reputation()
    tasks = [IncomingTask(processing_time=1.0, cost=1.0, domain=i % 3) for i in range(6)]
    rng = np.random.default_rng(2017)
    for _ in range(4):
        reports = [
            (user, task, float(10.0 + task + rng.normal()))
            for task in range(len(tasks))
            for user in range(system.n_users)
            if rng.random() < 0.6
        ]
        system.step_from_batch(tasks, reports)
    assert state_fingerprint(system) == SERVED_STATE_FINGERPRINT


def test_fingerprint_distinguishes_different_runs(dataset):
    assert run(dataset).fingerprint() != run(dataset, seed=2018).fingerprint()
