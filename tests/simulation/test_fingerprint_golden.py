"""Golden full-run fingerprints (seed-2017 smoke).

:meth:`SimulationResult.fingerprint` hashes a run's per-day errors, every
observation record, the MLE iteration counts and each day's truth
estimates byte-for-byte.  These tests pin the digests of one eta2 and one
eta2-mc run to committed values, so any change to the numbers a
simulation produces — not just a large one — fails here.  A change that
is meant to move the numbers must update the constants below and say why.
"""

import pytest

from repro.datasets import synthetic_dataset
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation.approaches import ETA2Approach

ETA2_FINGERPRINT = "dd100c40ca237cc35621347e30c989338008903c10f4c49a592631a2b9d72089"
ETA2_MC_FINGERPRINT = "b53fd797210739fdb7ff545521bfd6464877195e5d4df651cf4f312c3a7e39ad"


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(n_users=24, n_tasks=90, n_domains=6, seed=2017)


def run(dataset, *, seed=2017, allocator="max-quality", **kwargs):
    approach = ETA2Approach(alpha=0.5, gamma=0.3, allocator=allocator, **kwargs)
    return run_simulation(dataset, approach, SimulationConfig(n_days=3, seed=seed))


def test_eta2_fingerprint_is_golden(dataset):
    assert run(dataset).fingerprint() == ETA2_FINGERPRINT


def test_eta2_mc_fingerprint_is_golden(dataset):
    result = run(dataset, allocator="min-cost", min_cost_round_budget=60.0)
    assert result.fingerprint() == ETA2_MC_FINGERPRINT


def test_fingerprint_distinguishes_different_runs(dataset):
    assert run(dataset).fingerprint() != run(dataset, seed=2018).fingerprint()
