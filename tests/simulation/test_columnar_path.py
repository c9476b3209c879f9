"""The simulation path builds no per-task or per-user objects.

Datasets keep their tasks as a :class:`TaskTable` and their users as an
expertise matrix and a capacity vector; the engine hands each day's rows
to the approach, and ``ETA2System`` takes them as a ``TaskBatch``.  With
:class:`TaskSpec`, :class:`UserSpec` and :class:`IncomingTask`
construction made to fail, a synthetic dataset must still build and 2-day
eta2 and eta2-mc runs must reproduce their committed fingerprints (the
numbers the earlier row-record path produced).
"""

import pytest

from repro.core.pipeline import IncomingTask
from repro.datasets import synthetic_dataset
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation.approaches import ETA2Approach
from repro.simulation.entities import TaskSpec, UserSpec

ETA2_2DAY_FINGERPRINT = "7c195690ef9c238f45f839bba01d3e17b85fe17e27c3e192923aea958a958a98"
ETA2_MC_2DAY_FINGERPRINT = "7e42c7086462fbd5793e20fc65acf03835916452ad0d61360266cf5334aefa97"


def _refuse(record, *args, **kwargs):
    raise AssertionError(f"{type(record).__name__} built on the simulation path")


@pytest.mark.parametrize(
    "approach, expected",
    [
        ({}, ETA2_2DAY_FINGERPRINT),
        ({"allocator": "min-cost", "min_cost_round_budget": 60.0}, ETA2_MC_2DAY_FINGERPRINT),
    ],
    ids=["eta2", "eta2-mc"],
)
def test_simulation_builds_no_row_records(monkeypatch, approach, expected):
    for record in (TaskSpec, UserSpec, IncomingTask):
        monkeypatch.setattr(record, "__post_init__", _refuse)
    dataset = synthetic_dataset(n_users=24, n_tasks=90, n_domains=6, seed=2017)
    with pytest.raises(AssertionError, match="TaskSpec built"):
        dataset.tasks[0]
    with pytest.raises(AssertionError, match="UserSpec built"):
        dataset.user(0)
    result = run_simulation(
        dataset,
        ETA2Approach(alpha=0.5, gamma=0.3, **approach),
        SimulationConfig(n_days=2, seed=2017),
    )
    assert result.fingerprint() == expected
