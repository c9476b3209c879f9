"""The simulation path builds no per-task or per-user objects.

Datasets keep their tasks as a :class:`TaskTable` and their users as an
expertise matrix and a capacity vector; the engine hands each day's rows
to the approach, and ``ETA2System`` takes them as a ``TaskBatch``.  With
:class:`TaskSpec`, :class:`UserSpec` and :class:`IncomingTask`
construction made to fail, a synthetic dataset must still build and 2-day
eta2 and eta2-mc runs must reproduce their committed fingerprints (the
numbers the earlier row-record path produced).

Pair sets travel in one form: an ``(n, 2)`` intp array of ``(user, task)``
rows.  The same runs check that every ``observe`` call the approach makes
and every ``World.observe_pairs`` call the engine makes gets such an
array, C-contiguous, and that every Algorithm 2 round records its pairs
as a read-only one.
"""

import numpy as np
import pytest

from repro.core.allocation.min_cost import MinCostAllocator
from repro.core.pipeline import IncomingTask
from repro.datasets import synthetic_dataset
from repro.simulation import SimulationConfig, run_simulation
from repro.simulation.approaches import ETA2Approach
from repro.simulation.entities import TaskSpec, UserSpec
from repro.simulation.world import World

ETA2_2DAY_FINGERPRINT = "7c195690ef9c238f45f839bba01d3e17b85fe17e27c3e192923aea958a958a98"
ETA2_MC_2DAY_FINGERPRINT = "7e42c7086462fbd5793e20fc65acf03835916452ad0d61360266cf5334aefa97"

APPROACHES = pytest.mark.parametrize(
    "approach, expected",
    [
        ({}, ETA2_2DAY_FINGERPRINT),
        ({"allocator": "min-cost", "min_cost_round_budget": 60.0}, ETA2_MC_2DAY_FINGERPRINT),
    ],
    ids=["eta2", "eta2-mc"],
)


def _dataset():
    return synthetic_dataset(n_users=24, n_tasks=90, n_domains=6, seed=2017)


def _run(dataset, approach):
    return run_simulation(
        dataset,
        ETA2Approach(alpha=0.5, gamma=0.3, **approach),
        SimulationConfig(n_days=2, seed=2017),
    )


def _refuse(record, *args, **kwargs):
    raise AssertionError(f"{type(record).__name__} built on the simulation path")


@APPROACHES
def test_simulation_builds_no_row_records(monkeypatch, approach, expected):
    for record in (TaskSpec, UserSpec, IncomingTask):
        monkeypatch.setattr(record, "__post_init__", _refuse)
    dataset = _dataset()
    with pytest.raises(AssertionError, match="TaskSpec built"):
        dataset.tasks[0]
    with pytest.raises(AssertionError, match="UserSpec built"):
        dataset.user(0)
    assert _run(dataset, approach).fingerprint() == expected


def _assert_pair_array(pairs):
    assert type(pairs) is np.ndarray
    assert pairs.dtype == np.intp
    assert pairs.ndim == 2 and pairs.shape[1] == 2
    assert pairs.flags.c_contiguous


@APPROACHES
def test_every_pair_set_is_one_index_array(monkeypatch, approach, expected):
    seen = {"observe": 0, "observe_pairs": 0, "rounds": 0}
    observe_pairs, run_day, run = World.observe_pairs, ETA2Approach.run_day, MinCostAllocator.run

    def checked_observe_pairs(self, pairs):
        _assert_pair_array(pairs)
        seen["observe_pairs"] += 1
        return observe_pairs(self, pairs)

    def checked_run_day(self, day, tasks, observe):
        def checked_observe(pairs):
            _assert_pair_array(pairs)
            seen["observe"] += 1
            return observe(pairs)

        return run_day(self, day, tasks, checked_observe)

    def checked_run(self, problem, observe, estimate=None):
        outcome = run(self, problem, observe, estimate)
        for round_ in outcome.rounds:
            _assert_pair_array(round_.added_pairs)
            assert not round_.added_pairs.flags.writeable
            seen["rounds"] += 1
        return outcome

    monkeypatch.setattr(World, "observe_pairs", checked_observe_pairs)
    monkeypatch.setattr(ETA2Approach, "run_day", checked_run_day)
    monkeypatch.setattr(MinCostAllocator, "run", checked_run)
    assert _run(_dataset(), approach).fingerprint() == expected
    assert seen["observe"] == seen["observe_pairs"] > 0
    assert (seen["rounds"] > 0) == ("allocator" in approach)
