"""``TaskBatch``: the columnar form every ``ETA2System`` entry point takes.

A sequence of :class:`IncomingTask` records (the serving tier's form) is
converted once at entry, so a step fed the records must equal a step fed
the same columns.
"""

import numpy as np
import pytest

from repro.core.pipeline import ETA2System, IncomingTask, TaskBatch
from repro.core.serialization import state_fingerprint

TIMES = [0.7, 1.2, 0.9, 1.4]
COSTS = [1.0, 2.0, 0.5, 1.0]
DOMAINS = [2, 0, 1, 2]
DESCRIPTIONS = (
    "What is the noise level at the library?",
    "What is the bus fare at the station?",
    "What is the parking fee near the stadium?",
    "How much is the coffee price at the cafeteria?",
)


def _columns(batch: TaskBatch) -> tuple:
    domains = None if batch.domains is None else batch.domains.tolist()
    return batch.processing_times.tolist(), batch.costs.tolist(), domains, batch.descriptions


def test_batch_from_records_equals_batch_from_columns():
    records = [IncomingTask(t, c, domain=d) for t, c, d in zip(TIMES, COSTS, DOMAINS)]
    batch = TaskBatch.of(records)
    assert _columns(batch) == _columns(TaskBatch(np.array(TIMES), np.array(COSTS), domains=DOMAINS))
    assert batch.domains.dtype == np.array(DOMAINS, dtype=int).dtype
    text = [IncomingTask(t, c, description=s) for t, c, s in zip(TIMES, COSTS, DESCRIPTIONS)]
    assert _columns(TaskBatch.of(text)) == _columns(
        TaskBatch(TIMES, COSTS, descriptions=list(DESCRIPTIONS))
    )
    assert TaskBatch.of(batch) is batch


def test_batch_checks_its_columns():
    with pytest.raises(ValueError, match="all-text or all-preknown-domain"):
        TaskBatch.of([IncomingTask(1.0, domain=0), IncomingTask(1.0, description="a?")])
    with pytest.raises(ValueError, match="exactly one"):
        TaskBatch(TIMES, COSTS)
    with pytest.raises(ValueError, match="exactly one"):
        TaskBatch(TIMES, COSTS, domains=DOMAINS, descriptions=DESCRIPTIONS)
    with pytest.raises(ValueError, match="one entry per task"):
        TaskBatch(TIMES[:3], COSTS, domains=DOMAINS)
    with pytest.raises(ValueError, match="processing_time must be positive"):
        TaskBatch([0.0] + TIMES[1:], COSTS, domains=DOMAINS)
    with pytest.raises(ValueError, match="cost must be non-negative"):
        TaskBatch(TIMES, [-1.0] + COSTS[1:], domains=DOMAINS)
    batch = TaskBatch(TIMES, COSTS, domains=DOMAINS)
    with pytest.raises(ValueError):
        batch.domains[0] = 1


def _system():
    return ETA2System(n_users=6, capacities=np.full(6, 3.0), gamma=0.3, alpha=0.5, seed=4)


@pytest.mark.parametrize("entry", ["live", "served"])
def test_records_and_columns_drive_identical_steps(entry):
    records = [IncomingTask(t, c, domain=d) for t, c, d in zip(TIMES, COSTS, DOMAINS)]
    batch = TaskBatch(TIMES, COSTS, domains=DOMAINS)
    states = []
    for tasks in (records, batch):
        system = _system()
        rng = np.random.default_rng(9)

        def observe(pairs):
            return [10.0 + task + rng.standard_normal() / (1 + user) for user, task in pairs]

        for day in range(3):
            if entry == "served":
                reports = [(u, j, 10.0 + j + 0.1 * u * day) for u in range(6) for j in range(4)]
                system.step_from_batch(tasks, reports)
            elif day == 0:
                system.warmup(tasks, observe)
            else:
                system.step(tasks, observe)
        states.append(state_fingerprint(system))
    assert states[0] == states[1]
