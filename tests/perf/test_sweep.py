"""Determinism and plumbing of the parallel sweep runner."""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import fig4_parameter_sweep
from repro.experiments.runner import replicate
from repro.perf.sweep import (
    ApproachSpec,
    SimulationJob,
    group_by_tag,
    replication_jobs,
    run_jobs,
)
from repro.simulation.approaches import ETA2Approach, MeanApproach, ReliabilityApproach


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(replications=2, n_days=3, seed=123)


def test_approach_spec_builds_fresh_instances():
    spec = ApproachSpec.eta2(gamma=0.4, alpha=0.6)
    a, b = spec(), spec()
    assert isinstance(a, ETA2Approach) and isinstance(b, ETA2Approach)
    assert a is not b
    assert a._settings["gamma"] == 0.4 and a._settings["alpha"] == 0.6
    assert isinstance(ApproachSpec(kind="mean")(), MeanApproach)
    assert isinstance(ApproachSpec(kind="truthfinder")(), ReliabilityApproach)


def test_approach_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown approach kind"):
        ApproachSpec(kind="oracle")


def test_replication_out_of_range(tiny_config):
    spec = ApproachSpec(kind="mean")
    with pytest.raises(ValueError, match="replication"):
        SimulationJob("synthetic", spec, tiny_config, replication=2)


def test_parallel_identical_to_serial(tiny_config):
    """The acceptance criterion: same seeds, --jobs N, identical errors."""
    spec = ApproachSpec.eta2(gamma=0.5, alpha=0.5)
    jobs = replication_jobs("synthetic", spec, tiny_config)
    serial = run_jobs(jobs, n_jobs=None)
    parallel = run_jobs(jobs, n_jobs=2)
    for a, b in zip(serial, parallel):
        np.testing.assert_array_equal(a.errors_by_day(), b.errors_by_day())
        np.testing.assert_array_equal(a.observation_errors, b.observation_errors)
        assert a.total_cost == b.total_cost


def test_group_by_tag_preserves_job_order(tiny_config):
    jobs = replication_jobs("synthetic", ApproachSpec(kind="mean"), tiny_config, tag="x")
    jobs += replication_jobs("synthetic", ApproachSpec(kind="mean"), tiny_config, tag="y")
    results = list(range(len(jobs)))
    grouped = group_by_tag(jobs, results)
    assert grouped == {"x": [0, 1], "y": [2, 3]}
    with pytest.raises(ValueError, match="align"):
        group_by_tag(jobs, results[:-1])


def test_replicate_rejects_parallel_factories(tiny_config):
    with pytest.raises(TypeError, match="ApproachSpec"):
        replicate("synthetic", lambda: MeanApproach(), tiny_config, jobs=2)


@dataclass(frozen=True)
class _InterruptingJob:
    """Raises KeyboardInterrupt inside a worker (picklable, module-level)."""

    value: int

    def run(self):
        if self.value == 0:
            raise KeyboardInterrupt("operator hit ^C inside a worker")
        time.sleep(0.05)
        return self.value


@pytest.mark.timeout(60)
def test_run_jobs_interrupt_cancels_queued_work():
    """A mid-map interrupt re-raises promptly instead of orphaning workers.

    Before the fix, queued jobs kept running in child processes after the
    parent unwound; with cancel_futures the pool drains within the test
    timeout and the original exception propagates.
    """
    jobs = [_InterruptingJob(v) for v in range(20)]
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_jobs(jobs, n_jobs=2)
    # 20 jobs x 0.05s serially would be ~1s; cancellation must beat the
    # full queue by a wide margin (the bound is loose for slow CI).
    assert time.monotonic() - start < 30.0


def test_run_jobs_supervised_matches_bare(tiny_config):
    from repro.reliability.supervisor import SupervisorConfig

    jobs = replication_jobs("synthetic", ApproachSpec(kind="mean"), tiny_config)
    bare = run_jobs(jobs)
    supervised = run_jobs(jobs, supervisor=SupervisorConfig())
    for a, b in zip(bare, supervised):
        np.testing.assert_array_equal(a.errors_by_day(), b.errors_by_day())
        assert a.total_cost == b.total_cost


def test_fig4_parallel_identical_to_serial():
    config = ExperimentConfig(replications=1, n_days=2, seed=9)
    serial = fig4_parameter_sweep("synthetic", config, alphas=(0.3, 0.7), gammas=(0.5,))
    parallel = fig4_parameter_sweep(
        "synthetic", config, alphas=(0.3, 0.7), gammas=(0.5,), jobs=2
    )
    np.testing.assert_array_equal(serial.errors, parallel.errors)
