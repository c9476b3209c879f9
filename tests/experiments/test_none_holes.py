"""Dead-lettered jobs leave ``None`` holes — every aggregator must survive them.

Satellite: the supervised sweep layer returns ``None`` for jobs it had to
dead-letter.  These tests pin the whole chain: ``run_jobs``
produces the holes in job order, and the figure aggregations
(``fig4``/``fig6`` cell means, ``average_day_errors``) skip them instead
of crashing or silently averaging garbage.
"""

import math

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import average_day_errors
from repro.perf.sweep import (
    ApproachSpec,
    SimulationJob,
    group_by_tag,
    replication_jobs,
    run_jobs,
)
from repro.reliability.retry import RetryPolicy
from repro.reliability.supervisor import SupervisorConfig

TINY = ExperimentConfig(
    replications=1, n_days=1, synthetic_tasks=12, synthetic_users=8, seed=11
)


def _job(dataset_name="synthetic", tag=None, config=TINY):
    return SimulationJob(
        dataset_name=dataset_name,
        approach=ApproachSpec.eta2(),
        config=config,
        replication=0,
        tag=tag,
    )


class TestRunSimulationBatchHoles:
    def test_bare_path_raises_where_supervised_dead_letters(self):
        jobs = [_job(tag="ok-0"), _job(dataset_name="no-such-dataset", tag="bad")]
        with pytest.raises(ValueError, match="unknown dataset"):
            run_jobs(jobs, n_jobs=None)

    def test_holes_only_where_jobs_died(self):
        jobs = [_job(tag="ok-0"), _job(dataset_name="no-such-dataset", tag="bad"), _job(tag="ok-1")]
        supervisor = SupervisorConfig(retry=RetryPolicy(max_attempts=1))
        supervised = run_jobs(jobs, n_jobs=None, supervisor=supervisor)
        assert len(supervised) == 3
        assert supervised[1] is None
        assert supervised[0] is not None and supervised[2] is not None
        # Surviving results are bit-identical to the unsupervised path.
        bare = run_jobs([jobs[0], jobs[2]], n_jobs=None)
        assert supervised[0].mean_estimation_error == bare[0].mean_estimation_error
        assert supervised[2].mean_estimation_error == bare[1].mean_estimation_error

    def test_group_by_tag_keeps_holes_aligned(self):
        jobs = [_job(tag="a"), _job(dataset_name="no-such-dataset", tag="a"), _job(tag="b")]
        results = ["r0", None, "r2"]
        grouped = group_by_tag(jobs, results)
        assert grouped == {"a": ["r0", None], "b": ["r2"]}


class TestAggregatorsWithHoles:
    def test_average_day_errors_skips_none(self):
        jobs = replication_jobs("synthetic", ApproachSpec.eta2(), TINY)
        [result] = run_jobs(jobs, n_jobs=None)
        with_holes = average_day_errors([None, result, None])
        assert np.allclose(with_holes, average_day_errors([result]), equal_nan=True)

    def test_average_day_errors_all_none_raises(self):
        with pytest.raises(ValueError):
            average_day_errors([None, None])

    def test_fig_cell_mean_with_holes(self, monkeypatch):
        """fig4/fig6 grid cells: holes are skipped; all-hole cells go NaN."""
        import repro.experiments.figures as figures

        real_run_jobs = figures.run_jobs

        def holey_run_jobs(job_list, n_jobs=None, supervisor=None):
            results = real_run_jobs(job_list, n_jobs=n_jobs)
            # Dead-letter every cell tagged (0, 0) — the first grid point
            # loses all replications; every other cell keeps its results.
            return [None if job.tag == (0, 0) else r for job, r in zip(job_list, results)]

        monkeypatch.setattr(figures, "run_jobs", holey_run_jobs)
        result = figures.fig4_parameter_sweep(
            "synthetic", config=TINY, alphas=(0.3, 0.7), gammas=(0.5,)
        )
        assert math.isnan(result.errors[0, 0])  # the dead cell
        assert np.isfinite(result.errors[1, 0])  # survivors still averaged
