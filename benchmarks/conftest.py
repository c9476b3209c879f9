"""Shared configuration for the table/figure benchmarks.

Each benchmark is a plain pytest test that regenerates one paper table or
figure at a reduced scale (fewer replications and smaller datasets than the
paper's 100-run setting — see ``ExperimentConfig.paper_scale()`` for the
full-size knobs), prints the same rows/series the paper reports, and asserts
the qualitative *shape*: who wins, which way curves move, where crossovers
sit.  Timing lives elsewhere: ``test_overhead.py`` gates the robustness
layers' fault-free overhead, ``bench/run.py`` times the end-to-end
workloads, and ``python -m repro.perf.baseline`` times the kernels.
"""

import pytest

from repro.experiments.config import ExperimentConfig


@pytest.fixture(scope="session")
def quick_config() -> ExperimentConfig:
    """Benchmark-scale experiment configuration."""
    return ExperimentConfig(
        replications=3,
        survey_tasks=150,
        sfv_tasks=180,
        synthetic_tasks=300,
        synthetic_users=50,
        seed=2017,
    )

