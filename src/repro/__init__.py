"""ETA2: Expertise-Aware Truth Analysis and Task Allocation (ICDCS 2017).

Reproduction of Zhang, Wu, Huang, Ji & Cao's mobile-crowdsourcing system.
The most common entry points are re-exported here:

- :class:`ETA2System` / :class:`TaskBatch` / :class:`IncomingTask` — the
  closed loop of Figure 1 and its task inputs (columns, or one record each),
- :func:`estimate_truth` — the Section 4 batch MLE,
- :class:`MaxQualityAllocator` / :class:`MinCostAllocator` — Section 5,
- the three dataset generators and the simulation driver used by the
  evaluation experiments.

See the per-package documentation (``repro.semantics``, ``repro.clustering``,
``repro.core``, ``repro.truthdiscovery``, ``repro.simulation``,
``repro.datasets``, ``repro.stats``, ``repro.experiments``) for the full map,
and DESIGN.md for the paper-to-module inventory.
"""

from repro.core.allocation import MaxQualityAllocator, MinCostAllocator
from repro.core.pipeline import ETA2System, IncomingTask, StepResult, TaskBatch, default_embedding
from repro.core.truth import TruthAnalysisResult, estimate_truth
from repro.core.update import ExpertiseUpdater
from repro.datasets import sfv_dataset, survey_dataset, synthetic_dataset
from repro.observability import MetricsRegistry, RunTracer, Telemetry, run_manifest
from repro.simulation import SimulationConfig, run_simulation
from repro.truthdiscovery import ObservationMatrix

__version__ = "1.0.0"

__all__ = [
    "ETA2System",
    "ExpertiseUpdater",
    "IncomingTask",
    "MaxQualityAllocator",
    "MetricsRegistry",
    "MinCostAllocator",
    "ObservationMatrix",
    "RunTracer",
    "SimulationConfig",
    "StepResult",
    "TaskBatch",
    "Telemetry",
    "TruthAnalysisResult",
    "default_embedding",
    "estimate_truth",
    "run_manifest",
    "run_simulation",
    "sfv_dataset",
    "survey_dataset",
    "synthetic_dataset",
    "__version__",
]
