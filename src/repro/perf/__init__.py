"""Performance layer: hot-kernel plumbing, parallel sweeps, benchmarks.

The sub-modules are deliberately dependency-light so the core packages can
import them without cycles:

- :mod:`repro.perf.timers` — lightweight phase timers recorded on
  :class:`~repro.core.pipeline.StepResult` (``identify/allocate/collect/
  truth``),
- :mod:`repro.perf.sweep` — a deterministic ``ProcessPoolExecutor`` sweep
  runner fanning ``run_simulation`` configurations across cores,
- :mod:`repro.perf.baseline` — the benchmark-regression harness that
  writes and compares ``BENCH_core.json`` (average-linkage construction,
  the sparse MLE and the lazy-greedy allocation kernels),
- :mod:`repro.perf.reference` — frozen copies of the pre-optimisation
  kernels (including the eager Algorithm 1 greedy), kept as the
  equivalence and speedup yardstick.
"""

from repro.perf.timers import PHASES, PhaseTimer

__all__ = [
    "PHASES",
    "PhaseTimer",
]
