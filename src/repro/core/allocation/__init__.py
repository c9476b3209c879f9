"""Expertise-aware task allocation (Section 5).

- :mod:`repro.core.allocation.base` — the allocation problem instance, the
  assignment container, and the max-quality objective (Eqs. 10-14),
- :mod:`repro.core.allocation.max_quality` — the best-of-two greedy step
  (Algorithm 1's efficiency greedy plus the cardinality-greedy extra pass
  that restores the 1/2-approximation guarantee) and the max-quality
  allocator, with optional epsilon-greedy exploration,
- :mod:`repro.core.allocation.lazy_greedy` — the CELF priority-queue kernel
  the greedy runs on: an entry is re-evaluated only when its cached user
  no longer fits, with bit-identical picks to the exhaustive scan; its
  passes start from a ``GreedyState`` built once per step or per min-cost
  allocation,
- :mod:`repro.core.allocation.min_cost` — the iterative min-cost allocator
  (Algorithm 2) with the Fisher-information quality check,
- :mod:`repro.core.allocation.exact` — exhaustive and dynamic-programming
  reference solvers for small instances (tests and approximation audits),
- :mod:`repro.core.allocation.baselines` — the random first-fit (warm-up, the
  "Baseline" comparison and exploration) and the reliability-greedy
  allocator used by the Hubs-and-Authorities / Average-Log / TruthFinder
  comparisons.
"""

from repro.core.allocation.base import (
    AllocationProblem,
    Assignment,
    accuracy_probabilities,
    allocation_objective,
)
from repro.core.allocation.baselines import RandomAllocator, ReliabilityGreedyAllocator
from repro.core.allocation.exact import exhaustive_max_quality, single_user_knapsack
from repro.core.allocation.lazy_greedy import (
    GreedyOutcome,
    GreedyState,
    GreedyStats,
    lazy_greedy_allocate,
)
from repro.core.allocation.max_quality import MaxQualityAllocator, best_of_two_greedy
from repro.core.allocation.min_cost import MinCostAllocator, MinCostOutcome, MinCostRound

__all__ = [
    "AllocationProblem",
    "Assignment",
    "GreedyOutcome",
    "GreedyState",
    "GreedyStats",
    "MaxQualityAllocator",
    "MinCostAllocator",
    "MinCostOutcome",
    "MinCostRound",
    "RandomAllocator",
    "ReliabilityGreedyAllocator",
    "accuracy_probabilities",
    "allocation_objective",
    "best_of_two_greedy",
    "exhaustive_max_quality",
    "lazy_greedy_allocate",
    "single_user_knapsack",
]
