"""Simulation substrate: the crowdsourcing server/user world of Section 2.1.

The paper's system is a server that creates tasks each time step (day),
allocates them to mobile users with limited daily processing capability,
collects noisy observations, and runs truth analysis.  This package
implements that world so every evaluation experiment can run end to end:

- :mod:`repro.simulation.entities` — the task table and the row records,
- :mod:`repro.simulation.world` — ground truth and observation sampling
  (normal observation model, with the Fig. 8 uniform-bias injection),
- :mod:`repro.simulation.approaches` — the five approaches under comparison
  (ETA2, ETA2-mc, three reliability-based methods, and the mean baseline)
  behind one day-loop interface,
- :mod:`repro.simulation.engine` — the multi-day driver with warm-up,
- :mod:`repro.simulation.metrics` — normalised estimation error, expertise
  error and cost accounting.
"""

from repro.simulation.engine import DayRecord, SimulationConfig, SimulationResult, run_simulation
from repro.simulation.entities import TaskSpec, TaskTable, UserSpec
from repro.simulation.metrics import (
    expertise_estimation_error,
    match_domains,
    normalized_estimation_error,
)
from repro.simulation.world import World

__all__ = [
    "DayRecord",
    "SimulationConfig",
    "SimulationResult",
    "TaskSpec",
    "TaskTable",
    "UserSpec",
    "World",
    "expertise_estimation_error",
    "match_domains",
    "normalized_estimation_error",
    "run_simulation",
]
