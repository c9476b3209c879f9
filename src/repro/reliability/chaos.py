"""``ChaosWorld``: fault-injecting wrapper around the simulation world.

Drops between the engine and a :class:`~repro.simulation.world.World`:
observation sampling still comes from the hidden ground truth, but the
*delivery* of those observations now fails per a :class:`FaultProfile` —
calls raise, stall on the virtual clock, or return corrupted payloads.
Everything else (truth values, drift, capacities, adversaries) delegates to
the wrapped world untouched, so any code written against ``World`` runs
against ``ChaosWorld`` unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.reliability.faults import FaultInjector, FaultProfile, VirtualClock

__all__ = ["ChaosWorld"]


class ChaosWorld:
    """A :class:`World` whose ``observe`` path fails like a real deployment."""

    def __init__(
        self,
        world,
        profile: FaultProfile,
        seed=None,
        clock: "VirtualClock | None" = None,
    ):
        self._world = world
        self.injector = FaultInjector(profile, seed=seed, clock=clock)

    @property
    def wrapped(self):
        """The underlying fault-free world."""
        return self._world

    @property
    def fault_counts(self) -> dict:
        return dict(self.injector.counts)

    def observe_pairs(self, pairs) -> np.ndarray:
        self.injector.before_call()
        return self.injector.corrupt(self._world.observe_pairs(pairs))

    def observe(self, user: int, task: int) -> float:
        return self.observe_pairs([(user, task)])[0]

    def __getattr__(self, name: str):
        # Everything not overridden (true_values, advance_day, drift, ...)
        # behaves exactly like the fault-free world.
        return getattr(self._world, name)
