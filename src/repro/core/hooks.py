"""The step-hook protocol of :class:`~repro.core.pipeline.ETA2System`.

Each optional layer plugs into the loop as one :class:`StepHook` owned by
its package; this module imports nothing else, so they subclass it freely.
"""

from __future__ import annotations

__all__ = ["LAYERS", "StepHook"]

#: The layers whose hooks a system runs, in the order they run at every
#: point, whatever order they were enabled in.
LAYERS = ("reputation", "guards", "telemetry", "checkpoint")


class StepHook:
    """One optional layer's points in the step sequence.

    Each point defaults to a pass-through.  Hooks read their layer's
    objects from ``system`` (the calling ``ETA2System``) at call time, so
    a restore that replaces one takes effect at once.
    """

    def eligible(self, system, eligible):
        """Narrow the allocation eligibility mask (None: every user)."""
        return eligible

    def check_partition(self, system, domains, new_domains, report):
        """Check identify's labels; returns the step's guard report so far."""
        return report

    def repair(self, system, truths, sigmas, expertise, observations, report):
        """Check or repair one §4 analysis (on warm-up, before seeding)."""
        return truths, sigmas, expertise, report

    def after_step(self, system, result, kind: str):
        """Record a counted step; returns its result (degraded steps skip this)."""
        return result
