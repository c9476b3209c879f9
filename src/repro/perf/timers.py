"""Lightweight phase timers for the ETA² closed loop.

One :class:`PhaseTimer` instance lives for one warm-up or daily step and
accumulates wall-clock seconds per named phase (``identify``, ``allocate``,
``collect``, ``truth``).  The timer is pure bookkeeping — a few
``perf_counter`` calls per step — so it stays on in production; the recorded
dict ends up on :class:`~repro.core.pipeline.StepResult` and, through the
simulation engine, on every :class:`~repro.simulation.engine.DayRecord`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable

__all__ = ["PHASES", "PhaseTimer"]

#: The canonical step phases, in pipeline order.
PHASES = ("identify", "allocate", "collect", "truth")


class PhaseTimer:
    """Accumulates wall-clock seconds per named phase.

    A phase may be entered several times (e.g. ``collect`` once per min-cost
    recruiting round); durations add up.  Phases are expected to be disjoint
    in time — callers that time an enclosing span must subtract the nested
    phases themselves (see :meth:`now` + :meth:`add`).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter, tracer=None):
        self._clock = clock
        self._seconds: dict = {}
        # A RunTracer (repro.observability) turns each phase block into a
        # phase.start/phase.end span; None keeps the timer telemetry-free.
        self.tracer = tracer

    @contextmanager
    def phase(self, name: str):
        """Time the enclosed block under ``name`` (exception-safe).

        With a tracer attached, the block is also recorded as a
        ``phase.start``/``phase.end`` span; wall-clock seconds are added
        to the end event only when the tracer opts into wall time
        (``include_wall_time``), keeping traces replay-deterministic.
        """
        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        if traced:
            tracer.emit("phase.start", phase=name)
        start = self._clock()
        try:
            yield
        except BaseException as error:
            elapsed = self._clock() - start
            self.add(name, elapsed)
            if traced:
                self._emit_end(tracer, name, elapsed, error=type(error).__name__)
            raise
        else:
            elapsed = self._clock() - start
            self.add(name, elapsed)
            if traced:
                self._emit_end(tracer, name, elapsed)

    @staticmethod
    def _emit_end(tracer, name: str, elapsed: float, **extra) -> None:
        if getattr(tracer, "include_wall_time", False):
            extra["wall_seconds"] = max(0.0, float(elapsed))
        tracer.emit("phase.end", phase=name, **extra)

    def wrap(self, name: str, func: Callable) -> Callable:
        """Return ``func`` with every call timed under ``name``."""

        def timed(*args, **kwargs):
            with self.phase(name):
                return func(*args, **kwargs)

        return timed

    def now(self) -> float:
        """The timer's clock, for manual span measurements."""
        return self._clock()

    def add(self, name: str, seconds: float) -> None:
        """Credit ``seconds`` to ``name`` directly."""
        self._seconds[name] = self._seconds.get(name, 0.0) + max(0.0, float(seconds))

    def get(self, name: str) -> float:
        return self._seconds.get(name, 0.0)

    @property
    def total(self) -> float:
        return float(sum(self._seconds.values()))

    def timings(self) -> dict:
        """Snapshot ``{phase: seconds}`` (canonical phases always present)."""
        out = {name: 0.0 for name in PHASES}
        out.update(self._seconds)
        return out

