"""Measurement primitives of the benchmark.

- :func:`percentile` refuses a percentile that has fewer than ten samples
  beyond it, so every reported tail rests on at least ten observations.
- :func:`speed_probe` and :func:`speed_factors` scale a timing to the
  speed of an unloaded reference machine, by how much slower a fixed probe
  ran around it.
- :class:`SpanRecorder` keeps spans (name, start, end, parent, run id) in
  memory.  The benchmark records them from its own code, by wrapping the
  names the program resolves at each layer's call site; nothing under
  ``src/`` is instrumented.
- :func:`self_times` gives each span's duration minus the time covered by
  its direct children (spans nest strictly: the program is single-threaded).
- :func:`patched` swaps those names for wrappers and restores the exact
  original objects afterwards, even when the traced run raises.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from typing import Callable

import numpy as np

__all__ = [
    "MIN_TAIL_SAMPLES",
    "REFERENCE_PROBE_S",
    "SpanRecorder",
    "percentile",
    "patched",
    "self_times",
    "speed_factors",
    "speed_probe",
]

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: Duration of :func:`speed_probe` on an unloaded 2-vCPU machine.
REFERENCE_PROBE_S = 2.0e-3
#: Probes on each side of a timed interval that set its speed.
SPEED_WINDOW = 3


def speed_probe(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds taken by a fixed mix of interpreter work and small NumPy calls.

    Shared machines slow down for seconds at a time, when another tenant
    loads the same core: everything on the core, the probe included, then
    runs at half speed or less.  Probing around a timed operation measures
    how fast the machine ran during it.
    """
    start = clock()
    total = 0
    for i in range(24000):
        total += (i * i) % 7
    values = np.arange(64, dtype=float)
    for _ in range(600):
        values = np.sqrt(values * values + 1.0)
    return clock() - start


def speed_factors(probes, window: int = SPEED_WINDOW) -> list:
    """Factors that scale the timings between consecutive probes to reference speed.

    Interval *i* lies between ``probes[i]`` and ``probes[i + 1]``.  Its
    factor is :data:`REFERENCE_PROBE_S` over the median of the ``window``
    probes on each side of it.  One 2 ms probe varies by about a tenth from
    the next even when the load does not change, so the median of nearby
    probes follows the machine's speed more closely than the two probes
    that bracket the interval.
    """
    return [
        REFERENCE_PROBE_S / statistics.median(probes[max(0, i - window + 1) : i + window + 1])
        for i in range(len(probes) - 1)
    ]


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation between order statistics).

    Raises ``ValueError`` unless at least :data:`MIN_TAIL_SAMPLES` samples
    lie beyond it: p50 needs 20 samples, p90 needs 100, p99 needs 1000.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = math.floor(n * (100.0 - q) / 100.0 + 1e-9)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are needed"
        )
    rank = (n - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    ``spans`` is a sequence of ``[name, start, end, parent, run]`` records
    where ``parent`` indexes an earlier record (``-1`` for a root).
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _run in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_n, start, end, _p, _r) in enumerate(spans)]


class SpanRecorder:
    """In-memory span tree of one traced pass, plus counters kept beside it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: dict = {}
        #: Identifier shared by every span of one request (a simulated run,
        #: or a served day).
        self.run = 0
        self._stack: list = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.run])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    def count(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, func: Callable, observe: "Callable | None" = None) -> Callable:
        """``func`` recorded as span ``name``; ``observe(result, args, kwargs)``
        updates counters from what the call returned."""

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return wrapper

    def totals(self) -> dict:
        """``{name: (count, total_seconds, self_seconds)}`` over every span."""
        out: dict = {}
        for (name, start, end, _p, _r), own in zip(self.spans, self_times(self.spans)):
            count, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (count + 1, total + (end - start), self_s + own)
        return out

    def write_jsonl(self, path, workload: str, origin: float = 0.0) -> None:
        """Append every span as one JSON line (times relative to ``origin``)."""
        with open(path, "a", encoding="utf-8") as fh:
            for index, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "workload": workload,
                            "id": index,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "run": run,
                        }
                    )
                    + "\n"
                )


@contextmanager
def patched(points):
    """Install ``(owner, attr, factory)`` points for the ``with`` body.

    Each ``owner.attr`` is replaced by ``factory(owner.attr)``.  The
    attribute must be defined on ``owner`` itself, so a wrapper always sits
    where the program resolves the name; the exact original objects are put
    back afterwards, even when the body raises.
    """
    saved = []
    try:
        for owner, attr, factory in points:
            original = owner.__dict__[attr]
            setattr(owner, attr, factory(getattr(owner, attr)))
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
