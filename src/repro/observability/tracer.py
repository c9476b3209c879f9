"""Structured event tracing for the ETA² closed loop.

The loop's existing diagnostics are aggregates — per-phase wall-clock
totals, a final iteration count, a log line when something went wrong.
None of them can answer "why did day 12 diverge" or "when was user 17
quarantined" after the fact.  :class:`RunTracer` records the loop's
*decisions* as typed, ordered event records:

- day and step boundaries (``day.start`` / ``step.start`` / ``step.end``),
- phase spans nested inside each step (``phase.start`` / ``phase.end``,
  emitted by :class:`~repro.perf.timers.PhaseTimer`),
- per-iteration MLE truth deltas from the Eq. 5-6 coordinate iteration
  (``mle.iteration``) and its convergence verdict (``mle.converged`` /
  ``mle.non_convergence``),
- clustering decisions (``clustering.new_domain`` / ``clustering.merge`` /
  ``clustering.domains``),
- reputation transitions (``reputation.quarantine`` / ``.probation`` /
  ``.reinstate``), guard violations (``guard.violation``),
- checkpoint saves/restores and injected faults.

Events land in a bounded in-memory ring buffer and, optionally, a JSONL
sink (one canonical-JSON line per event, line-buffered so a crashed run
still leaves a usable trace).

**Determinism.**  Traces must be byte-comparable across replays, so a
tracer has *no* implicit wall clock: every record carries a monotone
``seq`` number, and a ``ts`` field appears only when an explicit clock —
typically the chaos layer's
:class:`~repro.reliability.faults.VirtualClock` — is attached.  Wall-clock
durations stay on :class:`~repro.core.pipeline.StepResult.timings`, never
in the trace (set ``include_wall_time=True`` to opt into non-reproducible
``wall_seconds`` payloads for live operations).

**Zero overhead by default.**  :data:`NULL_TRACER` (the module-wide
no-op singleton) is what every instrumented component holds until
telemetry is enabled; call sites guard payload construction with
``tracer.enabled`` so a disabled run does no extra work and produces
bit-identical results.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["NULL_TRACER", "NullTracer", "RunTracer", "TRACE_SCHEMA_VERSION", "canonical_json"]

#: Version of the trace record schema this writer emits.  Every record
#: carries it as ``"schema"`` so readers can detect traces from newer
#: emitters and degrade gracefully (warn, keep parsing) instead of
#: misinterpreting them — the backward-compatibility contract documented
#: in ``docs/architecture.md`` § Observability.
TRACE_SCHEMA_VERSION = 1


# json.dumps builds a fresh JSONEncoder whenever non-default options are
# passed; a shared instance keeps the hot sinks (WAL appends, trace
# records) off that per-call construction cost.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(record: dict) -> str:
    """The canonical one-line JSON encoding used for every sink record.

    Sorted keys and tight separators make equal records byte-equal — the
    property the replay-determinism guarantee is stated in terms of.
    """
    return _CANONICAL_ENCODER.encode(record)


def _jsonable(value):
    """Coerce numpy scalars/arrays (and tuples) to plain JSON types."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumented components hold :data:`NULL_TRACER` by default, so the
    cost of tracing-off is one attribute check per instrumentation point.
    """

    enabled = False

    def emit(self, type: str, **data) -> None:
        pass

    @contextmanager
    def span(self, name: str, **data):
        yield

    def events(self, type: "str | None" = None) -> list:
        return []

    def set_clock(self, clock: "Callable[[], float] | None") -> None:
        pass

    def close(self) -> None:
        pass


#: The module-wide disabled tracer (safe to share: it holds no state).
NULL_TRACER = NullTracer()


class RunTracer:
    """Typed, ordered event records for one run of the closed loop.

    Parameters
    ----------
    capacity:
        Ring-buffer size; the newest ``capacity`` events stay queryable
        in memory (the JSONL sink, if any, keeps everything).
    sink:
        Optional path of a JSONL file; every event is appended as one
        canonical-JSON line as it is emitted (line-buffered).
    clock:
        Optional zero-argument callable supplying the ``ts`` field.  Use
        the run's :class:`~repro.reliability.faults.VirtualClock` for
        deterministic timestamps; with no clock, records carry only
        ``seq`` and traces are deterministic by construction.
    include_wall_time:
        Allow emitters to attach non-reproducible ``wall_seconds``
        payloads (phase spans).  Off by default so replays stay
        byte-identical.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 65536,
        sink: "str | Path | None" = None,
        clock: "Callable[[], float] | None" = None,
        include_wall_time: bool = False,
    ):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._buffer: deque = deque(maxlen=int(capacity))
        self._seq = 0
        self._clock = clock
        self.include_wall_time = bool(include_wall_time)
        self._sink_path = None if sink is None else Path(sink)
        self._sink_file = None
        if self._sink_path is not None:
            self._sink_path.parent.mkdir(parents=True, exist_ok=True)
            # Line buffering: a crashed run still leaves every completed
            # event on disk, which is exactly when a trace matters most.
            self._sink_file = self._sink_path.open("w", buffering=1)

    @property
    def sink_path(self) -> "Path | None":
        return self._sink_path

    @property
    def event_count(self) -> int:
        """Events emitted so far (including any evicted from the ring)."""
        return self._seq

    def set_clock(self, clock: "Callable[[], float] | None") -> None:
        """Attach (or detach) the timestamp clock.

        The simulation engine calls this with the chaos layer's virtual
        clock so trace timestamps advance with injected latency while
        staying deterministic.
        """
        self._clock = clock

    def emit(self, type: str, **data) -> None:
        """Record one event. ``data`` must be JSON-coercible."""
        record = {"schema": TRACE_SCHEMA_VERSION, "seq": self._seq, "type": type}
        if self._clock is not None:
            record["ts"] = float(self._clock())
        if data:
            record["data"] = _jsonable(data)
        self._seq += 1
        self._buffer.append(record)
        if self._sink_file is not None:
            self._sink_file.write(canonical_json(record) + "\n")

    @contextmanager
    def span(self, name: str, **data):
        """Emit ``<name>.start`` / ``<name>.end`` around the block.

        The end event repeats the start data and is emitted even when the
        block raises (with ``"error": <exception class name>``).
        """
        self.emit(f"{name}.start", **data)
        try:
            yield
        except BaseException as error:
            self.emit(f"{name}.end", error=type(error).__name__, **data)
            raise
        else:
            self.emit(f"{name}.end", **data)

    def events(self, type: "str | None" = None) -> list:
        """The buffered records (optionally filtered by exact type)."""
        if type is None:
            return list(self._buffer)
        return [record for record in self._buffer if record["type"] == type]

    def flush(self) -> None:
        if self._sink_file is not None:
            self._sink_file.flush()

    def close(self) -> None:
        """Flush and close the JSONL sink (idempotent)."""
        if self._sink_file is not None:
            self._sink_file.close()
            self._sink_file = None

    def __enter__(self) -> "RunTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
