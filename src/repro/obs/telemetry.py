"""Structured telemetry: typed events, pluggable sinks.

Every observable step of the execution engine — a session starting, a
tuning trial, a measurement-cache hit, a backend invocation — and every
span is one :class:`TelemetryEvent` pushed through a
:class:`TelemetryHub` to any number of sinks.  Tests attach an
:class:`InMemorySink` and assert on the event stream; operators set
``ORION_TRACE_FILE`` (or the CLI's ``--trace``) to stream the same
events as JSON lines to disk.  The module imports nothing from
:mod:`repro.runtime`, so :mod:`repro.obs.spans` can emit span events
without an import cycle.

Events carry a process-local monotonic sequence number instead of a
wall-clock timestamp, so traces of a deterministic run are themselves
deterministic and diffable.  The one wall-clock quantity spans need —
their duration — rides in the *separate, optional* ``wall`` field,
which the hub drops entirely when durations are suppressed
(``record_wall=False`` or ``ORION_TRACE_WALL=0``); with durations
suppressed, repeat traces of a deterministic run are byte-identical.

The hub also allocates **span ids**, scoped per session label: the
``SPAN_START``/``SPAN_END`` events of one session number their spans
1, 2, 3, … independently of every other session, so a session's event
subsequence is invariant under scheduler interleaving.

While a distributed trace context (:mod:`repro.obs.context`) is
installed, every emitted event additionally gains a ``trace`` field in
its data — the cross-process identifier ``repro trace merge`` joins
per-node files by.  With no context installed nothing is added, so
traces of untraced runs stay byte-identical.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Protocol

from repro.obs.context import current_trace


class EventKind(str, Enum):
    """The telemetry vocabulary of the execution engine."""

    ENGINE_START = "engine_start"
    ENGINE_FINISH = "engine_finish"
    SESSION_START = "session_start"
    ITERATION = "iteration"
    TRIAL = "trial"
    CONVERGED = "converged"
    SESSION_FINALIZED = "session_finalized"
    SESSION_FAILED = "session_failed"
    CACHE_HIT = "cache_hit"
    CACHE_MISS = "cache_miss"
    BACKEND_INVOKE = "backend_invoke"
    SPAN_START = "span_start"
    SPAN_END = "span_end"
    FUZZ_CASE = "fuzz_case"


@dataclass(frozen=True)
class TelemetryEvent:
    """One typed, ordered engine event."""

    seq: int
    kind: EventKind
    session: str | None
    data: dict = field(default_factory=dict)
    #: wall-clock seconds (span durations); optional so the
    #: deterministic fields stay cleanly separated from the one
    #: timing-dependent field
    wall: float | None = None

    def to_json(self) -> str:
        record = {"seq": self.seq, "kind": self.kind.value}
        if self.session is not None:
            record["session"] = self.session
        record["data"] = self.data
        if self.wall is not None:
            record["wall"] = self.wall
        return json.dumps(record, sort_keys=True)


class TelemetrySink(Protocol):
    """Anything that can receive engine events."""

    def emit(self, event: TelemetryEvent) -> None:
        ...

    def close(self) -> None:
        ...


class InMemorySink:
    """Collects events in a list (the test sink)."""

    def __init__(self) -> None:
        self.events: list[TelemetryEvent] = []

    def emit(self, event: TelemetryEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass

    def of(self, kind: EventKind) -> list[TelemetryEvent]:
        return [e for e in self.events if e.kind is kind]

    def count(self, kind: EventKind) -> int:
        return len(self.of(kind))


class JsonlSink:
    """Writes one JSON line per event to a file (the trace sink).

    The file is opened lazily on the first event; a **pre-existing file
    is truncated** at that first open (a stale trace from an earlier
    run must never be silently appended to mid-run), while re-opens by
    the *same* sink after a ``close`` append, so one logical run stays
    one file.  Every line is flushed, so a trace of a crashed run is
    still complete up to the crash.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = None
        self._opened = False

    def emit(self, event: TelemetryEvent) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            mode = "a" if self._opened else "w"
            self._handle = self.path.open(mode, encoding="utf-8")
            self._opened = True
        self._handle.write(event.to_json() + "\n")
        self._handle.flush()

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _default_record_wall() -> bool:
    return os.environ.get("ORION_TRACE_WALL", "") != "0"


class TelemetryHub:
    """Fans events out to sinks; owns the sequence counter.

    Thread-safe: concurrent sessions interleave their events into one
    totally ordered stream (the sequence number is the order).

    ``record_wall`` controls whether events carry their optional
    wall-clock field; the default honours ``ORION_TRACE_WALL`` (set it
    to ``0`` for byte-identical traces across repeat runs).
    """

    def __init__(
        self, *sinks: TelemetrySink, record_wall: bool | None = None
    ) -> None:
        self._sinks: list[TelemetrySink] = list(sinks)
        self._seq = 0
        self._span_ids: dict[str | None, int] = {}
        self._lock = threading.Lock()
        self.counts: dict[EventKind, int] = {}
        self.record_wall = (
            _default_record_wall() if record_wall is None else record_wall
        )

    def add_sink(self, sink: TelemetrySink) -> None:
        self._sinks.append(sink)

    def next_span_id(self, scope: str | None = None) -> int:
        """Allocate the next span id within one session scope.

        Scoping per session (rather than using the global sequence
        number) keeps span ids — and therefore a session's whole event
        subsequence — deterministic regardless of how the scheduler
        interleaves sessions.
        """
        with self._lock:
            next_id = self._span_ids.get(scope, 0) + 1
            self._span_ids[scope] = next_id
            return next_id

    def emit(
        self,
        kind: EventKind,
        session: str | None = None,
        wall: float | None = None,
        **data,
    ) -> TelemetryEvent:
        if not self.record_wall:
            wall = None
        if "trace" not in data:
            ctx = current_trace()
            if ctx is not None:
                data["trace"] = ctx.trace_id
        with self._lock:
            self._seq += 1
            event = TelemetryEvent(
                seq=self._seq, kind=kind, session=session, data=data, wall=wall
            )
            self.counts[kind] = self.counts.get(kind, 0) + 1
            for sink in self._sinks:
                sink.emit(event)
        return event

    def flush(self) -> None:
        """Flush every sink that buffers (file sinks, notably)."""
        for sink in self._sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()
