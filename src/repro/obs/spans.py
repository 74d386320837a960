"""Hierarchical spans: one timing API across compiler, runtime, harness.

``with span("allocate", kernel=...)`` times one region and reports it
two ways:

* **trace events** — when a :class:`~repro.obs.telemetry.TelemetryHub`
  is ambient (:func:`repro.obs.context.use_hub`), every span emits
  paired ``SPAN_START``/``SPAN_END`` events, so JSONL traces interleave
  timing structure with the engine's event stream.  Span ids are
  allocated *per session scope* by the hub, which keeps a session's
  event subsequence deterministic under any scheduler interleaving;
  wall-clock durations ride in the event's separate optional ``wall``
  field so traces stay diffable (and byte-identical when the hub
  suppresses durations).
* **metrics** — ``orion_spans_total`` and ``orion_span_seconds_total``
  in the process-wide registry, charged once per *outermost* same-named
  span: a span nested inside a same-named span charges nothing extra,
  so recursive or re-entered phases are never double-counted.
  :func:`span_timings` reads the two back as per-name calls and
  seconds, the figures ``repro compile --timings`` and the bench
  report's ``timings`` show.

The open span is part of the ambient context (:mod:`repro.obs.context`):
each span links to the span that enclosed it, and that chain — private
to the task or thread that opened it — gives both the parent id and the
re-entrancy check.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs.context import OpenSpan, ambient, scoped
from repro.obs.metrics import get_registry
from repro.obs.telemetry import EventKind

_CALLS = "orion_spans_total"
_SECONDS = "orion_span_seconds_total"


@contextmanager
def span(name: str, session: str | None = None, **labels) -> Iterator[None]:
    """Open one hierarchical span.

    ``session`` labels the emitted events (and scopes the span id);
    ``labels`` ride in both the start and end events' data.
    """
    outer = ambient()
    hub = outer.hub
    enclosing = list(outer.open_spans())
    span_id = parent = None
    if hub is not None:
        span_id = hub.next_span_id(session)
        parent = next(
            (
                active.span_id
                for active in enclosing
                if active.session == session and active.span_id is not None
            ),
            None,
        )
        hub.emit(
            EventKind.SPAN_START, session, name=name, span=span_id,
            parent=parent, **labels,
        )
    reentrant = any(active.name == name for active in enclosing)
    start = time.perf_counter()
    status = "ok"
    try:
        with scoped(span=OpenSpan(name, session, span_id, outer.span)):
            yield
    except BaseException:
        status = "error"
        raise
    finally:
        elapsed = time.perf_counter() - start
        if not reentrant:
            registry = get_registry()
            registry.counter(_CALLS, "Completed spans per span name.").inc(
                name=name
            )
            registry.counter(
                _SECONDS,
                "Wall-clock seconds spent inside spans, outermost "
                "occurrence per name only.",
            ).inc(elapsed, name=name)
        if hub is not None:
            hub.emit(
                EventKind.SPAN_END,
                session,
                wall=elapsed,
                name=name,
                span=span_id,
                parent=parent,
                status=status,
                **labels,
            )


def span_timings(snapshot: dict | None = None) -> dict[str, dict]:
    """Per span name, ``{"calls": n, "seconds": s}``, sorted by name.

    Read from a registry snapshot (default: the live registry's), so a
    bench report's ``timings`` and its ``metrics`` never disagree.
    """
    if snapshot is None:
        snapshot = get_registry().snapshot()
    samples = {
        family["name"]: {
            sample["labels"]["name"]: sample["value"]
            for sample in family["samples"]
        }
        for family in snapshot.get("metrics", [])
        if family["name"] in (_CALLS, _SECONDS)
    }
    seconds = samples.get(_SECONDS, {})
    return {
        name: {"calls": calls, "seconds": seconds.get(name, 0.0)}
        for name, calls in sorted(samples.get(_CALLS, {}).items())
    }
