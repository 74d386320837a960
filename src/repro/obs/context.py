"""The ambient context: hub, open-span chain and trace ids in one variable.

Spans, telemetry events and log records all need to know where they
run: which :class:`~repro.obs.telemetry.TelemetryHub` records them,
which span encloses them, and which distributed request caused them.
One :mod:`contextvars` variable holds all three as an immutable
:class:`Ambient` record:

* ``hub`` — the span destination, installed by :func:`use_hub`;
* ``span`` — the innermost open span (:func:`repro.obs.spans.span`).
  Each :class:`OpenSpan` links to the span that enclosed it, so the
  links form the nesting chain that parent ids and the re-entrancy
  check walk;
* ``trace`` — the :class:`TraceContext`, installed by :func:`use_trace`.

Every installer sets the variable and resets its token on exit, so
each asyncio task and each thread sees only what it installed itself:
two daemon requests interleaved on one event loop each see their own
span, and a hub installed on one thread is invisible on every other.

Context variables do not cross ``loop.run_in_executor`` or a thread
pool's ``submit``.  Work that must run inside its caller's context is
submitted as ``contextvars.copy_context().run``, with a fresh copy per
submit (one :class:`contextvars.Context` cannot be entered by two
threads at once); the daemon's tune and store executors do exactly
that.

A *trace* is everything one logical request caused, across every
process it touched: the client's ``client_request`` span, the daemon's
``daemon_request`` span, the forward hop to the ring owner, the engine
session that tuned the kernel, the replication frames that shipped the
winner.  The :class:`TraceContext` ties them together:

* ``trace_id`` — a random 16-hex-char identifier minted once, at the
  edge (the client, or the first daemon to see an untraced request),
  and carried verbatim across every hop;
* ``parent_span_id`` — the span id, *in the sender's trace file*, of
  the span that caused this hop.  Together with the trace id it lets
  ``repro trace merge`` re-link spans across per-node files.

While a trace context is installed, every event the hub emits and
every structured log record gains a ``trace`` field; with none
installed nothing is added, so untraced runs stay byte-identical.
"""

from __future__ import annotations

import contextvars
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one distributed request."""

    trace_id: str
    #: span id of the causing span *in the sender's trace*; ``None`` at
    #: the root of a trace
    parent_span_id: int | None = None


@dataclass(frozen=True)
class OpenSpan:
    """One open span, linked to the span that enclosed it."""

    name: str
    session: str | None
    #: the hub-allocated id; ``None`` when no hub was ambient
    span_id: int | None
    enclosing: OpenSpan | None = None


@dataclass(frozen=True)
class Ambient:
    """What the current task or thread runs under."""

    hub: object | None = None
    span: OpenSpan | None = None
    trace: TraceContext | None = None

    def open_spans(self) -> Iterator[OpenSpan]:
        """The open spans, innermost first."""
        node = self.span
        while node is not None:
            yield node
            node = node.enclosing


_AMBIENT: contextvars.ContextVar[Ambient] = contextvars.ContextVar(
    "orion_ambient", default=Ambient()
)


def ambient() -> Ambient:
    """The whole ambient record (all fields ``None`` outside any scope)."""
    return _AMBIENT.get()


def current_hub():
    """The installed telemetry hub, or ``None`` outside any trace."""
    return _AMBIENT.get().hub


def current_span() -> OpenSpan | None:
    """The innermost open span of this task or thread, if any."""
    return _AMBIENT.get().span


def current_trace() -> TraceContext | None:
    """The ambient trace context, or ``None`` outside any trace."""
    return _AMBIENT.get().trace


def new_trace_id() -> str:
    """Mint a fresh 16-hex-char trace id.

    Random (not derived from inputs) on purpose: two submissions of the
    same kernel are two distinct requests, and the id must never
    collide across unrelated client processes.
    """
    return os.urandom(8).hex()


@contextmanager
def scoped(**fields) -> Iterator[Ambient]:
    """Run the block with ``fields`` of the ambient record replaced."""
    state = replace(_AMBIENT.get(), **fields)
    token = _AMBIENT.set(state)
    try:
        yield state
    finally:
        _AMBIENT.reset(token)


def use_hub(hub):
    """Install ``hub`` as the span destination for the block.

    Nestable: the previous hub is back when the block exits, and
    installing the hub that is already ambient (the engine does,
    ``run_many`` → ``run`` → ``measure``) is harmless.
    """
    return scoped(hub=hub)


def use_trace(ctx: TraceContext | None):
    """Install ``ctx`` as the ambient trace context for the block.

    ``None`` is accepted and installs "no trace" — callers can pass an
    optional context straight through without branching.
    """
    return scoped(trace=ctx)
