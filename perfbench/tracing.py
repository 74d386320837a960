"""Span recording from outside the program.

The traced run wraps each layer's functions where their callers look
them up, records one :class:`Span` per call in memory, and writes the
spans out at the end.  Nothing in ``src/`` knows about it; the
end-to-end runs install nothing.

Three kinds of span:

* ``sync`` — a plain function call.  Calls on one thread nest, so a
  span's *self* time is its duration minus that of its direct wrapped
  children;
* ``async`` — a coroutine.  Coroutines interleave on the event-loop
  thread, so they are not pushed on the thread's stack and only their
  elapsed time is meaningful;
* ``wait`` — a queueing interval (submitted → started) recorded by a
  hand-written wrapper.

Counting wrappers (:meth:`Recorder.counting`) record no span, only a
count, for functions called too often to time individually.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

#: attribute marking a wrapper; it holds the wrapped original
ORIGINAL_ATTR = "__perfbench_original__"

#: pass or request id stamped on every span opened under it
CONTEXT: contextvars.ContextVar[str] = contextvars.ContextVar(
    "perfbench_context", default=""
)

clock = time.perf_counter


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float | None = None
    parent: "Span | None" = None
    context: str = ""
    kind: str = "sync"  # "sync" | "async" | "wait"
    error: str | None = None
    extra: dict | None = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


Probe = Callable[[object, tuple, dict], "dict | None"]


class Recorder:
    """Holds spans and counts in memory until the run writes them out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, kind: str = "sync") -> Span:
        stack = self._stack()
        span = Span(
            name,
            clock(),
            parent=stack[-1] if stack and kind == "sync" else None,
            context=CONTEXT.get(),
            kind=kind,
        )
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def record_wait(
        self, name: str, submitted: float, started: float, context: str
    ) -> None:
        """A queueing interval, stamped with the id of whoever queued."""
        self.spans.append(
            Span(name, submitted, started, context=context, kind="wait")
        )

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- wrapper factories ---------------------------------------------
    def timed(self, name: str, fn: Callable, probe: Probe | None = None):
        """A sync wrapper recording one span per call of ``fn``."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            stack = recorder._stack()
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if probe is not None:
                span.extra = probe(result, args, kwargs)
            return result

        return wrapper

    def timed_async(self, name: str, fn: Callable, probe: Probe | None = None):
        """A coroutine wrapper recording elapsed time (no self time)."""
        recorder = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span = recorder.open(name, kind="async")
            try:
                result = await fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
            if probe is not None:
                span.extra = probe(result, args, kwargs)
            return result

        return wrapper

    def counting(self, name: str, fn: Callable):
        """A wrapper that only counts calls."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- output --------------------------------------------------------
    def finished(self) -> list[Span]:
        """Spans that have closed (a dump may race spans still open)."""
        return [span for span in list(self.spans) if span.end is not None]

    def dump(self, role: str) -> dict:
        """A JSON-ready snapshot: spans with parent indices, and counts."""
        spans = self.finished()
        index = {id(span): i for i, span in enumerate(spans)}
        return {
            "role": role,
            "counts": dict(self.counts),
            "spans": [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": index.get(id(s.parent), -1)
                    if s.parent is not None
                    else -1,
                    "context": s.context,
                    "kind": s.kind,
                    "error": s.error,
                    "extra": s.extra,
                }
                for s in spans
            ],
        }


def load_spans(dump: dict) -> list[Span]:
    """Inverse of :meth:`Recorder.dump` (parents relinked)."""
    spans = [
        Span(
            d["name"],
            d["start"],
            d["end"],
            context=d["context"],
            kind=d["kind"],
            error=d["error"],
            extra=d["extra"],
        )
        for d in dump["spans"]
    ]
    for span, d in zip(spans, dump["spans"]):
        if d["parent"] >= 0:
            span.parent = spans[d["parent"]]
    return spans


# ----------------------------------------------------------------------
# Self time and nesting checks
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> dict[Span, float]:
    """Self time of every sync span: duration minus direct sync children."""
    children: dict[int, float] = {}
    for span in spans:
        if span.kind == "sync" and span.parent is not None:
            key = id(span.parent)
            children[key] = children.get(key, 0.0) + span.duration
    return {
        span: span.duration - children.get(id(span), 0.0)
        for span in spans
        if span.kind == "sync"
    }


def nesting_problems(spans: list[Span], tolerance: float = 1e-6) -> list[str]:
    """Ways in which the sync spans fail to nest (empty when sound).

    A child must lie inside its parent, and a parent's children must not
    overlap each other — otherwise the same seconds would be counted
    twice and a self time would go negative.
    """
    problems = []
    by_parent: dict[int, list[Span]] = {}
    for span in spans:
        if span.kind != "sync" or span.parent is None:
            continue
        parent = span.parent
        if (
            span.start < parent.start - tolerance
            or span.end > parent.end + tolerance
        ):
            problems.append(f"{span.name} escapes its parent {parent.name}")
        by_parent.setdefault(id(parent), []).append(span)
    for siblings in by_parent.values():
        siblings.sort(key=lambda s: s.start)
        for left, right in zip(siblings, siblings[1:]):
            if right.start < left.end - tolerance:
                problems.append(f"{left.name} overlaps sibling {right.name}")
    for span, own in self_times(spans).items():
        if own < -tolerance:
            problems.append(f"{span.name} has negative self time {own:.6f}")
    return problems


# ----------------------------------------------------------------------
# Installing wrappers where callers look functions up
# ----------------------------------------------------------------------
def is_wrapper(obj: object) -> bool:
    func = getattr(obj, "__func__", obj)  # classmethod/staticmethod
    return getattr(func, ORIGINAL_ATTR, None) is not None


def resolve(path: str) -> tuple[object, str]:
    """``"pkg.mod:func"`` or ``"pkg.mod:Class.method"`` → (owner, attr)."""
    module_name, _, qualname = path.partition(":")
    owner: object = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Patches:
    """The wrappers one installation put in place, for exact restoration."""

    def __init__(self, package: str = "repro") -> None:
        self.package = package
        self._applied: list[tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._applied.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, path: str, make: Callable[[Callable], Callable]) -> int:
        """Wrap the function at ``path`` everywhere it is bound.

        ``make(original) -> wrapper``.  A module-level function is
        replaced in every loaded module of the package that holds the
        same object (``from x import f`` copies), with one shared
        wrapper, so a call through any alias records exactly once.  A
        method is replaced in its defining class.  Returns the number of
        bindings patched; a target already wrapped is left alone.
        """
        owner, attr = resolve(path)
        if inspect.isclass(owner):
            raw = owner.__dict__[attr]
            if is_wrapper(raw):
                return 0
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = type(raw)(self._marked(make, raw.__func__))
            else:
                wrapper = self._marked(make, raw)
            self._set(owner, attr, wrapper)
            return 1
        original = getattr(owner, attr)
        if is_wrapper(original):
            return 0
        wrapper = self._marked(make, original)
        patched = 0
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if name != self.package and not name.startswith(self.package + "."):
                if module is not owner:
                    continue
            namespace = getattr(module, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(module, key, wrapper)
                    patched += 1
        return patched

    @staticmethod
    def _marked(make, original):
        wrapper = make(original)
        setattr(wrapper, ORIGINAL_ATTR, original)
        return wrapper

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._applied:
            owner, attr, value = self._applied.pop()
            setattr(owner, attr, value)


def installed_wrappers(package: str = "repro") -> list[str]:
    """Every binding in the package's loaded modules that is a wrapper.

    Module globals and the attributes of classes defined in those
    modules are searched; an end-to-end run must find none.
    """
    found = []
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if name != package and not name.startswith(package + "."):
            continue
        for key, value in list(vars(module).items()):
            if is_wrapper(value):
                found.append(f"{name}.{key}")
            elif inspect.isclass(value) and value.__module__ == name:
                for attr, raw in list(vars(value).items()):
                    if is_wrapper(raw):
                        found.append(f"{name}.{key}.{attr}")
    return found


@dataclass
class Installation:
    """A recorder plus the patches that feed it."""

    recorder: Recorder = field(default_factory=Recorder)
    patches: Patches = field(default_factory=Patches)

    def uninstall(self) -> None:
        self.patches.restore()
