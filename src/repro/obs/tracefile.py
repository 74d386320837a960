"""Trace-file tooling: read, summarize, filter, diff, export.

A *trace file* is the JSONL stream a
:class:`~repro.obs.telemetry.JsonlSink` writes: one event per line,
``seq``-ordered, schema version :data:`TRACE_SCHEMA_VERSION` (see
``docs/observability.md`` for the field-by-field description).  This
module is the analysis half — everything the ``repro trace`` CLI
subcommands do lives here, operating on plain dicts so saved traces
from other processes (or other machines) need no repro objects.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

#: Version of the JSONL trace schema these tools understand.  Bump when
#: an event's serialized shape changes incompatibly.
TRACE_SCHEMA_VERSION = 1


def read_trace(path: str | Path) -> list[dict]:
    """Parse a JSONL trace file into event dicts (seq order preserved)."""
    return parse_trace_text(Path(path).read_text(encoding="utf-8"), str(path))


def parse_trace_text(text: str, source: str = "<trace>") -> list[dict]:
    """Parse JSONL trace *content* (a file's text, an HTTP body).

    ``source`` only labels error messages.  This is :func:`read_trace`
    without the filesystem, so ``repro trace merge --url`` can parse a
    daemon's ``/debug/trace`` response with identical semantics.
    """
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: not a JSON event: {exc}")
        if not isinstance(event, dict) or "seq" not in event or "kind" not in event:
            raise ValueError(f"{source}:{lineno}: missing seq/kind fields")
        events.append(event)
    return events


def filter_trace(
    events: Iterable[dict],
    session: str | None = None,
    kinds: Sequence[str] | None = None,
) -> list[dict]:
    """Events matching a session and/or a set of kinds."""
    kept = []
    for event in events:
        if session is not None and event.get("session") != session:
            continue
        if kinds and event["kind"] not in kinds:
            continue
        kept.append(event)
    return kept


def strip_wall(event: dict) -> dict:
    """The event without its wall-clock field (the non-deterministic part)."""
    return {k: v for k, v in event.items() if k != "wall"}


# ----------------------------------------------------------------------
# Summary
# ----------------------------------------------------------------------
def summarize_trace(events: list[dict]) -> str:
    """Per-kind counts, per-span duration stats, and cache hit rates."""
    from repro.harness.reporting import format_table

    kind_counts: dict[str, int] = {}
    sessions: set[str] = set()
    for event in events:
        kind_counts[event["kind"]] = kind_counts.get(event["kind"], 0) + 1
        if event.get("session"):
            sessions.add(event["session"])

    out = [
        f"{len(events)} event(s), {len(sessions)} session(s)"
        + (f": {', '.join(sorted(sessions))}" if sessions else ""),
        "",
        format_table(
            ["kind", "count"],
            sorted(kind_counts.items()),
            title="Events by kind",
        ),
    ]

    span_stats = _span_stats(events)
    if span_stats:
        have_wall = any(s["wall"] is not None for s in span_stats.values())
        headers = ["span", "count"]
        if have_wall:
            headers += ["seconds", "mean ms"]
        rows = []
        for name, stats in sorted(span_stats.items()):
            row = [name, stats["count"]]
            if have_wall:
                wall = stats["wall"]
                row += (
                    [f"{wall:.3f}", f"{1000.0 * wall / stats['count']:.2f}"]
                    if wall is not None
                    else ["-", "-"]
                )
            rows.append(row)
        out += ["", format_table(headers, rows, title="Spans")]

    hits = kind_counts.get("cache_hit", 0)
    misses = kind_counts.get("cache_miss", 0)
    if hits or misses:
        rate = 100.0 * hits / (hits + misses)
        out += [
            "",
            f"measurement cache: {hits} hits, {misses} misses, "
            f"hit rate {rate:.1f}%",
        ]
    return "\n".join(out)


def _span_stats(events: list[dict]) -> dict[str, dict]:
    stats: dict[str, dict] = {}
    for event in events:
        if event["kind"] != "span_end":
            continue
        name = event.get("data", {}).get("name", "?")
        entry = stats.setdefault(name, {"count": 0, "wall": None})
        entry["count"] += 1
        wall = event.get("wall")
        if wall is not None:
            entry["wall"] = (entry["wall"] or 0.0) + wall
    return stats


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------
def diff_traces(
    a: list[dict],
    b: list[dict],
    ignore_wall: bool = True,
    limit: int = 10,
) -> list[str]:
    """Seq-aligned differences between two traces.

    Wall-clock durations are ignored by default — they differ between
    any two real runs; everything else of a deterministic run should
    not.  Returns human-readable difference lines (empty = identical).
    """
    diffs: list[str] = []
    for i in range(max(len(a), len(b))):
        if len(diffs) >= limit:
            diffs.append(f"... (stopped after {limit} differences)")
            break
        if i >= len(a):
            diffs.append(f"seq {b[i].get('seq', i + 1)}: only in B: {b[i]['kind']}")
            continue
        if i >= len(b):
            diffs.append(f"seq {a[i].get('seq', i + 1)}: only in A: {a[i]['kind']}")
            continue
        ea, eb = a[i], b[i]
        if ignore_wall:
            ea, eb = strip_wall(ea), strip_wall(eb)
        if ea != eb:
            diffs.append(
                f"seq {ea.get('seq', i + 1)}: "
                f"A={json.dumps(ea, sort_keys=True)} "
                f"B={json.dumps(eb, sort_keys=True)}"
            )
    if len(a) != len(b):
        diffs.append(f"lengths differ: A has {len(a)} event(s), B has {len(b)}")
    return diffs


# ----------------------------------------------------------------------
# Chrome/Perfetto export
# ----------------------------------------------------------------------
def to_chrome(events: list[dict]) -> dict:
    """Chrome ``trace_event`` JSON (loads in Perfetto / chrome://tracing).

    Sessions map to threads; span pairs become ``B``/``E`` duration
    events and every other kind an instant event.  Events of one trace
    file share one process.  Events carrying a ``node`` (a
    :func:`merge_traces` result) get one named process per node, with
    sessions as threads within their node, so Perfetto shows the full
    client → owner → replica fan-out as parallel process tracks.
    Timestamps are the merge's normalized ``ts`` where present, else
    the deterministic sequence numbers (microseconds), so the visual
    ordering matches the trace exactly even when wall-clock durations
    were suppressed; real durations, when present, ride in
    ``args.wall``.
    """
    trace_events: list[dict] = []
    pids: dict[str, int] = {}
    tids: dict[tuple[str | None, str], int] = {}

    def pid_for(node: str | None) -> int:
        if node is None:
            return 1
        if node not in pids:
            pids[node] = len(pids) + 1
            trace_events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pids[node],
                    "tid": 0,
                    "args": {"name": node},
                }
            )
        return pids[node]

    def tid_for(node: str | None, session: str | None) -> int:
        key = (node, session if session is not None else "<engine>")
        if key not in tids:
            tids[key] = sum(1 for k in tids if k[0] == node) + 1
            trace_events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid_for(node),
                    "tid": tids[key],
                    "args": {"name": key[1]},
                }
            )
        return tids[key]

    for event in events:
        node = event.get("node")
        kind = event["kind"]
        data = dict(event.get("data", {}))
        base = {
            "pid": pid_for(node),
            "tid": tid_for(node, event.get("session")),
            "ts": event.get("ts", event["seq"]),
        }
        if event.get("wall") is not None:
            data["wall"] = event["wall"]
        if kind == "span_start":
            trace_events.append(
                {
                    **base,
                    "ph": "B",
                    "cat": "span",
                    "name": data.pop("name", "span"),
                    "args": data,
                }
            )
        elif kind == "span_end":
            trace_events.append(
                {
                    **base,
                    "ph": "E",
                    "cat": "span",
                    "name": data.pop("name", "span"),
                    "args": data,
                }
            )
        else:
            trace_events.append(
                {
                    **base,
                    "ph": "i",
                    "s": "t",
                    "cat": "event",
                    "name": kind,
                    "args": data,
                }
            )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_schema_version": TRACE_SCHEMA_VERSION},
    }


# ----------------------------------------------------------------------
# Cross-node merge (distributed traces)
# ----------------------------------------------------------------------
#: span names that wrap one whole request end (client or daemon side)
_REQUEST_SPANS = ("client_request", "daemon_request")


def merge_traces(traces: dict[str, list[dict]]) -> list[dict]:
    """Join per-node traces into one causally ordered event list.

    ``traces`` maps a node label (``host:port``, a file stem — anything
    unique) to that node's parsed events.  Each returned event is a
    copy annotated with its ``node`` and a merged timestamp ``ts``.

    Per-node sequence numbers are process-local clocks with arbitrary
    relative offsets, so the merge normalizes them the only way the
    data allows: **causality across hops**.  A ``span_start`` carrying
    ``data.parent_span`` (the remote parent's span id) and
    ``data.trace`` must come *after* the ``span_start`` of that parent
    span (same trace) on whichever node emitted it.  Each such link
    yields the constraint ``off[child] + seq_child >= off[parent] +
    seq_parent + 1`` over per-node offsets, solved by longest-path
    relaxation (offsets only ever grow; ``len(traces)`` passes suffice
    for any loop-free hop graph).  Nodes with no cross-links keep
    offset 0 — their events simply interleave by local order.
    """
    nodes = sorted(traces)
    # (trace_id, span_id) -> start seq, per node: the link targets.
    span_starts: dict[str, dict[tuple[str, int], int]] = {}
    for node in nodes:
        index: dict[tuple[str, int], int] = {}
        for event in traces[node]:
            if event["kind"] != "span_start":
                continue
            data = event.get("data", {})
            trace_id, span_id = data.get("trace"), data.get("span")
            if isinstance(trace_id, str) and isinstance(span_id, int):
                index.setdefault((trace_id, span_id), event["seq"])
        span_starts[node] = index

    constraints: list[tuple[str, int, str, int]] = []
    for node in nodes:
        for event in traces[node]:
            if event["kind"] != "span_start":
                continue
            data = event.get("data", {})
            trace_id = data.get("trace")
            parent = data.get("parent_span")
            if not isinstance(trace_id, str) or not isinstance(parent, int):
                continue
            for other in nodes:
                if other == node:
                    continue
                parent_seq = span_starts[other].get((trace_id, parent))
                if parent_seq is not None:
                    constraints.append(
                        (node, event["seq"], other, parent_seq)
                    )
                    break

    offsets = {node: 0 for node in nodes}
    for _ in range(max(1, len(nodes))):
        changed = False
        for child, child_seq, parent, parent_seq in constraints:
            needed = offsets[parent] + parent_seq + 1 - child_seq
            if offsets[child] < needed:
                offsets[child] = needed
                changed = True
        if not changed:
            break

    merged: list[dict] = []
    for node in nodes:
        for event in traces[node]:
            out = dict(event)
            out["node"] = node
            out["ts"] = offsets[node] + event["seq"]
            merged.append(out)
    merged.sort(key=lambda e: (e["ts"], e["node"], e["seq"]))
    return merged


def slow_traces(events: list[dict], top: int = 10) -> list[dict]:
    """The slowest distributed requests of a (merged) trace.

    Groups events by their ``trace`` id and ranks by the largest
    request-span wall-clock duration when durations were recorded,
    falling back to merged-timestamp extent (event count of causal
    span) for wall-suppressed traces.  Returns at most ``top`` summary
    rows, slowest first.
    """
    groups: dict[str, list[dict]] = {}
    for event in events:
        trace_id = event.get("data", {}).get("trace")
        if isinstance(trace_id, str):
            groups.setdefault(trace_id, []).append(event)

    rows: list[dict] = []
    for trace_id, group in groups.items():
        wall = None
        types: set[str] = set()
        for event in group:
            data = event.get("data", {})
            if data.get("name") in _REQUEST_SPANS:
                if data.get("type") is not None:
                    types.add(str(data["type"]))
                if (
                    event["kind"] == "span_end"
                    and event.get("wall") is not None
                ):
                    wall = max(wall or 0.0, event["wall"])
        stamps = [event.get("ts", event["seq"]) for event in group]
        rows.append(
            {
                "trace": trace_id,
                "events": len(group),
                "nodes": sorted(
                    {e["node"] for e in group if "node" in e}
                ),
                "types": sorted(types),
                "wall": wall,
                "extent": max(stamps) - min(stamps) + 1 if stamps else 0,
            }
        )
    rows.sort(
        key=lambda row: (
            -(row["wall"] if row["wall"] is not None else -1.0),
            -row["extent"],
            row["trace"],
        )
    )
    return rows[:top]
