"""Unified observability: metrics registry, spans, traces, reports.

One subsystem shared by the compiler, the runtime engine, and the
harness:

* :mod:`repro.obs.metrics` — process-wide registry of counters, gauges
  and histograms charged at the hot seams (caches, realizations,
  allocator, verifier, backends, tuner), rendered as a Prometheus-style
  text exposition;
* :mod:`repro.obs.context` — the one ambient context: the installed
  telemetry hub, the chain of open spans and the distributed trace ids
  (``trace_id`` / ``parent_span_id``, which ride protocol-v2 requests
  across daemon hops), held in one context variable so every asyncio
  task and thread sees only what it installed;
* :mod:`repro.obs.telemetry` — typed telemetry events, the hub that
  numbers them and the in-memory and JSONL sinks;
* :mod:`repro.obs.spans` — hierarchical ``with span(...)`` timing that
  emits paired ``SPAN_START``/``SPAN_END`` telemetry events and charges
  the span metrics exactly once per outermost occurrence;
* :mod:`repro.obs.tracefile` — JSONL trace tooling (summary, filter,
  diff, Chrome/Perfetto export, cross-node merge and slow-request
  ranking) behind ``repro trace``;
* :mod:`repro.obs.log` — leveled structured JSONL logging with
  deterministic field ordering and automatic trace attachment;
* :mod:`repro.obs.flight` — the per-daemon flight recorder (a bounded
  ring of recent request summaries, served at ``/debug/requests``);
* :mod:`repro.obs.report` — the versioned machine-readable bench
  report behind ``repro bench --report``.

See ``docs/observability.md`` for the span vocabulary, the metric
catalog, and the trace-file schema.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    render_prometheus,
    reset_registry,
)
from repro.obs.report import (
    SCHEMA,
    SCHEMA_VERSION,
    build_bench_report,
    load_report,
    validate_bench_report,
    write_report,
)
from repro.obs.context import (
    TraceContext,
    current_hub,
    current_span,
    current_trace,
    new_trace_id,
    use_hub,
    use_trace,
)
from repro.obs.flight import FlightRecorder
from repro.obs.log import StructuredLogger, get_logger
from repro.obs.spans import span
from repro.obs.telemetry import (
    EventKind,
    InMemorySink,
    JsonlSink,
    TelemetryEvent,
    TelemetryHub,
)
from repro.obs.tracefile import (
    TRACE_SCHEMA_VERSION,
    diff_traces,
    filter_trace,
    merge_traces,
    parse_trace_text,
    read_trace,
    slow_traces,
    summarize_trace,
    to_chrome,
)

__all__ = [
    "Counter",
    "EventKind",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "MetricsRegistry",
    "SCHEMA",
    "SCHEMA_VERSION",
    "StructuredLogger",
    "TRACE_SCHEMA_VERSION",
    "TelemetryEvent",
    "TelemetryHub",
    "TraceContext",
    "build_bench_report",
    "current_hub",
    "current_span",
    "current_trace",
    "diff_traces",
    "filter_trace",
    "get_logger",
    "get_registry",
    "load_report",
    "merge_traces",
    "new_trace_id",
    "parse_trace_text",
    "read_trace",
    "render_prometheus",
    "reset_registry",
    "slow_traces",
    "span",
    "summarize_trace",
    "to_chrome",
    "use_hub",
    "use_trace",
    "validate_bench_report",
    "write_report",
]
