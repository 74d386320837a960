"""Structured logging: leveled JSONL records with trace correlation.

The service layer's answer to "what happened?" after the fact.  One
:class:`StructuredLogger` writes one JSON object per line, shaped for
machines first:

* **fixed field order** — every record starts ``seq``, ``lvl``,
  ``event``, followed by the caller's fields in sorted order, with the
  optional wall-clock ``ts`` last.  Two runs of a deterministic
  workload produce diffable logs, and ``grep '"event": "..."'`` works
  without a JSON parser;
* **trace correlation** — while a :mod:`repro.obs.context` trace is
  installed, records automatically gain the ``trace`` field, so a log
  line joins the distributed trace the same way telemetry events do;
* **deterministic by the same switch as traces** — ``ts`` (epoch
  seconds) is suppressed under ``ORION_TRACE_WALL=0``, mirroring the
  telemetry hub's wall-clock gating.

Configuration mirrors the trace file: the daemon takes ``--log-file``,
everything else honours ``$ORION_LOG`` (path) and ``$ORION_LOG_LEVEL``
(``debug``/``info``/``warn``/``error``, default ``info``) through the
process-global :func:`get_logger`.  An unconfigured logger is disabled
and near-free: every call short-circuits on one attribute check.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.obs.context import current_trace

#: numeric severities; records below the logger's level are dropped
LEVELS = {"debug": 10, "info": 20, "warn": 30, "error": 40}


def _default_record_time() -> bool:
    # The same switch that makes traces byte-identical makes logs so.
    return os.environ.get("ORION_TRACE_WALL", "") != "0"


class StructuredLogger:
    """Leveled JSONL records to one file (thread-safe, flushed per line)."""

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        level: str = "info",
        record_time: bool | None = None,
    ) -> None:
        if level not in LEVELS:
            raise ValueError(
                f"unknown log level {level!r} "
                f"(choose from {', '.join(sorted(LEVELS))})"
            )
        self.path = Path(path) if path else None
        self.level = level
        self.enabled = self.path is not None
        self.record_time = (
            _default_record_time() if record_time is None else record_time
        )
        self._threshold = LEVELS[level]
        self._lock = threading.Lock()
        self._seq = 0
        self._handle = None
        self._opened = False

    # ------------------------------------------------------------------
    def log(self, level: str, event: str, **fields) -> None:
        """Write one record (dropped when disabled or below level)."""
        severity = LEVELS.get(level)
        if severity is None:
            raise ValueError(
                f"unknown log level {level!r} "
                f"(choose from {', '.join(sorted(LEVELS))})"
            )
        if not self.enabled or severity < self._threshold:
            return
        if "trace" not in fields:
            ctx = current_trace()
            if ctx is not None:
                fields["trace"] = ctx.trace_id
        ts = time.time() if self.record_time else None
        with self._lock:
            self._seq += 1
            record: dict = {"seq": self._seq, "lvl": level, "event": event}
            for key in sorted(fields):
                # None means "absent", mirroring the flight recorder.
                if fields[key] is not None:
                    record[key] = fields[key]
            if ts is not None:
                record["ts"] = ts
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                # Truncate a stale file on first open, append after a
                # close — the same lifecycle as the JSONL trace sink.
                mode = "a" if self._opened else "w"
                self._handle = self.path.open(mode, encoding="utf-8")
                self._opened = True
            self._handle.write(json.dumps(record, default=str) + "\n")
            self._handle.flush()

    def debug(self, event: str, **fields) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields) -> None:
        self.log("info", event, **fields)

    def warn(self, event: str, **fields) -> None:
        self.log("warn", event, **fields)

    def error(self, event: str, **fields) -> None:
        self.log("error", event, **fields)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


# ----------------------------------------------------------------------
#: process-global logger, lazily configured from the environment
_GLOBAL: StructuredLogger | None = None
_GLOBAL_LOCK = threading.Lock()


def get_logger() -> StructuredLogger:
    """The process logger (``$ORION_LOG``; disabled when unset)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            _GLOBAL = StructuredLogger(
                os.environ.get("ORION_LOG") or None,
                level=os.environ.get("ORION_LOG_LEVEL", "info"),
            )
        return _GLOBAL


def configure(
    path: str | os.PathLike | None,
    level: str = "info",
) -> StructuredLogger | None:
    """Replace the process logger (the CLI's ``--log-file``).

    ``configure(None)`` uninstalls: the previous logger is closed and
    the next :func:`get_logger` re-reads the environment.
    """
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is not None:
            _GLOBAL.close()
        _GLOBAL = StructuredLogger(path, level=level) if path else None
        return _GLOBAL
