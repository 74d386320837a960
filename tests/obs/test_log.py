"""Structured logging and the flight recorder.

The logger's contract is deterministic output: fixed leading keys
(``seq``, ``lvl``, ``event``), extras in sorted order, wall-clock
timestamps last and suppressible via ``ORION_TRACE_WALL=0`` — so two
identical runs produce byte-identical logs, and a log line diff reads
like a trace diff.
"""

import json

import pytest

from repro.obs.context import TraceContext, use_trace
from repro.obs.flight import FlightRecorder
from repro.obs.log import LEVELS, StructuredLogger, configure, get_logger


def read_log(path):
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


class TestStructuredLogger:
    def test_disabled_logger_writes_nothing(self, tmp_path):
        log = StructuredLogger(None)
        log.info("ignored", a=1)
        assert not log.enabled

    def test_levels_filter(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = StructuredLogger(path, level="warn", record_time=False)
        log.debug("d")
        log.info("i")
        log.warn("w")
        log.error("e")
        log.close()
        assert [r["event"] for r in read_log(path)] == ["w", "e"]

    def test_unknown_level_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            StructuredLogger(tmp_path / "x", level="loud")
        log = StructuredLogger(tmp_path / "x")
        with pytest.raises(ValueError):
            log.log("loud", "event")

    def test_field_order_is_deterministic(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = StructuredLogger(path, record_time=False)
        log.info("evt", zebra=1, alpha=2, mid=3)
        log.close()
        line = path.read_text(encoding="utf-8").strip()
        # seq/lvl/event lead; extras follow sorted.
        assert list(json.loads(line)) == [
            "seq", "lvl", "event", "alpha", "mid", "zebra",
        ]

    def test_seq_is_monotonic(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = StructuredLogger(path, record_time=False)
        for index in range(3):
            log.info("evt", index=index)
        log.close()
        assert [r["seq"] for r in read_log(path)] == [1, 2, 3]

    def test_none_valued_fields_are_dropped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = StructuredLogger(path, record_time=False)
        log.info("evt", kept=0, dropped=None)
        log.close()
        (record,) = read_log(path)
        assert "dropped" not in record
        assert record["kept"] == 0

    def test_ambient_trace_is_attached(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = StructuredLogger(path, record_time=False)
        log.info("untraced")
        with use_trace(TraceContext("cafe1234cafe1234")):
            log.info("traced")
            log.info("explicit", trace="override")
        log.close()
        records = read_log(path)
        assert "trace" not in records[0]
        assert records[1]["trace"] == "cafe1234cafe1234"
        assert records[2]["trace"] == "override"

    def test_wall_suppression_tracks_trace_wall_env(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("ORION_TRACE_WALL", "0")
        log = StructuredLogger(tmp_path / "a.jsonl")
        log.info("evt")
        log.close()
        (record,) = read_log(tmp_path / "a.jsonl")
        assert "ts" not in record
        monkeypatch.delenv("ORION_TRACE_WALL")
        log = StructuredLogger(tmp_path / "b.jsonl")
        log.info("evt")
        log.close()
        (record,) = read_log(tmp_path / "b.jsonl")
        assert isinstance(record["ts"], float)

    def test_first_open_truncates_reopen_appends(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"stale": true}\n', encoding="utf-8")
        log = StructuredLogger(path, record_time=False)
        log.info("fresh")
        log.close()
        log.info("appended")  # same logger object: append, not truncate
        log.close()
        assert [r["event"] for r in read_log(path)] == ["fresh", "appended"]

    def test_level_values_are_ordered(self):
        assert (
            LEVELS["debug"] < LEVELS["info"] < LEVELS["warn"] < LEVELS["error"]
        )


class TestProcessLogger:
    def test_env_configured_logger(self, tmp_path, monkeypatch):
        path = tmp_path / "proc.jsonl"
        monkeypatch.setenv("ORION_LOG", str(path))
        monkeypatch.setenv("ORION_LOG_LEVEL", "warn")
        configure(None)  # reset whatever an earlier test installed
        try:
            log = get_logger()
            assert log.enabled
            log.info("below-threshold")
            log.warn("kept")
            log.close()
            assert [r["event"] for r in read_log(path)] == ["kept"]
        finally:
            configure(None)

    def test_default_is_disabled(self, monkeypatch):
        monkeypatch.delenv("ORION_LOG", raising=False)
        configure(None)
        assert not get_logger().enabled

    def test_configure_replaces(self, tmp_path):
        first = tmp_path / "one.jsonl"
        configure(first)
        try:
            get_logger().info("one")
            configure(tmp_path / "two.jsonl")
            get_logger().info("two")
        finally:
            configure(None)
        assert [r["event"] for r in read_log(first)] == ["one"]
        assert [
            r["event"] for r in read_log(tmp_path / "two.jsonl")
        ] == ["two"]


class TestFlightRecorder:
    def test_capacity_bounds_entries(self):
        flight = FlightRecorder(capacity=3)
        for index in range(5):
            flight.record(index=index)
        entries = flight.snapshot()
        assert [e["index"] for e in entries] == [2, 3, 4]
        assert flight.total == 5
        assert len(flight) == 3

    def test_ordinals_survive_eviction(self):
        flight = FlightRecorder(capacity=2)
        for index in range(4):
            flight.record(index=index)
        assert [e["n"] for e in flight.snapshot()] == [3, 4]

    def test_none_fields_dropped(self):
        flight = FlightRecorder(capacity=4)
        entry = flight.record(trace=None, type="ping", peer=None)
        assert entry == {"n": 1, "type": "ping"}

    def test_tail(self):
        flight = FlightRecorder(capacity=8)
        for index in range(5):
            flight.record(index=index)
        assert [e["index"] for e in flight.tail(2)] == [3, 4]
        assert len(flight.tail(99)) == 5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_snapshot_is_a_copy(self):
        flight = FlightRecorder(capacity=2)
        flight.record(value=1)
        snap = flight.snapshot()
        snap[0]["value"] = 99
        assert flight.snapshot()[0]["value"] == 1
