"""Structured telemetry tests: hub, sinks, event stream."""

import json
import threading

from repro.obs.telemetry import (
    EventKind,
    InMemorySink,
    JsonlSink,
    TelemetryEvent,
    TelemetryHub,
)


class TestHub:
    def test_sequence_is_monotonic_from_one(self):
        sink = InMemorySink()
        hub = TelemetryHub(sink)
        for _ in range(5):
            hub.emit(EventKind.ITERATION, "s")
        assert [e.seq for e in sink.events] == [1, 2, 3, 4, 5]

    def test_counts_per_kind(self):
        hub = TelemetryHub()
        hub.emit(EventKind.CACHE_HIT)
        hub.emit(EventKind.CACHE_HIT)
        hub.emit(EventKind.CACHE_MISS)
        assert hub.counts[EventKind.CACHE_HIT] == 2
        assert hub.counts[EventKind.CACHE_MISS] == 1

    def test_fan_out_to_all_sinks(self):
        a, b = InMemorySink(), InMemorySink()
        hub = TelemetryHub(a)
        hub.add_sink(b)
        hub.emit(EventKind.TRIAL, "s", cycles=7)
        assert len(a.events) == len(b.events) == 1
        assert a.events[0] is b.events[0]

    def test_concurrent_emits_keep_unique_ordered_seqs(self):
        sink = InMemorySink()
        hub = TelemetryHub(sink)

        def worker():
            for _ in range(50):
                hub.emit(EventKind.ITERATION)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [e.seq for e in sink.events]
        assert sorted(seqs) == list(range(1, 201))
        # Sinks receive events in sequence order (emitted under the lock).
        assert seqs == sorted(seqs)


class TestInMemorySink:
    def test_of_and_count(self):
        sink = InMemorySink()
        hub = TelemetryHub(sink)
        hub.emit(EventKind.SESSION_START, "a")
        hub.emit(EventKind.TRIAL, "a")
        hub.emit(EventKind.TRIAL, "a")
        assert sink.count(EventKind.TRIAL) == 2
        assert [e.kind for e in sink.of(EventKind.SESSION_START)] == [
            EventKind.SESSION_START
        ]


class TestJsonlSink:
    def test_lines_parse_back(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        hub = TelemetryHub(JsonlSink(path))
        hub.emit(EventKind.SESSION_START, "bfs", kernel="k")
        hub.emit(EventKind.ENGINE_FINISH, None, sessions=1)
        hub.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "seq": 1,
            "kind": "session_start",
            "session": "bfs",
            "data": {"kernel": "k"},
        }
        second = json.loads(lines[1])
        assert "session" not in second  # engine-level events have no session

    def test_lazy_open_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "trace.jsonl"
        sink = JsonlSink(path)
        assert not path.parent.exists()  # nothing happens before an event
        sink.emit(TelemetryEvent(seq=1, kind=EventKind.TRIAL, session=None))
        sink.close()
        assert path.exists()

    def test_close_without_events_is_noop(self, tmp_path):
        sink = JsonlSink(tmp_path / "never.jsonl")
        sink.close()
        assert not (tmp_path / "never.jsonl").exists()

    def test_truncates_stale_file_then_appends_across_reopens(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("stale line from an earlier run\n")
        sink = JsonlSink(path)
        # The first open of a run truncates: a stale trace must never be
        # silently appended to.
        sink.emit(TelemetryEvent(seq=1, kind=EventKind.TRIAL, session=None))
        sink.close()
        assert len(path.read_text().splitlines()) == 1
        # ... but the *same* sink re-opening after a close appends, so
        # one logical run stays one file.
        sink.emit(TelemetryEvent(seq=2, kind=EventKind.TRIAL, session=None))
        sink.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [1, 2]

    def test_fresh_sink_replaces_previous_runs_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for seq in (1, 2):
            sink = JsonlSink(path)
            sink.emit(TelemetryEvent(seq=seq, kind=EventKind.TRIAL, session=None))
            sink.close()
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["seq"] == 2


class TestEventJson:
    def test_keys_sorted_for_diffability(self):
        event = TelemetryEvent(
            seq=3, kind=EventKind.CACHE_HIT, session="s", data={"b": 1, "a": 2}
        )
        text = event.to_json()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text)["kind"] == "cache_hit"
