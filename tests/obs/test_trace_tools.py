"""Trace tooling tests: read, summarize, filter, diff, Chrome export."""

import json

import pytest

from repro.obs.context import use_hub
from repro.obs.spans import span
from repro.obs.telemetry import EventKind, JsonlSink, TelemetryHub
from repro.obs.tracefile import (
    diff_traces,
    filter_trace,
    merge_traces,
    merged_to_chrome,
    parse_trace_text,
    read_trace,
    slow_traces,
    summarize_trace,
    to_chrome,
)


@pytest.fixture()
def trace_path(tmp_path):
    """A small real trace: spans + plain events from two sessions."""
    path = tmp_path / "trace.jsonl"
    hub = TelemetryHub(JsonlSink(path), record_wall=False)
    with use_hub(hub):
        with span("session", session="bfs"):
            hub.emit(EventKind.CACHE_MISS, "bfs", label="original")
            hub.emit(EventKind.BACKEND_INVOKE, "bfs", backend="timing")
            with span("measure", session="bfs", label="original"):
                pass
            hub.emit(EventKind.CACHE_HIT, "bfs", label="original")
        with span("session", session="nn"):
            hub.emit(EventKind.CACHE_HIT, "nn", label="original")
        hub.emit(EventKind.ENGINE_FINISH, None, sessions=2)
    hub.close()
    return path


class TestReadTrace:
    def test_parses_events_in_seq_order(self, trace_path):
        events = read_trace(trace_path)
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
        assert events[0]["kind"] == "span_start"

    def test_rejects_non_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 1, "kind": "trial", "data": {}}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(path)

    def test_rejects_events_without_seq_or_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"data": {}}\n')
        with pytest.raises(ValueError, match="missing seq/kind"):
            read_trace(path)

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"seq": 1, "kind": "trial", "data": {}}\n\n')
        assert len(read_trace(path)) == 1


class TestSummarize:
    def test_counts_spans_and_cache_rates(self, trace_path):
        text = summarize_trace(read_trace(trace_path))
        assert "2 session(s): bfs, nn" in text
        assert "cache_hit" in text and "span_end" in text
        assert "session" in text and "measure" in text
        assert "hit rate 66.7%" in text  # 2 hits, 1 miss

    def test_empty_trace(self):
        assert "0 event(s)" in summarize_trace([])


class TestFilter:
    def test_by_session(self, trace_path):
        events = read_trace(trace_path)
        kept = filter_trace(events, session="nn")
        assert kept and all(e.get("session") == "nn" for e in kept)

    def test_by_kind(self, trace_path):
        events = read_trace(trace_path)
        kept = filter_trace(events, kinds=["cache_hit", "cache_miss"])
        assert {e["kind"] for e in kept} == {"cache_hit", "cache_miss"}

    def test_combined(self, trace_path):
        events = read_trace(trace_path)
        kept = filter_trace(events, session="bfs", kinds=["cache_hit"])
        assert len(kept) == 1


class TestDiff:
    def test_identical_traces_have_no_diffs(self, trace_path):
        events = read_trace(trace_path)
        assert diff_traces(events, list(events)) == []

    def test_wall_clock_is_ignored_by_default(self, trace_path):
        events = read_trace(trace_path)
        other = [dict(e) for e in events]
        other[0]["wall"] = 1.5
        assert diff_traces(events, other) == []
        assert diff_traces(events, other, ignore_wall=False)

    def test_divergent_event_is_reported_with_seq(self, trace_path):
        events = read_trace(trace_path)
        other = [dict(e) for e in events]
        other[2] = {**other[2], "kind": "cache_hit"}
        diffs = diff_traces(events, other)
        assert len(diffs) == 1
        assert diffs[0].startswith("seq 3:")

    def test_length_mismatch_is_reported(self, trace_path):
        events = read_trace(trace_path)
        diffs = diff_traces(events, events[:-1])
        assert any("lengths differ" in d for d in diffs)

    def test_limit_stops_the_flood(self, trace_path):
        events = read_trace(trace_path)
        other = [{**e, "kind": "trial"} for e in events]
        diffs = diff_traces(events, other, limit=2)
        assert any("stopped after 2" in d for d in diffs)


class TestChromeExport:
    def test_emits_balanced_duration_events(self, trace_path):
        doc = to_chrome(read_trace(trace_path))
        events = doc["traceEvents"]
        b = [e for e in events if e["ph"] == "B"]
        e_ = [e for e in events if e["ph"] == "E"]
        assert len(b) == len(e_) == 3
        assert all(ev["cat"] == "span" for ev in b + e_)

    def test_sessions_become_named_threads(self, trace_path):
        doc = to_chrome(read_trace(trace_path))
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"bfs", "nn", "<engine>"} <= names
        # All events of one session share that session's tid.
        tid = next(e["tid"] for e in meta if e["args"]["name"] == "bfs")
        bfs = [
            e
            for e in doc["traceEvents"]
            if e["ph"] != "M" and e["tid"] == tid
        ]
        assert bfs and all(e["pid"] == 1 for e in bfs)

    def test_timestamps_are_sequence_numbers(self, trace_path):
        events = read_trace(trace_path)
        doc = to_chrome(events)
        timed = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert [e["ts"] for e in timed] == [e["seq"] for e in events]

    def test_document_is_valid_trace_event_json(self, trace_path):
        doc = to_chrome(read_trace(trace_path))
        revived = json.loads(json.dumps(doc))
        assert revived["displayTimeUnit"] == "ms"
        assert revived["otherData"]["trace_schema_version"] == 1
        for event in revived["traceEvents"]:
            assert {"ph", "pid", "tid"} <= event.keys()

    def test_instant_events_carry_data_as_args(self, trace_path):
        doc = to_chrome(read_trace(trace_path))
        finish = next(
            e for e in doc["traceEvents"] if e["name"] == "engine_finish"
        )
        assert finish["ph"] == "i"
        assert finish["args"]["sessions"] == 2


# ----------------------------------------------------------------------
# Cross-node merge
# ----------------------------------------------------------------------
TID = "9f2ab31c77d0e884"


def _span_pair(seq, name, span_id, trace=None, parent_span=None,
               wall=None, **extra):
    """A span_start/span_end pair at consecutive local seqs."""
    data = {"name": name, "span": span_id, "parent": None, **extra}
    if trace is not None:
        data["trace"] = trace
    if parent_span is not None:
        data["parent_span"] = parent_span
    start = {"seq": seq, "kind": "span_start", "session": None,
             "data": dict(data)}
    end = {"seq": seq + 1, "kind": "span_end", "session": None,
           "data": {**data, "status": "ok"}}
    if wall is not None:
        end["wall"] = wall
    return [start, end]


def two_node_traces(wall=None):
    """A client trace and a daemon trace linked by one remote hop.

    The client opens ``client_request`` span 1; the daemon's
    ``daemon_request`` names it via ``parent_span`` — the same link the
    real wire protocol produces — but the daemon's local seqs *start
    below* the client's, so an unnormalized merge would order effect
    before cause.
    """
    client = _span_pair(
        5, "client_request", 1, trace=TID, type="tune", wall=wall
    )
    daemon = _span_pair(
        1, "daemon_request", 1, trace=TID, parent_span=1, type="tune",
        wall=wall,
    )
    return {"client": client, "daemon": daemon}


class TestMergeTraces:
    def test_causality_shifts_the_downstream_node(self):
        merged = merge_traces(two_node_traces())
        by_node = {
            (e["node"], e["kind"]): e["ts"] for e in merged
        }
        # The daemon's span_start (local seq 1) lands after the
        # client's span_start (local seq 5): offset relaxation.
        assert by_node[("daemon", "span_start")] > by_node[
            ("client", "span_start")
        ]

    def test_events_are_sorted_by_merged_timestamp(self):
        merged = merge_traces(two_node_traces())
        stamps = [e["ts"] for e in merged]
        assert stamps == sorted(stamps)

    def test_unlinked_nodes_keep_offset_zero(self):
        traces = {
            "a": _span_pair(1, "session", 1),
            "b": _span_pair(1, "session", 1),
        }
        merged = merge_traces(traces)
        assert all(e["ts"] == e["seq"] for e in merged)

    def test_inputs_are_not_mutated(self):
        traces = two_node_traces()
        merge_traces(traces)
        assert "ts" not in traces["client"][0]
        assert "node" not in traces["daemon"][0]

    def test_three_hop_chain_is_transitive(self):
        # client -> entry (forward) -> owner: the owner's offset must
        # absorb both hops even though it only links to the entry node.
        traces = {
            "client": _span_pair(9, "client_request", 1, trace=TID),
            "entry": _span_pair(
                1, "daemon_request", 1, trace=TID, parent_span=1
            ),
            "owner": _span_pair(
                1, "daemon_request", 7, trace=TID, parent_span=1
            ),
        }
        # Disambiguate: the owner's parent_span 1 exists on both other
        # nodes; entry's own request span must be found via (trace,
        # span) identity. Give entry a distinct span id for the hop.
        traces["entry"] = _span_pair(
            1, "daemon_request", 2, trace=TID, parent_span=1
        )
        traces["owner"] = _span_pair(
            1, "daemon_request", 7, trace=TID, parent_span=2
        )
        merged = merge_traces(traces)
        start = {
            e["node"]: e["ts"] for e in merged if e["kind"] == "span_start"
        }
        assert start["client"] < start["entry"] < start["owner"]


class TestMergedChrome:
    def test_each_node_becomes_a_process(self):
        doc = merged_to_chrome(merge_traces(two_node_traces()))
        procs = {
            e["args"]["name"]: e["pid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert set(procs) == {"client", "daemon"}
        assert len(set(procs.values())) == 2

    def test_timestamps_are_merged_not_local(self):
        merged = merge_traces(two_node_traces())
        doc = merged_to_chrome(merged)
        timed = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert [e["ts"] for e in timed] == [e["ts"] for e in merged]

    def test_span_pairs_balance_per_process(self):
        doc = merged_to_chrome(merge_traces(two_node_traces()))
        for ph in ("B", "E"):
            assert (
                len([e for e in doc["traceEvents"] if e["ph"] == ph]) == 2
            )


class TestSlowTraces:
    def test_ranks_by_request_span_wall(self):
        fast = {"n1": _span_pair(
            1, "daemon_request", 1, trace="aa" * 8, type="ping", wall=0.01
        )}
        slow = {"n1": fast["n1"] + _span_pair(
            3, "daemon_request", 2, trace="bb" * 8, type="tune", wall=2.5
        )}
        rows = slow_traces(merge_traces(slow))
        assert [row["trace"] for row in rows] == ["bb" * 8, "aa" * 8]
        assert rows[0]["wall"] == 2.5
        assert rows[0]["types"] == ["tune"]

    def test_wall_suppressed_traces_rank_by_extent(self):
        rows = slow_traces(merge_traces(two_node_traces()))
        (row,) = rows
        assert row["wall"] is None
        assert row["extent"] >= 2
        assert row["nodes"] == ["client", "daemon"]

    def test_top_limits_rows(self):
        events = []
        for index in range(5):
            events.extend(_span_pair(
                1 + 2 * index, "daemon_request", index + 1,
                trace=f"{index:016x}", wall=float(index),
            ))
        rows = slow_traces(merge_traces({"n1": events}), top=2)
        assert len(rows) == 2
        assert rows[0]["wall"] == 4.0

    def test_untraced_events_are_ignored(self):
        rows = slow_traces(merge_traces({"n1": _span_pair(1, "session", 1)}))
        assert rows == []


class TestParseTraceText:
    def test_parses_and_labels_errors_with_source(self):
        text = '{"seq": 1, "kind": "trial", "data": {}}\nbroken\n'
        with pytest.raises(ValueError, match="daemon-a:2"):
            parse_trace_text(text, source="daemon-a")

    def test_matches_read_trace(self, trace_path):
        text = trace_path.read_text(encoding="utf-8")
        assert parse_trace_text(text) == read_trace(trace_path)
