"""Span API tests: nesting, re-entrancy, hub events, span metrics, and
the ambient context across tasks, threads and executor hops."""

import asyncio
import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.context import (
    TraceContext,
    current_hub,
    current_span,
    current_trace,
    use_hub,
    use_trace,
)
from repro.obs.metrics import get_registry, reset_registry
from repro.obs.spans import span, span_timings
from repro.obs.telemetry import EventKind, InMemorySink, TelemetryHub


@pytest.fixture(autouse=True)
def fresh_registry():
    reset_registry()
    yield
    reset_registry()


def hub_with_sink(**kwargs):
    sink = InMemorySink()
    return TelemetryHub(sink, **kwargs), sink


def calls(name):
    return span_timings().get(name, {}).get("calls", 0)


class TestTimerCharging:
    def test_outermost_span_charges_timers_once(self):
        with span("alpha"):
            pass
        assert calls("alpha") == 1

    def test_reentrant_same_name_charges_only_outermost(self):
        """The old ``phase()`` double-counted this exact shape."""
        with span("alpha"):
            with span("alpha"):
                with span("beta"):
                    with span("alpha"):
                        pass
        assert calls("alpha") == 1

    def test_distinct_names_both_charge(self):
        with span("alpha"):
            with span("beta"):
                pass
        assert calls("alpha") == 1
        assert calls("beta") == 1

    def test_outermost_also_charges_span_metrics(self):
        with span("alpha"):
            with span("alpha"):
                pass
        counter = get_registry().get("orion_spans_total")
        assert counter.value(name="alpha") == 1
        seconds = get_registry().get("orion_span_seconds_total")
        assert span_timings()["alpha"]["seconds"] == seconds.value(name="alpha")


class TestHubEvents:
    def test_no_hub_means_no_events_but_still_times(self):
        assert current_hub() is None
        with span("alpha"):
            pass
        assert calls("alpha") == 1

    def test_emits_paired_start_end_with_labels(self):
        hub, sink = hub_with_sink()
        with use_hub(hub):
            with span("allocate", session="s", kernel="k"):
                pass
        start, end = sink.events
        assert start.kind is EventKind.SPAN_START
        assert end.kind is EventKind.SPAN_END
        assert start.session == end.session == "s"
        assert start.data["name"] == end.data["name"] == "allocate"
        assert start.data["kernel"] == end.data["kernel"] == "k"
        assert start.data["span"] == end.data["span"] == 1
        assert end.data["status"] == "ok"

    def test_nested_spans_link_parents(self):
        hub, sink = hub_with_sink()
        with use_hub(hub):
            with span("outer", session="s"):
                with span("inner", session="s"):
                    pass
        starts = sink.of(EventKind.SPAN_START)
        outer, inner = starts
        assert outer.data["parent"] is None
        assert inner.data["parent"] == outer.data["span"]

    def test_span_ids_are_scoped_per_session(self):
        hub, sink = hub_with_sink()
        with use_hub(hub):
            with span("work", session="a"):
                pass
            with span("work", session="b"):
                pass
        starts = sink.of(EventKind.SPAN_START)
        # Each session numbers its spans independently from 1.
        assert [e.data["span"] for e in starts] == [1, 1]

    def test_parent_links_do_not_cross_sessions(self):
        hub, sink = hub_with_sink()
        with use_hub(hub):
            with span("outer", session="a"):
                with span("inner", session="b"):
                    pass
        inner = sink.of(EventKind.SPAN_START)[1]
        assert inner.data["parent"] is None

    def test_error_status_propagates_and_reraises(self):
        hub, sink = hub_with_sink()
        with pytest.raises(RuntimeError):
            with use_hub(hub):
                with span("explode"):
                    raise RuntimeError("boom")
        (end,) = sink.of(EventKind.SPAN_END)
        assert end.data["status"] == "error"
        assert current_span() is None  # stack unwound

    def test_wall_duration_rides_the_separate_field(self):
        hub, sink = hub_with_sink()
        with use_hub(hub):
            with span("alpha"):
                pass
        start, end = sink.events
        assert start.wall is None
        assert end.wall is not None and end.wall >= 0

    def test_record_wall_false_suppresses_durations(self):
        hub, sink = hub_with_sink(record_wall=False)
        with use_hub(hub):
            with span("alpha"):
                pass
        assert all(e.wall is None for e in sink.events)


class TestUseHub:
    def test_nesting_restores_previous_hub(self):
        a, _ = hub_with_sink()
        b, _ = hub_with_sink()
        with use_hub(a):
            assert current_hub() is a
            with use_hub(b):
                assert current_hub() is b
            assert current_hub() is a
        assert current_hub() is None

    def test_reentrant_same_hub_is_harmless(self):
        hub, sink = hub_with_sink()
        with use_hub(hub), use_hub(hub):
            with span("alpha"):
                pass
        assert current_hub() is None
        assert len(sink.events) == 2


class TestAmbientContext:
    def test_interleaved_coroutines_each_see_their_own_span(self):
        """Two requests on one event loop: one span each, no cross links."""
        hub, sink = hub_with_sink()
        seen = {}

        async def request(tag, opened, other_opened):
            with span("daemon_request", tag=tag):
                mine = current_span()
                opened.set()
                await other_opened.wait()
                await asyncio.sleep(0)
                seen[tag] = (mine, current_span())

        async def main():
            first, second = asyncio.Event(), asyncio.Event()
            with use_hub(hub):
                await asyncio.gather(
                    request("a", first, second), request("b", second, first)
                )

        asyncio.run(main())
        starts = sink.of(EventKind.SPAN_START)
        assert [e.data["tag"] for e in starts] == ["a", "b"]
        assert [e.data["parent"] for e in starts] == [None, None]
        assert calls("daemon_request") == 2
        for tag, (before, after) in seen.items():
            assert after is before
        assert seen["a"][0].span_id != seen["b"][0].span_id
        assert current_span() is None

    def test_a_hub_installed_on_one_thread_is_invisible_on_another(self):
        hub, sink = hub_with_sink()
        seen = []

        def elsewhere():
            seen.append(current_hub())
            with span("elsewhere"):
                pass

        with use_hub(hub):
            thread = threading.Thread(target=elsewhere)
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == [None]
        assert sink.events == []
        assert calls("elsewhere") == 1

    def test_copy_context_hop_carries_hub_trace_and_parent(self):
        hub, sink = hub_with_sink()
        seen = []

        def hop():
            seen.append((current_hub(), current_trace()))
            with span("inner"):
                pass

        ctx = TraceContext("ab" * 8, 7)
        with use_hub(hub), use_trace(ctx), span("outer"):
            with ThreadPoolExecutor(max_workers=1) as pool:
                pool.submit(contextvars.copy_context().run, hop).result()
        assert seen == [(hub, ctx)]
        outer, inner = sink.of(EventKind.SPAN_START)
        assert inner.data["name"] == "inner"
        assert inner.data["parent"] == outer.data["span"]
        assert inner.data["trace"] == outer.data["trace"] == "ab" * 8
