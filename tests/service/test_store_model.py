"""The tuning store against a model: two handles on one log, with faults.

``StoreMachine`` drives two :class:`TuningStore` handles over one file
(``max_entries=3``, so eviction runs) through puts, gets,
invalidations, compactions, reopens, removal of the log, torn appends
and crashes, and after every step checks both handles against a dict
model: the live records and their least-recently-used order.

A crash cuts the log back to some length between its size at the last
``os.fsync`` and its size now, then reopens both handles.  The store
syncs every op that changes what it holds, so every acknowledged put
and delete survives every crash.  The ``touch`` a hit appends is not
synced, so a crash may lose the recency of hits made since the last
sync, and only those.

The shrunk counterexamples the machine found are the named regression
tests after it; the last tests pin which operations sync.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

import repro.service.store as store_module
from repro.service.store import TuningRecord, TuningStore

MAX_ENTRIES = 3
KEYS = st.sampled_from(["k0", "k1", "k2", "k3", "k4"])
HANDLE = st.sampled_from([0, 1])


def record(key: str, cycles: int = 100) -> TuningRecord:
    return TuningRecord(
        key=key,
        kernel="fp-" + key,
        kernel_name="k",
        arch="gtx680",
        backend="timing",
        winner_label="original",
        winner_warps=32,
        occupancy=0.5,
        total_cycles=cycles,
    )


def op_line(kind: str, key: str, seq: int, cycles: int = 100) -> str:
    """One op as the store logs it, without its newline."""
    op = {"op": kind, "seq": seq, "key": key}
    if kind == "put":
        op["record"] = record(key, cycles).to_payload()
    return json.dumps(op, sort_keys=True)


class FsyncSpy:
    """Stands in for ``os.fsync`` inside ``repro.service.store``.

    Records the size of each file it is asked to sync.  A simulated
    crash keeps at least the bytes the last call covered, so the real
    flush to the device would add nothing here.
    """

    def __init__(self) -> None:
        self.sizes: list[int] = []

    def __call__(self, fd: int) -> None:
        self.sizes.append(os.fstat(fd).st_size)

    @property
    def synced_size(self) -> int:
        return self.sizes[-1] if self.sizes else 0


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self._dir = tempfile.TemporaryDirectory()
        self.path = Path(self._dir.name) / "tuning.jsonl"
        self.spy = FsyncSpy()
        self._patch = mock.patch.object(store_module.os, "fsync", self.spy)
        self._patch.start()
        self.handles = [self._open(), self._open()]
        #: live key -> total_cycles of its record
        self.records: dict[str, int] = {}
        #: live keys, least recently used first
        self.order: list[str] = []
        #: ``order`` as of the last fsync, and the hits since then as
        #: (key, log size once its touch was written)
        self.durable: list[str] = []
        self.touches: list[tuple[str, int]] = []
        #: the last step changed the log behind both handles' backs (a
        #: removal, a torn line): the check waits for a store call to
        #: meet it, so that faults can pile up
        self.faulted = False

    def teardown(self) -> None:
        self._patch.stop()
        self._dir.cleanup()

    def _open(self) -> TuningStore:
        return TuningStore(self.path, max_entries=MAX_ENTRIES)

    def _log_size(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0

    def _synced_since(self, calls: int) -> None:
        """After a step that synced the log, its state so far is durable."""
        if len(self.spy.sizes) > calls:
            self.durable = list(self.order)
            self.touches = []

    def _acknowledged(self) -> None:
        """A put or delete returned: the whole log must be synced."""
        assert self.spy.synced_size == self._log_size()
        self.durable = list(self.order)
        self.touches = []

    def _use(self, key: str) -> None:
        if key in self.order:
            self.order.remove(key)
        self.order.append(key)

    @rule(handle=HANDLE, key=KEYS, cycles=st.integers(0, 9))
    def put(self, handle: int, key: str, cycles: int) -> None:
        self.faulted = False
        self.handles[handle].put(record(key, cycles))
        self.records[key] = cycles
        self._use(key)
        while len(self.order) > MAX_ENTRIES:
            del self.records[self.order.pop(0)]
        self._acknowledged()

    @rule(handle=HANDLE, key=KEYS)
    def get(self, handle: int, key: str) -> None:
        self.faulted = False
        calls = len(self.spy.sizes)
        got = self.handles[handle].get(key)
        # Only a repair of the log (a torn tail, a missing header)
        # syncs in a get, and it runs before the touch is appended.
        self._synced_since(calls)
        if key not in self.records:
            assert got is None
            return
        assert got is not None
        assert got.total_cycles == self.records[key]
        self._use(key)
        self.touches.append((key, self._log_size()))

    @rule(handle=HANDLE, key=KEYS)
    def invalidate(self, handle: int, key: str) -> None:
        self.faulted = False
        calls = len(self.spy.sizes)
        existed = self.handles[handle].invalidate(key)
        assert existed == (key in self.records)
        if existed:
            del self.records[key]
            self.order.remove(key)
            self._acknowledged()
        else:
            self._synced_since(calls)

    @rule(handle=HANDLE)
    def gc(self, handle: int) -> None:
        self.faulted = False
        stats = self.handles[handle].gc()
        assert stats.entries == len(self.records)
        assert stats.log_ops == len(self.records)
        self._acknowledged()

    @rule(handle=HANDLE)
    def reopen(self, handle: int) -> None:
        self.faulted = False
        calls = len(self.spy.sizes)
        self.handles[handle] = self._open()
        self._synced_since(calls)

    @rule()
    def remove_the_log(self) -> None:
        self.path.unlink(missing_ok=True)
        self.records.clear()
        self.order.clear()
        self.durable = []
        self.touches = []
        self.spy.sizes.clear()
        self.faulted = True

    @rule(
        kind=st.sampled_from(["put", "del", "touch"]),
        key=KEYS,
        data=st.data(),
    )
    def append_torn_line(self, kind: str, key: str, data) -> None:
        """A writer died mid-line: a prefix of one op, no newline."""
        line = op_line(kind, key, seq=10**6)
        cut = data.draw(st.integers(1, len(line)), label="torn length")
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line[:cut])
        self.faulted = True

    @rule(data=st.data())
    def crash(self, data) -> None:
        """Lose any unsynced suffix of the log, then reopen both handles."""
        self.faulted = False
        size = self._log_size()
        synced = self.spy.synced_size
        assert synced <= size
        cut = data.draw(st.integers(synced, size), label="crash cut")
        if self.path.exists():
            os.truncate(self.path, cut)
        # Records are all durable; recency keeps only the hits whose
        # touch lies inside the cut, replayed onto the durable order.
        self.touches = [(key, end) for key, end in self.touches if end <= cut]
        self.order = list(self.durable)
        for key, _ in self.touches:
            self._use(key)
        calls = len(self.spy.sizes)
        self.handles = [self._open(), self._open()]
        self._synced_since(calls)

    @invariant()
    def handles_agree_with_the_model(self) -> None:
        if self.faulted:
            return
        calls = len(self.spy.sizes)
        for handle in self.handles:
            _, ops = handle.snapshot_ops()
            assert [op["key"] for op in ops] == self.order
            assert {
                op["key"]: op["record"]["total_cycles"] for op in ops
            } == self.records
        self._synced_since(calls)


StoreMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
TestStoreModel = StoreMachine.TestCase


# ----------------------------------------------------------------------
# Counterexamples the machine shrank to, kept as named regressions.
# ----------------------------------------------------------------------


@pytest.fixture()
def store_path(tmp_path):
    return tmp_path / "tuning.jsonl"


def test_a_removed_log_stops_serving_its_records(store_path):
    a = TuningStore(store_path)
    a.put(record("x"))
    a.put(record("y"))
    store_path.unlink()
    assert a.get("x") is None
    assert TuningStore(store_path).keys() == []
    a.gc()
    assert TuningStore(store_path).keys() == []


def test_a_log_holding_only_a_torn_header_starts_afresh(store_path):
    """A crash mid-header leaves a log with no whole line.  The next
    write must not land in a log without a header, which the next full
    replay would quarantine, losing the write."""
    a = TuningStore(store_path)
    store_path.unlink()
    store_path.write_text(op_line("put", "k0", seq=1)[:1])
    a.put(record("k0"))
    assert a.keys() == ["k0"]
    assert TuningStore(store_path).keys() == ["k0"]
    assert not store_path.with_name(store_path.name + ".corrupt").exists()


# ----------------------------------------------------------------------
# Which operations sync.
# ----------------------------------------------------------------------


@pytest.fixture()
def fsyncs(monkeypatch):
    spy = FsyncSpy()
    monkeypatch.setattr(store_module.os, "fsync", spy)
    return spy.sizes


def test_a_hit_and_a_miss_do_not_sync(store_path, fsyncs):
    store = TuningStore(store_path)
    store.put(record("a"))
    fsyncs.clear()
    assert store.get("a") is not None
    assert store.get("missing") is None
    assert fsyncs == []


def test_put_syncs(store_path, fsyncs):
    store = TuningStore(store_path)
    fsyncs.clear()
    store.put(record("a"))
    assert fsyncs[-1] == store_path.stat().st_size


def test_invalidate_syncs(store_path, fsyncs):
    store = TuningStore(store_path)
    store.put(record("a"))
    fsyncs.clear()
    assert store.invalidate("a")
    assert fsyncs[-1] == store_path.stat().st_size


def test_an_eviction_syncs_its_delete(store_path, fsyncs):
    store = TuningStore(store_path, max_entries=1)
    store.put(record("a"))
    fsyncs.clear()
    store.put(record("b"))
    assert store.stats().evictions == 1
    # The put's line, then the eviction's ``del`` line, each synced.
    assert len(fsyncs) == 2
    last = store_path.read_text().splitlines()[-1]
    assert json.loads(last)["op"] == "del"
    assert fsyncs[-1] == store_path.stat().st_size


def test_gc_syncs(store_path, fsyncs):
    store = TuningStore(store_path)
    store.put(record("a"))
    fsyncs.clear()
    store.gc()
    assert fsyncs[-1] == store_path.stat().st_size


def test_a_touch_is_inside_the_next_puts_fsync(store_path, fsyncs):
    store = TuningStore(store_path)
    store.put(record("a"))
    store.get("a")
    touch_end = store_path.stat().st_size
    assert json.loads(store_path.read_text().splitlines()[-1])["op"] == "touch"
    fsyncs.clear()
    store.put(record("b"))
    assert fsyncs and fsyncs[-1] >= touch_end
