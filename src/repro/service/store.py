"""The persistent tuning store: learned winners that survive the process.

An append-only JSONL operation log replayed into a key → record map:

* **crash-safe** — every operation is one line, and every one that
  changes what the store holds (``put``, ``del``, the header, a
  rewrite) is fsynced before it returns; the ``touch`` of a hit is not,
  so a crash can lose the recency of hits since the last synced op but
  never a record or a deletion; a torn final line (crash mid-write) is
  detected on replay and the file is truncated back to the last whole
  operation (*truncate-and-replay*);
* **multi-process** — every read-modify-write runs under an exclusive
  file lock (``fcntl.flock`` on a sidecar ``.lock`` file, with a
  create-exclusive spin fallback where ``fcntl`` is unavailable), and
  each locked section first replays whatever tail other processes
  appended since this process last looked;
* **schema-versioned** — the first line is a header naming the schema
  and version; a future-versioned or unreadable header moves the file
  aside to ``<path>.corrupt`` and starts fresh rather than guessing;
* **LRU-bounded** — records carry a logical last-used sequence number
  (no wall clock, so eviction order is deterministic and testable);
  when live entries exceed ``max_entries`` the smallest
  ``(last_used, key)`` is evicted with an explicit ``del`` op;
* **self-compacting** — when the log grows past a multiple of the live
  entry count, it is atomically rewritten (temp file + ``os.replace``)
  to one ``put`` per live record, preserving LRU order; every rewrite
  stamps a fresh header *generation id*, so other instances detect the
  rewrite even when the new file is larger than their replay offset and
  replay from byte 0 instead of trusting a stale offset.

Store traffic charges ``orion_store_*`` metrics in the process-wide
registry, so warm-start hit rates show up in ``repro metrics`` next to
the compile- and measurement-cache numbers.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

from repro.compiler.multiversion import MultiVersionBinary
from repro.runtime.engine import ExecutionEngine
from repro.runtime.session import TuningSession, Workload
from repro.service.fingerprint import kernel_fingerprint

try:  # pragma: no cover - exercised implicitly on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

SCHEMA = "orion-tuning-store"
SCHEMA_VERSION = 1

#: compact when the log holds this many ops per live record (min floor
#: keeps tiny stores from compacting on every other write)
_COMPACT_RATIO = 4
_COMPACT_FLOOR = 64

#: sentinel for a header whose generation cannot be read; compares
#: unequal to every real generation, forcing a full replay
_UNREADABLE = object()


class StoreError(Exception):
    """The store file cannot be used (locking failure, bad rewrite)."""


@dataclass
class TuningRecord:
    """One learned tuning outcome (the store's value type)."""

    key: str
    kernel: str  # kernel fingerprint (fingerprint.kernel_fingerprint)
    kernel_name: str
    arch: str
    backend: str
    winner_label: str
    winner_warps: int
    occupancy: float
    total_cycles: int
    iterations_to_converge: int | None = None
    source: str = "tuned"

    def to_payload(self) -> dict:
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "TuningRecord":
        return cls(
            key=payload["key"],
            kernel=payload["kernel"],
            kernel_name=payload["kernel_name"],
            arch=payload["arch"],
            backend=payload["backend"],
            winner_label=payload["winner_label"],
            winner_warps=payload["winner_warps"],
            occupancy=payload["occupancy"],
            total_cycles=payload["total_cycles"],
            iterations_to_converge=payload.get("iterations_to_converge"),
            source=payload.get("source", "tuned"),
        )


def tune_record(
    engine: ExecutionEngine,
    key: str,
    binary: MultiVersionBinary,
    workload: Workload,
) -> TuningRecord:
    """Tune ``binary`` on ``engine`` and build the record stored under ``key``.

    The one way a record is made from a tuned session.  Every version
    is decoded first, measured or not, so a binary whose bytes do not
    all decode never gets a record: the
    :class:`~repro.isa.encoding.CodecError` propagates instead.
    """
    binary.decode_modules()
    report = engine.run(TuningSession(binary, workload))
    final = report.final_version
    return TuningRecord(
        key=key,
        kernel=kernel_fingerprint(binary),
        kernel_name=binary.kernel_name,
        arch=engine.arch.name,
        backend=engine.backend.name,
        winner_label=final.label,
        winner_warps=final.achieved_warps,
        occupancy=final.occupancy,
        total_cycles=report.total_cycles,
        iterations_to_converge=report.iterations_to_converge,
    )


@dataclass
class StoreStats:
    """Point-in-time store health (``repro store stats``)."""

    path: str
    schema_version: int
    entries: int
    max_entries: int
    log_ops: int
    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    compactions: int = 0
    truncated_recoveries: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_payload(self) -> dict:
        payload = asdict(self)
        payload["hit_rate"] = self.hit_rate
        return payload


@dataclass
class _Entry:
    record: dict
    last_used: int = 0


class _FcntlLock:
    """Exclusive advisory lock on a sidecar file (POSIX)."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._handle = None

    def acquire(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a+")
        fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)

    def release(self) -> None:
        if self._handle is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None


class _SpinLock:
    """Create-exclusive lockfile spin (portable fallback)."""

    def __init__(self, path: Path, timeout: float = 10.0) -> None:
        self.path = path
        self.timeout = timeout

    def acquire(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                handle = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
                os.close(handle)
                return
            except FileExistsError:
                if time.monotonic() > deadline:
                    raise StoreError(
                        f"could not acquire store lock {self.path}"
                    ) from None
                time.sleep(0.005)

    def release(self) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:  # pragma: no cover - already released
            pass


class TuningStore:
    """Crash-safe, file-locked, LRU-bounded map of tuning outcomes."""

    def __init__(
        self,
        path: str | os.PathLike,
        max_entries: int = 1024,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.path = Path(path)
        self.max_entries = max_entries
        self._entries: dict[str, _Entry] = {}
        self._seq = 0
        self._offset = 0  # bytes of the log already replayed
        self._log_ops = 0
        #: generation id of the header this instance last replayed; a
        #: compaction (any process) stamps a fresh one, so a mismatch
        #: means the bytes behind ``_offset`` are not what we replayed
        self._generation: str | None = None
        self._thread_lock = threading.RLock()
        lock_path = self.path.with_name(self.path.name + ".lock")
        self._file_lock = (
            _FcntlLock(lock_path) if fcntl is not None else _SpinLock(lock_path)
        )
        # per-instance traffic counters (process-local, not persisted)
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0
        self._compactions = 0
        self._truncations = 0
        with self._locked():
            pass  # initial replay (creates the file + header if absent)

    # ------------------------------------------------------------------
    # Locking + replay
    # ------------------------------------------------------------------
    @contextmanager
    def _locked(self) -> Iterator[None]:
        with self._thread_lock:
            self._file_lock.acquire()
            try:
                self._sync()
                yield
            finally:
                self._file_lock.release()

    def _sync(self) -> None:
        """Bring in-memory state up to date with the on-disk log."""
        size = self.path.stat().st_size if self.path.exists() else 0
        if size == 0:
            # Removed, or truncated to nothing (e.g. crash mid-rewrite):
            # the records replayed so far are gone, so start over.
            self._reset_replay_state()
            self._write_header()
            return
        if size < self._offset or self._disk_generation() != self._generation:
            # Another process compacted (or rewrote) the log.  Size alone
            # cannot detect this — a compaction can *grow* the file past
            # our stale offset — so the header generation is the proof.
            # Either way the bytes behind ``_offset`` are not the ones we
            # replayed: start from byte 0.
            self._reset_replay_state()
        if size == self._offset:
            return
        with self.path.open("rb") as handle:
            handle.seek(self._offset)
            tail = handle.read()
        good = self._replay(tail, header_expected=self._offset == 0)
        if good == 0 and self._offset > 0 and tail:
            # A non-empty tail that replays to nothing means our offset
            # points mid-line into a rewritten file.  Never truncate the
            # live log from a stale offset — replay from scratch.
            self._reset_replay_state()
            with self.path.open("rb") as handle:
                tail = handle.read()
            good = self._replay(tail, header_expected=True)
        if good < len(tail):
            self._truncations += 1
            if self._offset + good == 0:
                # Not even the header is whole (crash mid-header): a
                # log without one would be quarantined on the next full
                # replay, so start a fresh log instead.
                self._write_header()
                return
            # Torn or corrupt tail: truncate back to the last whole op.
            with self.path.open("r+b") as handle:
                handle.truncate(self._offset + good)
                handle.flush()
                os.fsync(handle.fileno())
        self._offset += good

    def _reset_replay_state(self) -> None:
        self._entries.clear()
        self._seq = 0
        self._offset = 0
        self._log_ops = 0

    def _disk_generation(self):
        """The generation id in the on-disk header.

        Returns :data:`_UNREADABLE` (never equal to a real generation)
        when the header line is torn or not parseable, forcing the
        caller down the full-replay path where quarantine lives.
        """
        try:
            with self.path.open("rb") as handle:
                line = handle.readline()
        except OSError:
            return _UNREADABLE
        if not line.endswith(b"\n"):
            return _UNREADABLE
        try:
            header = json.loads(line)
        except ValueError:
            return _UNREADABLE
        if not isinstance(header, dict):
            return _UNREADABLE
        return header.get("generation")

    def _replay(self, data: bytes, header_expected: bool) -> int:
        """Apply whole ops from ``data``; return bytes consumed."""
        consumed = 0
        expect_header = header_expected
        for raw in data.split(b"\n"):
            line_span = len(raw) + 1
            if consumed + line_span > len(data):
                break  # no trailing newline: torn final line
            try:
                op = json.loads(raw)
                if not isinstance(op, dict):
                    raise ValueError("op is not an object")
                if expect_header:
                    self._check_header(op)
                    expect_header = False
                else:
                    self._apply(op)
            except (ValueError, KeyError, TypeError) as exc:
                if expect_header:
                    # Unusable header: preserve the evidence, start over.
                    self._quarantine(exc)
                    return 0
                break
            consumed += line_span
        return consumed

    def _check_header(self, op: dict) -> None:
        if op.get("schema") != SCHEMA:
            raise ValueError(f"not a tuning store (schema={op.get('schema')!r})")
        if op.get("version") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported store version {op.get('version')!r}"
            )
        self._generation = op.get("generation")

    def _quarantine(self, reason: Exception) -> None:
        backup = self.path.with_name(self.path.name + ".corrupt")
        os.replace(self.path, backup)
        self._reset_replay_state()
        self._truncations += 1
        self._write_header()
        _metrics().counter(
            "orion_store_recoveries_total",
            "Tuning-store files quarantined and restarted.",
        ).inc(reason=type(reason).__name__)

    def _apply(self, op: dict) -> None:
        kind = op["op"]
        seq = int(op["seq"])
        self._seq = max(self._seq, seq)
        self._log_ops += 1
        key = op["key"]
        if kind == "put":
            self._entries[key] = _Entry(record=op["record"], last_used=seq)
        elif kind == "touch":
            entry = self._entries.get(key)
            if entry is not None:
                entry.last_used = seq
        elif kind == "del":
            self._entries.pop(key, None)
        else:
            raise ValueError(f"unknown op {kind!r}")

    # ------------------------------------------------------------------
    # Log writing
    # ------------------------------------------------------------------
    def _write_header(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = self._header_line()
        with self.path.open("w", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        self._offset = len(line.encode("utf-8"))

    def _header_line(self) -> str:
        """A fresh header line; stamps a new generation on this instance."""
        self._generation = uuid.uuid4().hex
        return (
            json.dumps(
                {
                    "schema": SCHEMA,
                    "version": SCHEMA_VERSION,
                    "generation": self._generation,
                },
                sort_keys=True,
            )
            + "\n"
        )

    def _append(self, op: dict) -> None:
        line = json.dumps(op, sort_keys=True) + "\n"
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            # A touch only moves a record's advisory recency.  Written
            # under the file lock, every handle replays it at once, and
            # the next synced op's fsync (which flushes the whole file)
            # makes it durable; a crash before then loses recency only.
            if op["op"] != "touch":
                os.fsync(handle.fileno())
        self._offset += len(line.encode("utf-8"))
        self._log_ops += 1

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def get(self, key: str) -> TuningRecord | None:
        """Look up a record; a hit refreshes its LRU position.

        The hit appends an unsynced ``touch``: every handle sees the new
        recency at once, but a crash before the next synced op may lose
        it (never the record).
        """
        with self._locked():
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                _count_lookup("miss")
                return None
            seq = self._next_seq()
            entry.last_used = seq
            self._append({"op": "touch", "seq": seq, "key": key})
            self._hits += 1
            _count_lookup("hit")
            return TuningRecord.from_payload(entry.record)

    def peek(self, key: str) -> TuningRecord | None:
        """Look up without touching LRU state (``repro store export``)."""
        with self._locked():
            entry = self._entries.get(key)
            return (
                TuningRecord.from_payload(entry.record)
                if entry is not None
                else None
            )

    def put(self, record: TuningRecord) -> int:
        """Insert or replace one record; may evict under the LRU bound.

        Returns the op-log sequence number of the write, so callers
        that ship the op elsewhere (the cluster replicator) can quote
        the exact record they appended.
        """
        with self._locked():
            seq = self._next_seq()
            self._entries[record.key] = _Entry(
                record=record.to_payload(), last_used=seq
            )
            self._append(
                {
                    "op": "put",
                    "seq": seq,
                    "key": record.key,
                    "record": record.to_payload(),
                }
            )
            self._puts += 1
            _metrics().counter(
                "orion_store_writes_total", "Tuning-store records written."
            ).inc()
            self._evict_over_bound()
            self._maybe_compact()
            _metrics().gauge(
                "orion_store_entries", "Live tuning-store records."
            ).set(len(self._entries))
            return seq

    def invalidate(self, key: str) -> bool:
        """Drop one record; returns whether it existed."""
        with self._locked():
            if key not in self._entries:
                return False
            del self._entries[key]
            self._append({"op": "del", "seq": self._next_seq(), "key": key})
            return True

    def keys(self) -> list[str]:
        with self._locked():
            return sorted(self._entries)

    def export(self) -> list[dict]:
        """Every live record, sorted by key (stable, diffable)."""
        with self._locked():
            return [
                self._entries[key].record for key in sorted(self._entries)
            ]

    @property
    def generation(self) -> str | None:
        """The header generation id this instance last replayed.

        Stamped fresh on every compaction/rewrite; replication frames
        carry it so a replica can tell which incarnation of the origin
        log an op came from.
        """
        return self._generation

    def snapshot_ops(self) -> tuple[str | None, list[dict]]:
        """The live state as (generation, replayable ``put`` ops).

        Ops carry their records' current op-log sequence numbers and
        are ordered by ``(last_used, key)`` — replaying them into an
        empty store reproduces both the records and their LRU order.
        This is the catch-up payload the cluster replicator ships to a
        peer that reconnects after missing traffic.
        """
        with self._locked():
            ordered = sorted(
                self._entries.items(), key=lambda kv: (kv[1].last_used, kv[0])
            )
            return self._generation, [
                {
                    "op": "put",
                    "seq": entry.last_used,
                    "key": key,
                    "record": dict(entry.record),
                }
                for key, entry in ordered
            ]

    def op_for(self, key: str) -> dict | None:
        """The current ``put`` op for one live record, or ``None``.

        This is what the daemon hands the replicator after a cold tune:
        the exact op-log shape of the record as this store holds it,
        including its sequence number, so replicas apply the same bytes
        the origin logged.
        """
        with self._locked():
            entry = self._entries.get(key)
            if entry is None:
                return None
            return {
                "op": "put",
                "seq": entry.last_used,
                "key": key,
                "record": dict(entry.record),
            }

    def stats(self) -> StoreStats:
        with self._locked():
            return StoreStats(
                path=str(self.path),
                schema_version=SCHEMA_VERSION,
                entries=len(self._entries),
                max_entries=self.max_entries,
                log_ops=self._log_ops,
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                evictions=self._evictions,
                compactions=self._compactions,
                truncated_recoveries=self._truncations,
            )

    def gc(self) -> StoreStats:
        """Force a compaction; returns the post-compaction stats."""
        with self._locked():
            self._compact()
        return self.stats()

    def __len__(self) -> int:
        with self._locked():
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._locked():
            return key in self._entries

    # ------------------------------------------------------------------
    # Eviction + compaction (called under the lock)
    # ------------------------------------------------------------------
    def _evict_over_bound(self) -> None:
        while len(self._entries) > self.max_entries:
            victim = min(
                self._entries.items(),
                key=lambda kv: (kv[1].last_used, kv[0]),
            )[0]
            del self._entries[victim]
            self._append(
                {"op": "del", "seq": self._next_seq(), "key": victim}
            )
            self._evictions += 1
            _metrics().counter(
                "orion_store_evictions_total",
                "Tuning-store records evicted by the LRU bound.",
            ).inc()

    def _maybe_compact(self) -> None:
        threshold = max(_COMPACT_FLOOR, _COMPACT_RATIO * len(self._entries))
        if self._log_ops > threshold:
            self._compact()

    def _compact(self) -> None:
        """Atomically rewrite the log to one put per live record."""
        ordered = sorted(
            self._entries.items(), key=lambda kv: (kv[1].last_used, kv[0])
        )
        lines = [self._header_line().rstrip("\n")]
        self._seq = 0
        for key, entry in ordered:
            seq = self._next_seq()
            entry.last_used = seq
            lines.append(
                json.dumps(
                    {
                        "op": "put",
                        "seq": seq,
                        "key": key,
                        "record": entry.record,
                    },
                    sort_keys=True,
                )
            )
        payload = "\n".join(lines) + "\n"
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._offset = len(payload.encode("utf-8"))
        self._log_ops = len(ordered)
        self._compactions += 1
        _metrics().counter(
            "orion_store_compactions_total", "Tuning-store log compactions."
        ).inc()


# ----------------------------------------------------------------------
def _metrics():
    from repro.obs.metrics import get_registry

    return get_registry()


def _count_lookup(result: str) -> None:
    _metrics().counter(
        "orion_store_lookups_total",
        "Tuning-store lookups by result (warm-start hits and misses).",
    ).inc(result=result)
