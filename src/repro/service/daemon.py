"""The asyncio tuning daemon (``repro serve``).

A localhost socket server that turns the in-process tuning machinery
into a shared service: clients submit a multi-version binary plus a
workload description; the daemon answers from the persistent
:class:`~repro.service.store.TuningStore` when it already knows the
winner (a *warm hit* — zero measurement-backend invocations) and
otherwise drives one :class:`~repro.runtime.session.TuningSession`
through its :class:`~repro.runtime.engine.ExecutionEngine` on one of
its tune workers and puts the session's record in the store.  The
daemon is its store's only client: its engine runs without a store.

A tune request's binary is parsed only as far as its container
(:func:`decode_binary`): the store key, the ring owner and forwarding
read nothing but the raw version bytes, so warm hits and forwarding
hops decode no module.  A cold tune this node admits decodes every
version first and answers ``bad-request`` if one does not decode, so no
job and no record ever exist for such a binary.

Load discipline, in order of application:

1. **single-flight dedup** — concurrent tune requests for the same
   tuning key join one in-flight job instead of re-measuring;
2. **admission control** — at most ``max_pending`` distinct tune jobs
   may be queued or running; beyond that the request is rejected
   immediately with ``code="queue-full"`` and a ``retry_after`` hint
   (backpressure, not buffering);
3. **per-request timeout** — a tune that exceeds ``request_timeout``
   answers ``code="timeout"`` while the underlying job keeps running
   (a later identical request joins it via single-flight).

Below the session layer, the tune workers share one engine: a
candidate measurement that two tune jobs miss at once runs the backend
once (the engine's single-flight) and lands in its measurement cache.

Every request is wrapped in a ``daemon_request`` span, charged exactly
once to ``orion_daemon_requests_total{type,outcome}`` and the
``orion_daemon_request_seconds`` histogram, and the live job count is
mirrored in the ``orion_daemon_queue_depth`` gauge — so a trace plus a
metrics snapshot fully narrates what the daemon did.  Framing-level
failures (the connection is unusable afterwards) are counted under the
distinct outcome ``bad-frame`` so they can never alias a dispatched
request's count.

Three always-on diagnostics ride on the same dispatch seam:

* **distributed tracing** — a request carrying ``trace_id``/
  ``parent_span_id`` envelope fields (or any request, when this daemon
  writes a trace file: an untraced request gets a freshly minted id)
  runs under that :class:`~repro.obs.context.TraceContext`; every
  telemetry event it causes — the ``daemon_request`` span, engine and
  session spans on the worker threads, forward and replicate hops to
  peers — carries the trace id, the latency histogram keeps the id as
  an exemplar, and ``repro trace merge`` joins the per-node files back
  into one timeline.  The hub, the open span and the trace ids are the
  request's ambient context (:mod:`repro.obs.context`): each connection
  handler is its own asyncio task, so concurrent requests on the one
  event-loop thread never see each other's span, and the tune and store
  executors run each job in a fresh ``contextvars.copy_context()`` of
  the request that submitted it;
* **structured logging** — lifecycle, failures, and retries go to the
  JSONL log (``--log-file`` / ``$ORION_LOG``) with trace correlation;
* **the flight recorder** — every dispatched request leaves a summary
  (trace, verb, outcome, latency, hops, peer) in a bounded in-memory
  ring, dumped to the log when a request times out or fails and served
  live as ``GET /debug/requests`` on the HTTP sidecar.

**Cluster mode** (``repro serve --ring``, see
:mod:`repro.service.cluster`): the daemon knows its ring position and

* serves *warm hits from its local store* no matter who owns the key
  (replication puts copies everywhere they're allowed to be);
* *forwards* cold tunes for keys it does not own to the owner over the
  v2 ``forward`` verb, loop-guarded by a hop counter — and degrades to
  tuning locally when the owner is unreachable, so a dead node never
  takes its keyspace slice down with it;
* *replicates* every winner it publishes to the key's replica set, and
  answers peers' ``replicate``/``sync`` frames by applying their
  op-log records to its own store.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.compiler.multiversion import MultiVersionBinary
from repro.isa.encoding import CodecError
from repro.obs.context import (
    TraceContext,
    current_span,
    current_trace,
    new_trace_id,
    use_hub,
    use_trace,
)
from repro.obs.flight import FlightRecorder
from repro.obs.log import StructuredLogger, get_logger
from repro.obs.spans import span
from repro.runtime.engine import ExecutionEngine
from repro.runtime.session import TuningSession, Workload
from repro.service import protocol
from repro.service.cluster import ClusterConfig, Replicator, node_address
from repro.service.fingerprint import kernel_fingerprint, tuning_key
from repro.service.store import TuningRecord, TuningStore, record_from_report
from repro.sim.interp import LaunchConfig
from repro.sim.trace import MemoryTraits

#: request-latency histogram boundaries (seconds) — sub-millisecond
#: store hits through multi-second cold tunes
_LATENCY_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0)

#: pull-side catch-up at startup: per-peer attempts and spacing
_SYNC_ATTEMPTS = 3
_SYNC_RETRY_DELAY = 0.2


@dataclass
class DaemonConfig:
    """Everything ``repro serve`` lets an operator set."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: ephemeral; the bound port lands in port_file
    port_file: str | os.PathLike | None = None
    max_pending: int = 8  # admission bound on queued-or-running tunes
    request_timeout: float = 30.0  # seconds before a tune answers timeout
    retry_after: float = 0.05  # backpressure hint on queue-full rejections
    jobs: int = 2  # worker threads driving the engine
    http_port: int | None = None  # /metrics + /healthz sidecar (None: off)
    cluster: ClusterConfig | None = field(default=None)  # --ring membership
    log_file: str | os.PathLike | None = None  # structured JSONL log
    flight_entries: int = 128  # flight-recorder ring capacity


def workload_from_payload(payload: dict) -> Workload:
    """Build a :class:`Workload` from a request's ``workload`` object.

    Raises ``ValueError`` on anything malformed — the daemon maps that
    to a ``bad-request`` response rather than dying.
    """
    if not isinstance(payload, dict):
        raise ValueError("workload must be an object")
    launch = LaunchConfig(
        grid_blocks=int(payload.get("grid_blocks", 1)),
        block_size=int(payload.get("block_size", 32)),
        params={
            int(k): v for k, v in (payload.get("params") or {}).items()
        },
    )
    traits_payload = payload.get("traits") or {}
    if not isinstance(traits_payload, dict):
        raise ValueError("workload.traits must be an object")
    work_profile = payload.get("work_profile")
    if work_profile is not None:
        work_profile = [float(w) for w in work_profile]
    return Workload(
        launch=launch,
        iterations=int(payload.get("iterations", 1)),
        traits=MemoryTraits(**traits_payload),
        ilp=float(payload.get("ilp", 1.0)),
        max_events_per_warp=int(payload.get("max_events_per_warp", 6000)),
        work_profile=work_profile,
    )


def decode_binary(encoded: str) -> MultiVersionBinary:
    """A tune request's binary: base64, then the container parse.

    The versions' modules stay undecoded; the daemon decodes them only
    for a cold tune it admits.  Raises ``ValueError`` on anything
    malformed, which the daemon answers with ``bad-request``.
    """
    try:
        raw = base64.b64decode(encoded.encode("ascii"), validate=True)
    except (AttributeError, binascii.Error, UnicodeEncodeError):
        raise ValueError("binary is not valid base64") from None
    try:
        return MultiVersionBinary.from_bytes(raw)
    except CodecError as exc:
        raise ValueError(f"binary is malformed: {exc}") from exc


class TuningDaemon:
    """The server: store in front, engine worker pool behind."""

    def __init__(
        self,
        engine: ExecutionEngine,
        store: TuningStore,
        config: DaemonConfig | None = None,
    ) -> None:
        self.engine = engine
        self.store = store
        self.config = config or DaemonConfig()
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.config.jobs),
            thread_name_prefix="orion-tune",
        )
        # Store calls fsync and contend for a cross-process file lock, so
        # they never run on the event-loop thread.  They get their own
        # single worker (the store serializes internally anyway) rather
        # than the tune pool, where a warm hit could queue behind a
        # multi-second cold tune.
        self._store_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="orion-store"
        )
        #: tuning key → in-flight tune future (single-flight dedup)
        self._inflight: dict[str, asyncio.Future] = {}
        #: distinct tune jobs queued or running (admission control)
        self._pending = 0
        #: open connection-handler tasks (drained on shutdown)
        self._conn_tasks: set[asyncio.Task] = set()
        # -- cluster state (all None/absent in single-daemon mode) -----
        self.cluster = self.config.cluster
        self._ring = self.cluster.hash_ring() if self.cluster else None
        self._replicator: Replicator | None = None
        self._sync_task: asyncio.Task | None = None
        #: origin node → (generation, last applied seq), replication lag
        self._replication_seen: dict[str, tuple[str | None, int]] = {}
        self.http: "object | None" = None
        self.http_port: int | None = None
        #: recent request summaries (``/debug/requests``, failure dumps)
        self.flight = FlightRecorder(self.config.flight_entries)
        # A --log-file gets this daemon its own logger (tests run many
        # daemons per process); otherwise share the $ORION_LOG one.
        self.log = (
            StructuredLogger(self.config.log_file)
            if self.config.log_file
            else get_logger()
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.port_file:
            path = Path(self.config.port_file)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(f"{self.port}\n", encoding="utf-8")
        if self.config.http_port is not None:
            from repro.service.http import HttpAdmin

            self.http = HttpAdmin(
                self, host=self.config.host, port=self.config.http_port
            )
            await self.http.start()
            self.http_port = self.http.port
        if self.cluster is not None:
            self._replicator = Replicator(
                self.cluster.node_id,
                self.cluster.peers,
                snapshot_ops=self._snapshot_ops,
                generation=lambda: self.store.generation,
                peer_timeout=self.cluster.peer_timeout,
                log=self.log,
            )
            self._replicator.start()
            # Pull-side catch-up: a (re)starting node asks each peer for
            # the records it should hold, off the serving path.
            self._sync_task = asyncio.get_running_loop().create_task(
                self._pull_sync()
            )
        self.log.info(
            "daemon_listening",
            host=self.config.host,
            port=self.port,
            http_port=self.http_port,
            node=self.cluster.node_id if self.cluster else None,
            arch=self.engine.arch.name,
            backend=self.engine.backend.name,
        )

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop` (or a shutdown request).

        Shutdown *drains*: in-flight tune jobs get up to the request
        timeout to finish and publish, and their connection handlers
        get a short grace period to flush responses, before any
        executor is torn down — a winner computed mid-shutdown is never
        dropped unpublished.  The server then stops accepting, and the
        handlers still open are cancelled and awaited.
        """
        if self._server is None:
            await self.start()
        async with self._server:
            await self._stop.wait()
            await self._drain()
        if self._sync_task is not None:
            self._sync_task.cancel()
            try:
                await self._sync_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        if self._replicator is not None:
            await self._replicator.stop()
        if self.http is not None:
            await self.http.close()
        # A connection accepted just before the server closed can start
        # its handler during the awaits above, after the drain's sweep.
        await self._close_handlers()
        self._pool.shutdown(wait=True)
        self._store_pool.shutdown(wait=True)
        self.engine.telemetry.flush()
        self.log.info("daemon_stopped", port=self.port)
        if self.config.log_file:
            self.log.close()

    async def _drain(self) -> None:
        """Wait (bounded) for in-flight tunes and their responses, then
        close the connections still open."""
        pending = [
            future for future in self._inflight.values() if not future.done()
        ]
        if pending:
            await asyncio.wait(pending, timeout=self.config.request_timeout)
        handlers = [task for task in self._conn_tasks if not task.done()]
        if handlers:
            # Enough for a completed job's response to hit the socket.
            await asyncio.wait(handlers, timeout=2.0)
        # Accept nothing more, and cancel the handlers still open (idle
        # keep-alive clients, requests that came in while draining), so
        # each closes its writer while the loop still runs.
        self._server.close()
        await self._close_handlers()

    async def _close_handlers(self) -> None:
        """Cancel and await connection handlers until none is open."""
        while True:
            await asyncio.sleep(0)  # let handlers already scheduled start
            handlers = [task for task in self._conn_tasks if not task.done()]
            if not handlers:
                return
            for task in handlers:
                task.cancel()
            await asyncio.gather(*handlers, return_exceptions=True)

    def stop(self) -> None:
        self._stop.set()

    async def run(self) -> None:
        await self.start()
        await self.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    payload = await protocol.read_frame(reader)
                except protocol.ProtocolError as exc:
                    # A framing failure is not a dispatched request:
                    # count it under its own outcome so a request can
                    # never be charged twice (once here, once by
                    # _dispatch for a later frame of this connection).
                    self._count("unknown", "bad-frame")
                    await self._respond(
                        writer,
                        protocol.error(protocol.CODE_BAD_REQUEST, str(exc)),
                    )
                    break  # framing is lost; the connection is unusable
                if payload is None:
                    break  # clean EOF
                response = await self._dispatch(payload)
                await self._respond(writer, response)
                if self._stop.is_set():
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away; nothing to answer
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _respond(
        self, writer: asyncio.StreamWriter, response: dict
    ) -> None:
        try:
            await protocol.write_frame(writer, response)
        except (ConnectionError, OSError):
            pass  # client vanished between request and response

    async def _dispatch(self, payload: dict) -> dict:
        """Route one request frame; charge metrics *exactly once*.

        Every dispatched frame — good, malformed envelope, or worker
        failure — reaches the single ``_count`` call below with one
        (type, outcome) pair, and the latency histogram observes the
        same population.
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        type_ = "unknown"
        trace_id, parent_span = protocol.trace_context(payload)
        if trace_id is None and self.engine.trace_path is not None:
            # This daemon records a trace: give even an untraced client
            # request an identity, so its spans can be found later.
            trace_id = new_trace_id()
        ctx = TraceContext(trace_id, parent_span) if trace_id else None
        try:
            type_ = protocol.validate_request(payload)
        except protocol.ProtocolError as exc:
            response = protocol.error(protocol.CODE_BAD_REQUEST, str(exc))
            outcome = "bad-request"
        else:
            span_labels = {"type": type_}
            if parent_span is not None:
                # The remote parent: the join key repro trace merge
                # uses to link this span under the sender's.
                span_labels["parent_span"] = parent_span
            with use_hub(self.engine.telemetry), use_trace(ctx), span(
                "daemon_request", **span_labels
            ):
                try:
                    response, outcome = await self._handle(type_, payload)
                except Exception as exc:  # noqa: BLE001 — daemon must survive
                    response = protocol.error(
                        protocol.CODE_INTERNAL,
                        f"{type(exc).__name__}: {exc}",
                    )
                    outcome = "internal-error"
        elapsed = loop.time() - start
        self._count(type_, outcome)
        _registry().histogram(
            "orion_daemon_request_seconds",
            "Daemon request latency by request type.",
            buckets=_LATENCY_BUCKETS,
        ).observe(elapsed, type=type_, exemplar=trace_id)
        self._record_flight(type_, outcome, elapsed, trace_id, payload, response)
        return response

    #: outcomes whose flight entry is worth dumping to the log
    _FAILURE_OUTCOMES = frozenset(
        ("timeout", "internal-error", "tune-failed", "forward-loop")
    )

    def _record_flight(
        self,
        type_: str,
        outcome: str,
        elapsed: float,
        trace_id: str | None,
        payload: dict,
        response: dict,
    ) -> None:
        """One flight-recorder entry per dispatched request.

        On a timeout or failure the entry — plus the recent ring tail —
        is also dumped to the structured log, so the moments leading up
        to a bad request survive even with no trace file configured.
        """
        hops = payload.get("hops")
        peer = response.get("node") if isinstance(response, dict) else None
        if self.cluster is not None and peer == self.cluster.node_id:
            peer = None  # answered locally; only name *other* nodes
        entry = self.flight.record(
            trace=trace_id,
            type=type_,
            outcome=outcome,
            ms=round(elapsed * 1000.0, 3),
            hops=hops if isinstance(hops, int) else None,
            peer=peer,
        )
        if outcome in self._FAILURE_OUTCOMES:
            self.log.error(
                "request_failed",
                trace=trace_id,
                type=type_,
                outcome=outcome,
                ms=entry["ms"],
                error=response.get("error"),
                recent=self.flight.tail(8),
            )

    async def _handle(
        self, type_: str, payload: dict, hops: int = 0
    ) -> tuple[dict, str]:
        if type_ == "ping":
            # Echo the negotiated version: a v1 client sees exactly the
            # v1 response bytes it always did.
            version = min(payload.get("v"), protocol.PROTOCOL_VERSION)
            return protocol.ok(version=version), "ok"
        if type_ == "stats":
            return await self._stats_response(), "ok"
        if type_ == "shutdown":
            self.stop()
            return protocol.ok(stopping=True), "ok"
        if type_ == "query":
            return await self._query(payload, hops)
        if type_ == "invalidate":
            return await self._invalidate(payload, hops)
        if type_ == "forward":
            return await self._forwarded(payload)
        if type_ == "replicate":
            return await self._replicate(payload)
        if type_ == "sync":
            return await self._sync(payload)
        return await self._tune(payload, hops)

    async def _store_call(self, fn, *args):
        """Run one blocking store operation off the event-loop thread,
        in a copy of the calling request's context, so anything the
        call records joins that request."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._store_pool, contextvars.copy_context().run, fn, *args
        )

    async def _query(self, payload: dict, hops: int = 0) -> tuple[dict, str]:
        key = payload.get("key")
        if not isinstance(key, str):
            return (
                protocol.error(
                    protocol.CODE_BAD_REQUEST, "query needs a key"
                ),
                "bad-request",
            )
        record = await self._store_call(self.store.peek, key)
        if record is not None:
            response = protocol.ok(found=True, record=record.to_payload())
            return self._stamp_node(response), "hit"
        # A local miss may be a misplaced key: when the client names the
        # kernel fingerprint, route the query to the ring owner.
        kernel = payload.get("kernel")
        if (
            self._ring is not None
            and isinstance(kernel, str)
            and kernel
        ):
            owner = self._ring.owner(kernel)
            if owner != self.cluster.node_id:
                forwarded = await self._forward_to(owner, payload, hops)
                if forwarded is not None:
                    return forwarded
        return self._stamp_node(protocol.ok(found=False, key=key)), "miss"

    async def _invalidate(
        self, payload: dict, hops: int = 0
    ) -> tuple[dict, str]:
        key = payload.get("key")
        if not isinstance(key, str):
            return (
                protocol.error(
                    protocol.CODE_BAD_REQUEST, "invalidate needs a key"
                ),
                "bad-request",
            )
        removed = await self._store_call(self.store.invalidate, key)
        # Replicas and even non-replica nodes may hold a copy (the ring
        # may have been resized); a client-originated invalidation
        # (hops == 0) therefore broadcasts the del op to every peer.
        if self._replicator is not None and hops == 0:
            self._replicator.publish({"op": "del", "key": key})
        return self._stamp_node(protocol.ok(removed=removed)), "ok"

    # ------------------------------------------------------------------
    # The tune path
    # ------------------------------------------------------------------
    async def _tune(self, payload: dict, hops: int = 0) -> tuple[dict, str]:
        try:
            binary = decode_binary(payload.get("binary") or "")
            workload = workload_from_payload(payload.get("workload") or {})
        except (ValueError, KeyError, TypeError) as exc:
            return (
                protocol.error(protocol.CODE_BAD_REQUEST, str(exc)),
                "bad-request",
            )
        key = tuning_key(
            binary,
            workload,
            self.engine.arch.name,
            self.engine.backend.name,
            self.engine.cache_config.value,
            arch_fingerprint=self.engine.arch.fingerprint(),
        )
        record = await self._store_call(self.store.get, key)
        if record is not None:
            # Replica-local warm hit: replication put a copy here, so
            # even a non-owner answers with zero measurements and zero
            # extra network hops.
            return (
                self._stamp_node(
                    protocol.ok(
                        source="store", key=key, record=record.to_payload()
                    )
                ),
                "store-hit",
            )
        kernel_fp = None
        if self._ring is not None:
            # Cold tune for a key this node does not own: hand it to
            # the owner so the kernel's single-flight dedup stays on
            # one daemon.  An unreachable owner degrades to tuning
            # locally — a dead node never blackholes its key range.
            kernel_fp = kernel_fingerprint(binary)
            owner = self._ring.owner(kernel_fp)
            if owner != self.cluster.node_id:
                forwarded = await self._forward_to(owner, payload, hops)
                if forwarded is not None:
                    return forwarded
        future = self._inflight.get(key)
        joined = future is not None
        if not joined:
            if self._stop.is_set():
                return (
                    protocol.error(
                        protocol.CODE_SHUTTING_DOWN,
                        "daemon is draining; no new tune jobs admitted",
                    ),
                    "shutting-down",
                )
            if self._pending >= self.config.max_pending:
                return (
                    protocol.error(
                        protocol.CODE_QUEUE_FULL,
                        f"{self._pending} tune job(s) pending "
                        f"(bound {self.config.max_pending})",
                        retry_after=self.config.retry_after,
                    ),
                    "queue-full",
                )
            try:
                # Validate before anything is queued or stored.  A joiner
                # skips this: the key hashes every version's bytes, so
                # its binary decodes exactly like the admitted one.
                binary.decode_modules()
            except CodecError as exc:
                return (
                    protocol.error(
                        protocol.CODE_BAD_REQUEST,
                        f"binary is malformed: {exc}",
                    ),
                    "bad-request",
                )
            future = self._admit(key, binary, workload)
        try:
            record = await asyncio.wait_for(
                asyncio.shield(future), self.config.request_timeout
            )
        except asyncio.TimeoutError:
            return (
                protocol.error(
                    protocol.CODE_TIMEOUT,
                    f"tune exceeded {self.config.request_timeout}s "
                    "(the job continues; retry to join it)",
                ),
                "timeout",
            )
        except Exception as exc:  # noqa: BLE001 — worker failure, not ours
            return (
                protocol.error(
                    protocol.CODE_INTERNAL,
                    f"tuning failed: {type(exc).__name__}: {exc}",
                ),
                "tune-failed",
            )
        if not joined and self._replicator is not None:
            await self._replicate_publish(
                key, kernel_fp or kernel_fingerprint(binary)
            )
        return (
            self._stamp_node(
                protocol.ok(
                    source="deduped" if joined else "tuned",
                    key=key,
                    record=record.to_payload(),
                )
            ),
            "deduped" if joined else "tuned",
        )

    def _admit(
        self, key: str, binary: MultiVersionBinary, workload: Workload
    ) -> asyncio.Future:
        loop = asyncio.get_running_loop()
        # contextvars do not cross run_in_executor: run the job in a
        # copy of this request's context, so engine and session spans
        # of this cold tune join the request's trace.
        future = loop.run_in_executor(
            self._pool, contextvars.copy_context().run, self._tune_sync,
            key, binary, workload,
        )
        self._inflight[key] = future
        self._pending += 1
        self._set_queue_depth()

        def _done(_future: asyncio.Future) -> None:
            self._inflight.pop(key, None)
            self._pending -= 1
            self._set_queue_depth()

        future.add_done_callback(_done)
        return future

    def _tune_sync(
        self, key: str, binary: MultiVersionBinary, workload: Workload
    ) -> TuningRecord:
        """One cold tune on a worker thread: run the session, put its
        record, return it.

        The daemon is its store's only client: its engine runs without
        a tuning store, so the request's own ``store.get`` is the one
        lookup a cold tune makes and this ``put`` its one write.
        """
        report = self.engine.run(TuningSession(binary, workload))
        record = record_from_report(
            key,
            kernel_fingerprint(binary),
            binary,
            report,
            self.engine.arch.name,
            self.engine.backend.name,
        )
        self.store.put(record)
        return record

    # ------------------------------------------------------------------
    # Cluster plane (forwarding, replication, catch-up)
    # ------------------------------------------------------------------
    def _stamp_node(self, response: dict) -> dict:
        """Name the answering node on cluster responses.

        Single-daemon responses stay byte-identical to a non-clustered
        daemon's — no field is added unless ``--ring`` was given.
        """
        if self.cluster is not None:
            response["node"] = self.cluster.node_id
        return response

    async def _forward_to(
        self, owner: str, payload: dict, hops: int
    ) -> tuple[dict, str] | None:
        """Relay a client request to the ring owner.

        Returns the (response, outcome) to answer with, or ``None``
        when the owner is unreachable — the caller then serves the
        request locally instead of failing it.
        """
        if hops + 1 > self.cluster.max_hops:
            return (
                protocol.error(
                    protocol.CODE_FORWARD_LOOP,
                    f"forward exceeded {self.cluster.max_hops} hop(s) "
                    "without finding an owner; ring views disagree",
                ),
                "forward-loop",
            )
        host, port = node_address(owner)
        wire = protocol.request("forward", hops=hops + 1, request=payload)
        ctx = current_trace()
        if ctx is not None:
            # The hop inherits this request's trace; our own
            # daemon_request span (the innermost open span here) is the
            # remote parent the owner's span will point back at.
            active = current_span()
            wire = protocol.stamp_trace(
                wire,
                ctx.trace_id,
                active.span_id if active is not None else ctx.parent_span_id,
            )
        try:
            response = await protocol.async_round_trip(
                host,
                port,
                wire,
                timeout=self.config.request_timeout,
            )
        except (OSError, protocol.ProtocolError, asyncio.TimeoutError) as exc:
            self._count_forward(owner, "peer-down")
            self.log.warn(
                "forward_peer_down", peer=owner, hops=hops + 1, error=str(exc)
            )
            return None
        self._count_forward(owner, "ok")
        return response, "forwarded"

    async def _forwarded(self, payload: dict) -> tuple[dict, str]:
        """Serve a ``forward`` frame from a peer daemon."""
        if self.cluster is None:
            return (
                protocol.error(
                    protocol.CODE_BAD_REQUEST,
                    "this daemon is not in cluster mode",
                ),
                "bad-request",
            )
        hops = payload.get("hops")
        inner = payload.get("request")
        if not isinstance(hops, int) or hops < 1 or not isinstance(inner, dict):
            return (
                protocol.error(
                    protocol.CODE_BAD_REQUEST,
                    "forward needs hops >= 1 and a request object",
                ),
                "bad-request",
            )
        if hops > self.cluster.max_hops:
            return (
                protocol.error(
                    protocol.CODE_FORWARD_LOOP,
                    f"forward traversed {hops} hop(s) on a "
                    f"{len(self.cluster.ring)}-node ring",
                ),
                "forward-loop",
            )
        try:
            inner_type = protocol.validate_request(inner)
        except protocol.ProtocolError as exc:
            return (
                protocol.error(protocol.CODE_BAD_REQUEST, str(exc)),
                "bad-request",
            )
        if inner_type not in protocol.FORWARDABLE_TYPES:
            return (
                protocol.error(
                    protocol.CODE_BAD_REQUEST,
                    f"request type {inner_type!r} cannot be forwarded",
                ),
                "bad-request",
            )
        return await self._handle(inner_type, inner, hops=hops)

    async def _replicate(self, payload: dict) -> tuple[dict, str]:
        """Apply a peer's shipped op-log records to the local store."""
        if self.cluster is None:
            return (
                protocol.error(
                    protocol.CODE_BAD_REQUEST,
                    "this daemon is not in cluster mode",
                ),
                "bad-request",
            )
        ops = payload.get("ops")
        if not isinstance(ops, list):
            return (
                protocol.error(
                    protocol.CODE_BAD_REQUEST, "replicate needs an ops list"
                ),
                "bad-request",
            )
        applied = await self._apply_ops(ops)
        origin = payload.get("origin")
        if isinstance(origin, str):
            seqs = [
                op.get("seq")
                for op in ops
                if isinstance(op, dict) and isinstance(op.get("seq"), int)
            ]
            previous = self._replication_seen.get(origin, (None, 0))[1]
            self._replication_seen[origin] = (
                payload.get("generation"),
                max(seqs, default=previous),
            )
        return protocol.ok(applied=applied), "ok"

    async def _sync(self, payload: dict) -> tuple[dict, str]:
        """Answer a peer's pull-side catch-up with the ops it should hold."""
        if self.cluster is None:
            return (
                protocol.error(
                    protocol.CODE_BAD_REQUEST,
                    "this daemon is not in cluster mode",
                ),
                "bad-request",
            )
        requester = payload.get("requester")
        if requester not in self.cluster.ring:
            return (
                protocol.error(
                    protocol.CODE_BAD_REQUEST,
                    f"sync requester {requester!r} is not a ring member",
                ),
                "bad-request",
            )
        generation, ops = await self._snapshot_ops()
        wanted = [op for op in ops if self._belongs_on(requester, op)]
        return protocol.ok(generation=generation, ops=wanted), "ok"

    def _belongs_on(self, node: str, op: dict) -> bool:
        """Should ``node`` hold the record this put op carries?

        Records whose kernel fingerprint is missing (legacy or foreign
        writes) are offered to everyone — over-replication is harmless,
        a silent gap is not.
        """
        record = op.get("record")
        kernel = record.get("kernel") if isinstance(record, dict) else None
        if not isinstance(kernel, str) or not kernel:
            return True
        return node in self._ring.replicas(kernel, self.cluster.replicas)

    async def _apply_ops(self, ops: list, only_missing: bool = False) -> int:
        """Apply put/del ops from a peer; returns how many landed.

        Malformed ops are skipped, not fatal — one bad record in a
        batch must not block the rest of the catch-up.  Applied ops are
        never re-published to the replicator (no replication loops).
        """
        applied = 0
        for op in ops:
            if not isinstance(op, dict):
                continue
            kind = op.get("op")
            key = op.get("key")
            if not isinstance(key, str) or not key:
                continue
            if kind == "put":
                record_payload = op.get("record")
                if not isinstance(record_payload, dict):
                    continue
                try:
                    record = TuningRecord.from_payload(record_payload)
                except (KeyError, TypeError, ValueError):
                    continue
                if only_missing:
                    existing = await self._store_call(self.store.peek, key)
                    if existing is not None:
                        continue
                await self._store_call(self.store.put, record)
                applied += 1
            elif kind == "del":
                await self._store_call(self.store.invalidate, key)
                applied += 1
        if applied:
            _registry().counter(
                "orion_cluster_replication_ops_total",
                "Replication ops by direction (shipped by origin, "
                "applied by replica).",
            ).inc(applied, direction="applied")
        return applied

    async def _replicate_publish(self, key: str, kernel_fp: str) -> None:
        """Enqueue a freshly tuned winner for its replica peers."""
        op = await self._store_call(self.store.op_for, key)
        if op is None:
            return  # evicted between publish and here; nothing to ship
        targets = [
            node
            for node in self._ring.replicas(kernel_fp, self.cluster.replicas)
            if node != self.cluster.node_id
        ]
        if targets:
            self._replicator.publish(op, peers=targets)

    async def _pull_sync(self) -> None:
        """Startup catch-up: ask each peer for this node's records."""
        for peer in self.cluster.peers:
            host, port = node_address(peer)
            for attempt in range(_SYNC_ATTEMPTS):
                try:
                    response = await protocol.async_round_trip(
                        host,
                        port,
                        protocol.request(
                            "sync", requester=self.cluster.node_id
                        ),
                        timeout=self.cluster.peer_timeout,
                    )
                except (
                    OSError,
                    protocol.ProtocolError,
                    asyncio.TimeoutError,
                ):
                    if attempt + 1 < _SYNC_ATTEMPTS:
                        await asyncio.sleep(_SYNC_RETRY_DELAY)
                    continue
                if response.get("ok") is True:
                    ops = response.get("ops")
                    if isinstance(ops, list):
                        # Only fill gaps: local records are never
                        # clobbered by a peer's possibly older copy.
                        await self._apply_ops(
                            [
                                op
                                for op in ops
                                if isinstance(op, dict)
                                and op.get("op") == "put"
                            ],
                            only_missing=True,
                        )
                break

    async def _snapshot_ops(self) -> tuple[str | None, list[dict]]:
        return await self._store_call(self.store.snapshot_ops)

    def _count_forward(self, peer: str, outcome: str) -> None:
        _registry().counter(
            "orion_cluster_forwards_total",
            "Requests forwarded to ring owners, by peer and outcome.",
        ).inc(peer=peer, outcome=outcome)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    async def _stats_response(self) -> dict:
        stats = await self._store_call(self.store.stats)
        daemon = {
            "pending": self._pending,
            "max_pending": self.config.max_pending,
            "inflight_keys": len(self._inflight),
            "jobs": self.config.jobs,
            "request_timeout": self.config.request_timeout,
            "arch": self.engine.arch.name,
            "backend": self.engine.backend.name,
        }
        response = protocol.ok(store=stats.to_payload(), daemon=daemon)
        if self.cluster is not None:
            response["cluster"] = self._cluster_stats()
        return response

    def _cluster_stats(self) -> dict:
        replicator = self._replicator
        return {
            "node_id": self.cluster.node_id,
            "ring": list(self.cluster.ring),
            "replicas": self.cluster.replicas,
            "vnodes": self.cluster.vnodes,
            "backlog": replicator.backlog() if replicator else {},
            "behind": replicator.behind() if replicator else [],
            "applied_from": {
                origin: {"generation": generation, "seq": seq}
                for origin, (generation, seq) in sorted(
                    self._replication_seen.items()
                )
            },
        }

    async def health(self) -> dict:
        """The ``/healthz`` document (see :mod:`repro.service.http`).

        ``ok`` is liveness *and* readiness: false while draining, so a
        load balancer stops routing to a daemon that is shutting down
        before its socket actually closes.
        """
        stats = await self._store_call(self.store.stats)
        body = {
            "ok": not self._stop.is_set(),
            "draining": self._stop.is_set(),
            "pending": self._pending,
            "max_pending": self.config.max_pending,
            "inflight": len(self._inflight),
            "store_entries": stats.entries,
            "arch": self.engine.arch.name,
            "backend": self.engine.backend.name,
        }
        if self.cluster is not None:
            body["cluster"] = self._cluster_stats()
        return body

    def _set_queue_depth(self) -> None:
        _registry().gauge(
            "orion_daemon_queue_depth",
            "Tune jobs currently queued or running in the daemon.",
        ).set(self._pending)

    def _count(self, type_: str, outcome: str) -> None:
        _registry().counter(
            "orion_daemon_requests_total",
            "Daemon requests by type and outcome.",
        ).inc(type=type_, outcome=outcome)


def _registry():
    from repro.obs.metrics import get_registry

    return get_registry()
