"""The warm-start client (``repro submit`` and library use).

A small synchronous client over the length-prefixed JSON protocol:

* **retry with backoff** — connection failures and ``queue-full``
  rejections are retried up to ``retries`` times; queue-full honours
  the daemon's ``retry_after`` hint, connection failures use a fixed
  deterministic backoff (no jitter — the reproduction keeps every
  schedule derivable from its inputs);
* **graceful degradation** — :func:`tune_with_fallback` is the entry
  point callers actually want: it asks the daemon first and, when the
  daemon is unreachable or persistently rejecting, falls back to
  in-process tuning through a local
  :class:`~repro.runtime.engine.ExecutionEngine` (charging
  ``orion_client_fallbacks_total`` so silent degradation shows up in
  metrics);
* **ring awareness** — :class:`RingClient` speaks to a ``--ring``
  cluster: it derives the same consistent-hash placement the daemons
  use (kernel fingerprint → owner), sends each request to the best
  node first, and fails over ring-wise when a node is down (charging
  ``orion_client_failovers_total``);
* **observability** — every logical request (including all its
  retries) is timed into the ``orion_client_request_seconds``
  histogram by type and outcome, so loadtest percentiles are
  cross-checkable against exported metrics; retries, failovers and
  fallbacks land in the structured log (``$ORION_LOG``); and when the
  client runs traced — an ambient trace context or telemetry hub is
  installed, or ``trace=True`` was passed — it mints a trace id,
  opens a ``client_request`` span, and stamps ``trace_id``/
  ``parent_span_id`` onto the wire envelope so the daemon's spans
  join the same distributed trace.  Untraced clients put exactly the
  pre-tracing bytes on the wire.

Every retry sleep is floored at :data:`MIN_BACKOFF`: a zero ``backoff``
or a zero ``retry_after`` hint from the daemon must never turn the
retry loop into a hot spin against a struggling service.

**Kept-alive connections.**  A client keeps the sockets of its finished
round trips open and idle, and the next request takes one instead of
connecting again; threads that send at once take one socket each, so a
client holds at most as many as it ever had requests in flight.  A
socket goes back to the idle list only after a whole response, and any
error or timeout closes it.  When the daemon closed an idle socket (it
restarted, or drained for shutdown), the request finds the connection
ended before the first response byte, or reset, and ``_round_trip``
sends it again once on a fresh connection: no retry, no backoff, no
``client_retry`` record.  A timeout never sends a request again inside
``_round_trip``.  :meth:`TuningClient.close` (or a ``with`` block)
closes the idle sockets.
"""

from __future__ import annotations

import base64
import socket
import threading
import time
from pathlib import Path

from repro.compiler.multiversion import MultiVersionBinary
from repro.runtime.engine import ExecutionEngine
from repro.runtime.session import Workload
from repro.service import protocol
from repro.service.fingerprint import tuning_key
from repro.service.protocol import ProtocolError
from repro.service.store import tune_record

#: lowest allowed retry sleep (seconds); see the module docstring
MIN_BACKOFF = 0.01

#: client-request-latency boundaries — the daemon's request buckets,
#: so client-side and daemon-side histograms compare bucket-for-bucket
_LATENCY_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0)


class ServiceUnavailable(ConnectionError):
    """The daemon could not be reached (or kept rejecting) in time.

    A :class:`ConnectionError` so callers treating the service as plain
    I/O (the CLI's ``except OSError``) degrade without special-casing.
    """


class ServiceRejected(Exception):
    """The daemon answered with a non-retryable failure response."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


def read_port_file(path: str | Path) -> int:
    """The port a daemon wrote via ``--port-file``."""
    text = Path(path).read_text(encoding="utf-8").strip()
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"port file {path} does not contain a port") from None


class TuningClient:
    """One daemon endpoint, sync, over kept-alive connections (see the
    module docstring); close it, or use it in a ``with`` block."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int | None = None,
        port_file: str | Path | None = None,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.05,
        trace: bool | None = None,
    ) -> None:
        if port is None and port_file is None:
            raise ValueError("need a port or a port file")
        self.host = host
        self._port = port
        self._port_file = port_file
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        #: None = trace when a trace context or telemetry hub is
        #: ambient; True = always mint; False = never stamp the wire
        self.trace = trace
        #: open sockets between round trips, taken one per round trip
        self._idle: list[socket.socket] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections (a later request opens a new one)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()

    def __enter__(self) -> "TuningClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def port(self) -> int:
        if self._port is None:
            self._port = read_port_file(self._port_file)
        return self._port

    # ------------------------------------------------------------------
    def request(self, payload: dict) -> dict:
        """One logical request: tracing, timing, then retry/backoff.

        Retryable: connection failures and ``queue-full`` rejections.
        Anything else — including other error responses — returns (or
        raises) immediately.  The whole exchange (all attempts) is one
        ``orion_client_request_seconds`` observation; when traced, it
        is also one ``client_request`` span and the wire envelope
        carries the trace context.
        """
        type_ = str(payload.get("type", "unknown"))
        started = time.perf_counter()
        outcome = "unavailable"
        try:
            ctx = self._trace_context()
            if ctx is None:
                response = self._attempts(payload)
            else:
                response = self._traced_attempts(payload, ctx)
            if response.get("ok") is False:
                outcome = str(response.get("code", "error"))
            else:
                outcome = "ok"
            return response
        finally:
            _charge_latency(
                type_, outcome, time.perf_counter() - started
            )

    def _trace_context(self):
        """The context this request runs under, or ``None`` untraced."""
        if self.trace is False:
            return None
        from repro.obs.context import (
            TraceContext,
            current_hub,
            current_trace,
            new_trace_id,
        )

        ctx = current_trace()
        if ctx is not None:
            return ctx
        if self.trace or current_hub() is not None:
            return TraceContext(new_trace_id())
        return None

    def _traced_attempts(self, payload: dict, ctx) -> dict:
        """Run the retry loop inside ``ctx``, under a client span.

        The span's id becomes the wire ``parent_span_id``, so the
        daemon's ``daemon_request`` span can name its remote parent.
        Without a hub there is no local span (nothing would record it)
        and the request is stamped with the context's own parent.
        """
        from repro.obs.context import current_hub, current_span, use_trace
        from repro.obs.spans import span

        with use_trace(ctx):
            if current_hub() is None:
                wire = protocol.stamp_trace(
                    payload, ctx.trace_id, ctx.parent_span_id
                )
                return self._attempts(wire)
            with span(
                "client_request",
                type=payload.get("type"),
                target=f"{self.host}:{self.port}",
            ):
                active = current_span()
                parent = (
                    active.span_id
                    if active is not None and active.span_id is not None
                    else ctx.parent_span_id
                )
                wire = protocol.stamp_trace(payload, ctx.trace_id, parent)
                return self._attempts(wire)

    def _attempts(self, payload: dict) -> dict:
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                delay = self._delay(last_error, attempt)
                _log().warn(
                    "client_retry",
                    target=f"{self.host}:{self.port}",
                    type=payload.get("type"),
                    attempt=attempt,
                    delay=delay,
                    error=str(last_error),
                )
                time.sleep(delay)
            try:
                response = self._round_trip(payload)
            except (ConnectionError, OSError, ProtocolError) as exc:
                last_error = exc
                continue
            if (
                response.get("ok") is False
                and response.get("code") == protocol.CODE_QUEUE_FULL
            ):
                last_error = ServiceRejected(
                    response["code"], response.get("error", "queue full")
                )
                last_error.retry_after = response.get("retry_after")
                continue
            return response
        _log().error(
            "client_unavailable",
            target=f"{self.host}:{self.port}",
            type=payload.get("type"),
            attempts=self.retries + 1,
            error=str(last_error),
        )
        raise ServiceUnavailable(
            f"daemon at {self.host}:{self.port} unavailable after "
            f"{self.retries + 1} attempt(s): {last_error}"
        )

    def _delay(self, last_error: Exception | None, attempt: int) -> float:
        """The sleep before retry ``attempt``, floored at MIN_BACKOFF.

        Without the floor, ``backoff=0`` (or a daemon hinting
        ``retry_after: 0``) degenerated into a hot loop hammering the
        exact daemon that just said it was overloaded.
        """
        hinted = getattr(last_error, "retry_after", None)
        if hinted is not None:
            return max(float(hinted), MIN_BACKOFF)
        return max(self.backoff * attempt, MIN_BACKOFF)

    def _round_trip(self, payload: dict) -> dict:
        """One exchange, on an idle socket when there is one.  If the
        daemon closed that socket meanwhile, send again once on a fresh
        connection."""
        with self._lock:
            sock = self._idle.pop() if self._idle else None
        if sock is not None:
            try:
                return self._exchange(sock, payload)
            except (OSError, ProtocolError) as exc:
                if not protocol.peer_closed(exc):
                    raise
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        return self._exchange(sock, payload)

    def _exchange(self, sock: socket.socket, payload: dict) -> dict:
        try:
            protocol.send_frame(sock, payload)
            response = protocol.recv_frame(sock)
        except BaseException:
            sock.close()
            raise
        with self._lock:
            self._idle.append(sock)
        return response

    # ------------------------------------------------------------------
    # Typed requests
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        return self._checked(self.request(protocol.request("ping")))

    def stats(self) -> dict:
        return self._checked(self.request(protocol.request("stats")))

    def query(self, key: str, kernel: str | None = None) -> dict:
        """Look up a key; ``kernel`` (the kernel fingerprint) lets a
        clustered daemon forward a local miss to the ring owner."""
        fields: dict = {"key": key}
        if kernel:
            fields["kernel"] = kernel
        return self._checked(self.request(protocol.request("query", **fields)))

    def invalidate(self, key: str) -> dict:
        return self._checked(
            self.request(protocol.request("invalidate", key=key))
        )

    def shutdown(self) -> dict:
        return self._checked(self.request(protocol.request("shutdown")))

    def tune(self, binary: MultiVersionBinary, workload: Workload) -> dict:
        """Tune via the daemon; returns the response (``source`` says
        whether it was a warm store hit, a fresh tune, or a dedup join).
        """
        return self._checked(
            self.request(
                protocol.request(
                    "tune",
                    binary=base64.b64encode(binary.to_bytes()).decode("ascii"),
                    workload=workload_payload(workload),
                )
            )
        )

    @staticmethod
    def _checked(response: dict) -> dict:
        if response.get("ok") is not True:
            raise ServiceRejected(
                response.get("code", "unknown"),
                response.get("error", "daemon rejected the request"),
            )
        return response


class RingClient:
    """A client over a whole daemon ring (``repro submit --ring``).

    Routing mirrors the daemons' placement exactly: the same
    :class:`~repro.service.cluster.HashRing` over the same node list
    computes the same owner for the same kernel fingerprint, so the
    first connection usually lands on the node that holds (or will
    own) the answer.  When that node is unreachable the request fails
    over to the next ring-wise node — which, for warm keys, is a
    replica holding a copy — until the ring is exhausted.
    """

    def __init__(
        self,
        ring: str | list[str],
        timeout: float = 10.0,
        retries: int = 1,
        backoff: float = 0.05,
    ) -> None:
        from repro.service.cluster import HashRing

        self.ring = HashRing(ring)
        self.nodes = self.ring.nodes
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._clients: dict[str, TuningClient] = {}

    def close(self) -> None:
        """Close every node client's idle connections."""
        for client in self._clients.values():
            client.close()

    def __enter__(self) -> "RingClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def client_for(self, node: str) -> TuningClient:
        client = self._clients.get(node)
        if client is None:
            from repro.service.cluster import node_address

            host, port = node_address(node)
            client = TuningClient(
                host=host,
                port=port,
                timeout=self.timeout,
                retries=self.retries,
                backoff=self.backoff,
            )
            self._clients[node] = client
        return client

    def route_order(self, kernel_fp: str) -> list[str]:
        """Owner first, then every successor: the full failover order."""
        return self.ring.replicas(kernel_fp, len(self.nodes))

    # ------------------------------------------------------------------
    def tune(self, binary: MultiVersionBinary, workload: Workload) -> dict:
        from repro.service.fingerprint import kernel_fingerprint

        order = self.route_order(kernel_fingerprint(binary))
        return self._failover(order, lambda c: c.tune(binary, workload))

    def query(self, key: str, kernel: str | None = None) -> dict:
        order = self.route_order(kernel) if kernel else list(self.nodes)
        return self._failover(order, lambda c: c.query(key, kernel=kernel))

    def invalidate(self, key: str) -> dict:
        # Any node works: the daemon broadcasts the del op ring-wide.
        return self._failover(
            list(self.nodes), lambda c: c.invalidate(key)
        )

    def ping(self) -> dict:
        return self._failover(list(self.nodes), lambda c: c.ping())

    def stats(self) -> dict:
        return self._failover(list(self.nodes), lambda c: c.stats())

    # ------------------------------------------------------------------
    def _failover(self, order: list[str], call) -> dict:
        last_error: Exception | None = None
        for index, node in enumerate(order):
            try:
                return call(self.client_for(node))
            except ServiceUnavailable as exc:
                last_error = exc
                if index + 1 < len(order):
                    _count_failover(node)
                continue
        raise ServiceUnavailable(
            f"no ring node answered ({', '.join(order)}): {last_error}"
        )


def _count_failover(node: str) -> None:
    from repro.obs.metrics import get_registry

    get_registry().counter(
        "orion_client_failovers_total",
        "Ring requests that failed over past an unreachable node.",
    ).inc(node=node)
    _log().warn("client_failover", node=node)


def _charge_latency(type_: str, outcome: str, elapsed: float) -> None:
    from repro.obs.metrics import get_registry

    get_registry().histogram(
        "orion_client_request_seconds",
        "Client-observed request latency (all retries) by type and "
        "outcome.",
        buckets=_LATENCY_BUCKETS,
    ).observe(elapsed, type=type_, outcome=outcome)


def _log():
    from repro.obs.log import get_logger

    return get_logger()


def workload_payload(workload: Workload) -> dict:
    """The wire form of a :class:`Workload` (daemon-side inverse:
    :func:`repro.service.daemon.workload_from_payload`)."""
    payload: dict = {
        "grid_blocks": workload.launch.grid_blocks,
        "block_size": workload.launch.block_size,
        "iterations": workload.iterations,
        "ilp": workload.ilp,
        "max_events_per_warp": workload.max_events_per_warp,
    }
    if workload.launch.params:
        payload["params"] = {
            str(k): v for k, v in workload.launch.params.items()
        }
    if workload.work_profile:
        payload["work_profile"] = list(workload.work_profile)
    traits = workload.traits
    defaults = type(traits)()
    trait_fields = {
        name: getattr(traits, name)
        for name in traits.__dataclass_fields__
        if getattr(traits, name) != getattr(defaults, name)
    }
    if trait_fields:
        payload["traits"] = trait_fields
    return payload


def tune_with_fallback(
    client: TuningClient,
    binary: MultiVersionBinary,
    workload: Workload,
    arch,
    backend: str = "timing",
) -> dict:
    """Daemon-first tuning with graceful degradation.

    Returns a tune response shaped like the daemon's (``source`` is
    ``"local"`` when the fallback path ran).  The fallback builds a
    throwaway local engine, so it works with no daemon on the machine
    at all — the service layer is an accelerator, never a dependency.
    It tunes through :func:`~repro.service.store.tune_record`, as the
    daemon does, so a binary whose versions do not all decode raises
    :class:`~repro.isa.encoding.CodecError` here too.
    """
    try:
        return client.tune(binary, workload)
    except (ServiceUnavailable, ServiceRejected) as exc:
        _count_fallback(type(exc).__name__)
        _log().warn(
            "client_fallback", reason=type(exc).__name__, error=str(exc)
        )
        engine = ExecutionEngine(arch, backend=backend)
        key = tuning_key(
            binary, workload, arch.name, engine.backend.name,
            engine.cache_config.value, arch_fingerprint=arch.fingerprint(),
        )
        record = tune_record(engine, key, binary, workload)
        return {
            "ok": True,
            "source": "local",
            "key": key,
            "record": record.to_payload(),
            "degraded_reason": str(exc),
        }


def _count_fallback(reason: str) -> None:
    from repro.obs.metrics import get_registry

    get_registry().counter(
        "orion_client_fallbacks_total",
        "Tune requests that degraded to in-process tuning.",
    ).inc(reason=reason)
