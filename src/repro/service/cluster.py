"""Consistent-hash sharding and replication for the tuning service.

One tuning daemon serves one machine; a *ring* of daemons serves a
fleet.  Three pieces turn the single-node service into that ring, all
layered on the existing store/daemon/protocol machinery rather than
replacing it:

* :class:`HashRing` — deterministic placement of the kernel-
  fingerprint keyspace over nodes via consistent hashing with virtual
  nodes.  Every node computes the same owner for the same fingerprint
  from nothing but the shared ``--ring`` list, so there is no
  coordinator and no placement metadata to replicate.
* :class:`ClusterConfig` — the operator-visible shape of one node's
  membership: its own advertised ``host:port`` identity, the full
  ring, and the replication factor.
* :class:`Replicator` — asynchronous push replication.  A node that
  publishes a winner ships the store's op-log record (with the header
  generation id) to each replica over the v2 ``replicate`` verb.
  Shipping is fire-and-forget from the client's point of view — the
  tune response never waits on replication — and goes over the
  daemon's kept-alive peer connections; per-peer backlogs are
  durable within the process: a peer that is down accumulates ops and
  receives them, preceded by a full snapshot catch-up, when it comes
  back (*catch-up on reconnect*).

Placement is by **kernel fingerprint**, not by full tuning key: the
fingerprint is computable from the binary alone, so clients can route
without knowing the daemon's architecture or backend, and every tuning
key derived from one kernel lands on the same node (all work shapes of
a kernel share an owner, which keeps that kernel's single-flight dedup
on one daemon).
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
from collections import deque
from dataclasses import dataclass, field

from repro.service import protocol

#: virtual nodes per physical node; 64 keeps the keyspace spread
#: within a few percent of uniform for small rings while the ring
#: stays cheap to build
DEFAULT_VNODES = 64

#: replicate frames batch up to this many ops
_SHIP_BATCH = 64

#: deterministic reconnect backoff: ``_BACKOFF_BASE * 2**failures``
#: capped at ``_BACKOFF_CAP`` (no jitter — schedules stay derivable)
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0


class RingError(ValueError):
    """A malformed ring specification or membership."""


def parse_ring(spec: str | list[str]) -> list[str]:
    """Normalize a ``host:port,host:port,...`` ring specification.

    Returns the member list sorted by node id so that every daemon —
    whatever order its operator typed the nodes in — builds the same
    ring.
    """
    if isinstance(spec, str):
        parts = [part.strip() for part in spec.split(",")]
    else:
        parts = [str(part).strip() for part in spec]
    nodes = sorted({part for part in parts if part})
    if not nodes:
        raise RingError("ring specification names no nodes")
    for node in nodes:
        host, sep, port = node.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise RingError(
                f"ring node {node!r} is not host:port with a numeric port"
            )
    return nodes


def node_address(node: str) -> tuple[str, int]:
    """Split a ``host:port`` node id into a connectable address."""
    host, _, port = node.rpartition(":")
    return host, int(port)


class HashRing:
    """Consistent hashing with virtual nodes over a fixed member list.

    Placement is a pure function of (member list, vnode count, key):
    every node — and every client — derives identical owners with no
    coordination.  Virtual nodes smooth the keyspace split; lookups are
    a binary search over the precomputed point list.
    """

    def __init__(
        self, nodes: str | list[str], vnodes: int = DEFAULT_VNODES
    ) -> None:
        self.nodes = parse_ring(nodes)
        if vnodes < 1:
            raise RingError("vnodes must be at least 1")
        self.vnodes = vnodes
        points: list[tuple[int, str]] = []
        for node in self.nodes:
            for index in range(vnodes):
                points.append((self._point(f"{node}#{index}"), node))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [node for _, node in points]

    @staticmethod
    def _point(value: str) -> int:
        digest = hashlib.sha256(value.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def __len__(self) -> int:
        return len(self.nodes)

    def owner(self, key: str) -> str:
        """The node that owns ``key`` (clockwise successor placement)."""
        index = bisect.bisect_right(self._hashes, self._point(key))
        if index == len(self._hashes):
            index = 0
        return self._owners[index]

    def replicas(self, key: str, count: int) -> list[str]:
        """Owner first, then ``count`` further distinct nodes ring-wise.

        ``count`` beyond the ring size is clamped: a 3-node ring with
        ``count=5`` still returns 3 nodes.
        """
        start = bisect.bisect_right(self._hashes, self._point(key))
        wanted = min(1 + max(0, count), len(self.nodes))
        chosen: list[str] = []
        for step in range(len(self._hashes)):
            node = self._owners[(start + step) % len(self._hashes)]
            if node not in chosen:
                chosen.append(node)
                if len(chosen) == wanted:
                    break
        return chosen


@dataclass
class ClusterConfig:
    """One node's view of the ring (``repro serve --ring ...``)."""

    node_id: str  # this daemon's advertised host:port, present in ring
    ring: list[str] = field(default_factory=list)
    replicas: int = 2  # copies beyond the owner
    peer_timeout: float = 5.0  # connect/control-plane deadline per peer

    def __post_init__(self) -> None:
        self.ring = parse_ring(self.ring)
        if self.node_id not in self.ring:
            raise RingError(
                f"node id {self.node_id!r} is not a ring member "
                f"({', '.join(self.ring)})"
            )
        if self.replicas < 0:
            raise RingError("replicas cannot be negative")

    @property
    def peers(self) -> list[str]:
        return [node for node in self.ring if node != self.node_id]

    @property
    def max_hops(self) -> int:
        """A forward may traverse each node at most once."""
        return len(self.ring)

    def hash_ring(self) -> HashRing:
        return HashRing(self.ring)


class Replicator:
    """Asynchronous op shipping to replica peers, with catch-up.

    Each peer gets an in-order backlog (a deque) and one worker task.
    The worker batches pending ops into ``replicate`` frames; a send
    failure marks the peer *behind*, keeps the batch at the front of
    the backlog, and backs off deterministically.  When a behind peer
    answers again, the next frame is preceded by a full snapshot of
    this node's live records (``snapshot_ops``), so a replica that
    missed arbitrary traffic converges in one exchange.  A peer that is
    not behind gets only the batch and the current ``generation``: the
    snapshot is taken only for a peer that needs it.
    """

    def __init__(
        self,
        node_id: str,
        peers: list[str],
        snapshot_ops,  # async () -> (generation, [op dicts])
        generation,  # () -> the store's current generation id
        peer_timeout: float = 5.0,
        log=None,  # a repro.obs.log.StructuredLogger (default: process)
        pool: protocol.PeerPool | None = None,
    ) -> None:
        self.node_id = node_id
        self.peers = list(peers)
        self._snapshot_ops = snapshot_ops
        self._generation = generation
        self.peer_timeout = peer_timeout
        self._log = log
        #: the daemon's connections to its peers; a replicator given none
        #: keeps its own and closes it when it stops
        self._pool = pool or protocol.PeerPool()
        self._owns_pool = pool is None
        #: per-peer queues of (op, trace_id) — the trace of the request
        #: that published the op rides along to the replicate frame
        self._backlogs: dict[str, deque] = {peer: deque() for peer in peers}
        self._wakeups: dict[str, asyncio.Event] = {}
        self._behind: dict[str, bool] = {peer: False for peer in peers}
        self._failures: dict[str, int] = {peer: 0 for peer in peers}
        self._tasks: list[asyncio.Task] = []
        self._stopping = False

    @property
    def log(self):
        if self._log is None:
            from repro.obs.log import get_logger

            self._log = get_logger()
        return self._log

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn one worker per peer on the running event loop."""
        for peer in self.peers:
            self._wakeups[peer] = asyncio.Event()
            self._tasks.append(
                asyncio.get_running_loop().create_task(self._worker(peer))
            )

    async def stop(self, flush_timeout: float = 2.0) -> None:
        """Best-effort flush of remaining backlogs, then cancel workers."""
        self._stopping = True
        deadline = asyncio.get_running_loop().time() + flush_timeout
        while any(self._backlogs[peer] for peer in self.peers):
            if asyncio.get_running_loop().time() >= deadline:
                break
            await asyncio.sleep(0.01)
        for task in self._tasks:
            # On Python 3.11, asyncio.wait_for returns a round trip's
            # result when the cancellation races its completion, and the
            # worker then waits for work forever: cancel until it ends.
            while not task.done():
                task.cancel()
                await asyncio.wait([task], timeout=0.1)
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks.clear()
        if self._owns_pool:
            await self._pool.close()

    # ------------------------------------------------------------------
    def publish(self, op: dict, peers: list[str] | None = None) -> None:
        """Enqueue one op-log record for shipping.

        ``peers`` defaults to every peer; put replication passes the
        key's replica set, invalidation broadcasts.  The ambient trace
        context (the request that caused this publish) is captured here
        and stamped onto the eventual ``replicate`` frame.
        """
        from repro.obs.context import current_trace

        ctx = current_trace()
        trace_id = None if ctx is None else ctx.trace_id
        for peer in self.peers if peers is None else peers:
            if peer == self.node_id or peer not in self._backlogs:
                continue
            self._backlogs[peer].append((op, trace_id))
            event = self._wakeups.get(peer)
            if event is not None:
                event.set()
        self._gauge_backlog()

    def backlog(self) -> dict[str, int]:
        return {peer: len(self._backlogs[peer]) for peer in self.peers}

    def behind(self) -> list[str]:
        return [peer for peer in self.peers if self._behind[peer]]

    # ------------------------------------------------------------------
    async def _worker(self, peer: str) -> None:
        backlog = self._backlogs[peer]
        wakeup = self._wakeups[peer]
        while True:
            if not backlog:
                wakeup.clear()
                await wakeup.wait()
            batch = []
            while backlog and len(batch) < _SHIP_BATCH:
                batch.append(backlog.popleft())
            if not batch:
                continue
            try:
                await self._ship(peer, batch)
            except (OSError, protocol.ProtocolError, asyncio.TimeoutError) as exc:
                self._behind[peer] = True
                self._failures[peer] += 1
                backlog.extendleft(reversed(batch))
                self._gauge_backlog()
                delay = min(
                    _BACKOFF_BASE * 2 ** self._failures[peer], _BACKOFF_CAP
                )
                self.log.warn(
                    "replicate_retry",
                    peer=peer,
                    failures=self._failures[peer],
                    backlog=len(backlog),
                    delay=delay,
                    error=str(exc),
                )
                await asyncio.sleep(delay)
            else:
                self._failures[peer] = 0
                self._gauge_backlog()

    async def _ship(self, peer: str, batch: list[tuple[dict, str | None]]) -> None:
        shipped = [op for op, _ in batch]
        # The frame inherits a trace from its ops: the first traced op
        # wins (a batch mixes requests; one exemplar is enough to find
        # the frame from a merged trace).
        trace_id = next(
            (tid for _, tid in batch if tid is not None), None
        )
        if self._behind[peer]:
            # Reconnect after a gap: lead with the full snapshot so the
            # replica converges in one exchange, minus anything the
            # batch itself already carries.
            generation, catchup = await self._snapshot_ops()
            shipped_keys = {op.get("key") for op in shipped}
            catchup = [
                op for op in catchup if op.get("key") not in shipped_keys
            ]
        else:
            generation, catchup = self._generation(), []
        ops = catchup + shipped
        wire = protocol.request(
            "replicate",
            origin=self.node_id,
            generation=generation,
            ops=ops,
        )
        if trace_id is not None:
            wire = protocol.stamp_trace(wire, trace_id)
        host, port = node_address(peer)
        response = await self._pool.round_trip(
            host,
            port,
            wire,
            timeout=self.peer_timeout,
        )
        if response.get("ok") is not True:
            raise protocol.ProtocolError(
                f"replica {peer} rejected ops: {response.get('error')}"
            )
        # Only clear the behind flag once a snapshot actually landed.
        self._behind[peer] = False
        _metrics().counter(
            "orion_cluster_replication_ops_total",
            "Replication ops by direction (shipped by origin, applied "
            "by replica).",
        ).inc(len(ops), direction="shipped")

    def _gauge_backlog(self) -> None:
        gauge = _metrics().gauge(
            "orion_cluster_replication_backlog",
            "Replication ops queued per peer, awaiting shipment.",
        )
        for peer, pending in self.backlog().items():
            gauge.set(pending, peer=peer)


def _metrics():
    from repro.obs.metrics import get_registry

    return get_registry()
