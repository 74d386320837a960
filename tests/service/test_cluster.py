"""Cluster tests: ring placement, forwarding, replication, failover.

Unit tests cover the :class:`HashRing` math and config validation;
integration tests run several real daemons in one process (each on its
own background event loop, exactly like the single-daemon tests) wired
into a shared ring, and drive them with the real clients.
"""

import asyncio
import socket
import time

import pytest

from repro.arch import GTX680
from repro.compiler import CompileOptions, compile_binary
from repro.obs.metrics import get_registry
from repro.runtime import Workload
from repro.service import protocol
from repro.service.client import (
    MIN_BACKOFF,
    RingClient,
    ServiceRejected,
    TuningClient,
)
from repro.service.cluster import (
    ClusterConfig,
    HashRing,
    Replicator,
    RingError,
    node_address,
    parse_ring,
)
from repro.service.daemon import DaemonConfig
from repro.service.fingerprint import kernel_fingerprint
from repro.service.store import TuningStore
from repro.sim import LaunchConfig
from tests.helpers import count_decodes, payloads
from tests.runtime.test_launcher import pressure_module
from tests.service.test_daemon import DaemonHarness


@pytest.fixture(scope="module")
def binary():
    return compile_binary(
        pressure_module(), "k", CompileOptions(arch=GTX680)
    )


@pytest.fixture()
def workload():
    return Workload(
        launch=LaunchConfig(grid_blocks=64, block_size=256),
        iterations=10,
        max_events_per_warp=1500,
    )


def _backend_invocations() -> float:
    counter = get_registry().counter(
        "orion_backend_invocations_total",
        "Backend measurements actually executed (cache misses).",
    )
    return counter.value(backend="timing")


def _connections() -> float:
    return get_registry().counter(
        "orion_daemon_connections_total", "Connections the daemon accepted."
    ).value()


def _forwards(peer: str, outcome: str) -> float:
    return get_registry().counter(
        "orion_cluster_forwards_total",
        "Requests forwarded to ring owners, by peer and outcome.",
    ).value(peer=peer, outcome=outcome)


def _shapes(count: int) -> list[Workload]:
    """``count`` workloads that differ only in grid size: one tuning
    key each, all owned by the binary's ring owner."""
    return [
        Workload(
            launch=LaunchConfig(grid_blocks=64 + index, block_size=256),
            iterations=10,
            max_events_per_warp=1500,
        )
        for index in range(count)
    ]


# ----------------------------------------------------------------------
# Ring math
# ----------------------------------------------------------------------
class TestParseRing:
    def test_sorts_and_dedupes(self):
        assert parse_ring("b:2, a:1 ,a:1,") == ["a:1", "b:2"]
        assert parse_ring(["b:2", "a:1"]) == ["a:1", "b:2"]

    def test_rejects_empty_and_malformed(self):
        with pytest.raises(RingError, match="no nodes"):
            parse_ring(" , ,")
        for bad in ("hostonly", "host:", ":123", "host:abc"):
            with pytest.raises(RingError, match="host:port"):
                parse_ring(bad)

    def test_node_address(self):
        assert node_address("10.0.0.1:7301") == ("10.0.0.1", 7301)


class TestHashRing:
    RING = ["n1:1", "n2:2", "n3:3"]

    def test_placement_is_deterministic_across_instances(self):
        a, b = HashRing(self.RING), HashRing(list(reversed(self.RING)))
        for i in range(200):
            key = f"kernel-{i}"
            assert a.owner(key) == b.owner(key)
            assert a.replicas(key, 1) == b.replicas(key, 1)

    def test_every_node_owns_some_keyspace(self):
        ring = HashRing(self.RING)
        owners = {ring.owner(f"kernel-{i}") for i in range(500)}
        assert owners == set(self.RING)

    def test_replicas_are_distinct_and_owner_first(self):
        ring = HashRing(self.RING)
        for i in range(50):
            key = f"kernel-{i}"
            replicas = ring.replicas(key, 2)
            assert replicas[0] == ring.owner(key)
            assert len(replicas) == len(set(replicas)) == 3

    def test_replica_count_clamped_to_ring_size(self):
        ring = HashRing(self.RING)
        assert len(ring.replicas("k", 99)) == 3
        assert ring.replicas("k", 0) == [ring.owner("k")]

    def test_single_node_ring_owns_everything(self):
        ring = HashRing(["solo:1"])
        assert ring.owner("anything") == "solo:1"
        assert ring.replicas("anything", 5) == ["solo:1"]

    def test_rejects_bad_vnodes(self):
        with pytest.raises(RingError, match="vnodes"):
            HashRing(self.RING, vnodes=0)


class TestClusterConfig:
    def test_node_must_be_a_member(self):
        with pytest.raises(RingError, match="not a ring member"):
            ClusterConfig(node_id="x:9", ring=["a:1", "b:2"])

    def test_rejects_negative_replicas(self):
        with pytest.raises(RingError, match="replicas"):
            ClusterConfig(node_id="a:1", ring=["a:1"], replicas=-1)

    def test_peers_and_max_hops(self):
        config = ClusterConfig(node_id="b:2", ring=["a:1", "b:2", "c:3"])
        assert config.peers == ["a:1", "c:3"]
        assert config.max_hops == 3


class TestRingClientRouting:
    def test_route_order_is_owner_then_successors(self):
        with RingClient("a:1,b:2,c:3") as ring:
            order = ring.route_order("some-kernel-fp")
            assert order[0] == ring.ring.owner("some-kernel-fp")
            assert sorted(order) == ["a:1", "b:2", "c:3"]


# ----------------------------------------------------------------------
# Client backoff floor (regression: _delay could return 0 and hot-loop)
# ----------------------------------------------------------------------
class TestRetryBackoffFloor:
    def test_zero_backoff_is_floored(self):
        with TuningClient(port=1, backoff=0.0) as client:
            assert client._delay(None, 1) >= MIN_BACKOFF
            assert client._delay(None, 2) >= MIN_BACKOFF

    def test_zero_retry_after_hint_is_floored(self):
        rejected = ServiceRejected("queue-full", "busy")
        rejected.retry_after = 0.0
        with TuningClient(port=1) as client:
            assert client._delay(rejected, 1) >= MIN_BACKOFF

    def test_honest_hints_and_backoffs_pass_through(self):
        rejected = ServiceRejected("queue-full", "busy")
        rejected.retry_after = 0.5
        with TuningClient(port=1, backoff=0.05) as client:
            assert client._delay(rejected, 1) == 0.5
            assert client._delay(None, 2) == pytest.approx(0.1)


# ----------------------------------------------------------------------
# Multi-daemon integration
# ----------------------------------------------------------------------
def _free_ports(count: int) -> list[int]:
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


class RingCluster:
    """N real daemons sharing one ring, each on its own loop thread."""

    def __init__(self, tmp_path, size=3, replicas=2, start_all=True):
        self.tmp_path = tmp_path
        self.replicas = replicas
        self.ring = sorted(
            f"127.0.0.1:{port}" for port in _free_ports(size)
        )
        self.harnesses: dict[str, DaemonHarness] = {}
        self._ring_clients: list[RingClient] = []
        if start_all:
            for node in self.ring:
                self.start(node)

    def start(self, node: str) -> DaemonHarness:
        port = node_address(node)[1]
        store = TuningStore(self.tmp_path / f"store-{port}.jsonl")
        config = DaemonConfig(
            port=port,
            cluster=ClusterConfig(
                node_id=node, ring=self.ring, replicas=self.replicas
            ),
        )
        harness = DaemonHarness(store, config)
        harness.__enter__()
        self.harnesses[node] = harness
        return harness

    def stop(self, node: str) -> None:
        harness = self.harnesses.pop(node, None)
        if harness is not None:
            harness.__exit__(None, None, None)

    def stop_all(self) -> None:
        for client in self._ring_clients:
            client.close()
        for node in list(self.harnesses):
            self.stop(node)

    def client(self, node: str, **kwargs) -> TuningClient:
        return self.harnesses[node].client(**kwargs)

    def ring_client(self, **kwargs) -> RingClient:
        client = RingClient(self.ring, **kwargs)
        self._ring_clients.append(client)
        return client

    def owner_of(self, fp: str) -> str:
        return HashRing(self.ring).owner(fp)

    def wait_replicated(self, key: str, nodes, timeout: float = 10.0):
        """Poll each node's *local* store view until the key lands."""
        deadline = time.monotonic() + timeout
        missing = list(nodes)
        while missing and time.monotonic() < deadline:
            missing = [
                node
                for node in missing
                if not self.client(node).query(key).get("found")
            ]
            if missing:
                time.sleep(0.05)
        assert not missing, f"key never replicated to {missing}"


@pytest.fixture()
def cluster(tmp_path):
    ring = RingCluster(tmp_path)
    try:
        yield ring
    finally:
        ring.stop_all()


class TestClusterIntegration:
    def test_submit_through_non_owner_forwards_then_all_nodes_warm(
        self, cluster, binary, workload
    ):
        fp = kernel_fingerprint(binary)
        owner = cluster.owner_of(fp)
        entry = next(node for node in cluster.ring if node != owner)
        response = cluster.client(entry, timeout=60.0).tune(binary, workload)
        # The cold tune ran on the owner, not on the entry node.
        assert response["source"] == "tuned"
        assert response["node"] == owner
        key = response["key"]
        # replicas=2 on a 3-node ring: every node ends up with a copy.
        cluster.wait_replicated(key, cluster.ring)
        before = _backend_invocations()
        for node in cluster.ring:
            warm = cluster.client(node, timeout=60.0).tune(binary, workload)
            assert warm["source"] == "store"
            assert warm["node"] == node  # served locally, no forward
        assert _backend_invocations() == before  # zero-trial warm hits

    def test_forwarding_entry_node_decodes_nothing(
        self, cluster, binary, workload, monkeypatch
    ):
        """Only the owner decodes, once per version, on its cold path;
        the entry node and every later warm hit decode nothing."""
        owner = cluster.owner_of(kernel_fingerprint(binary))
        entry = next(node for node in cluster.ring if node != owner)
        decodes = count_decodes(monkeypatch)
        response = cluster.client(entry, timeout=60.0).tune(binary, workload)
        assert response["source"] == "tuned"
        assert response["node"] == owner
        assert len(decodes) == len(payloads(binary))
        assert cluster.harnesses[owner]._thread in {t for t, _ in decodes}
        assert cluster.harnesses[entry]._thread not in {t for t, _ in decodes}
        cluster.wait_replicated(response["key"], cluster.ring)
        decodes.clear()
        for node in cluster.ring:
            warm = cluster.client(node, timeout=60.0).tune(binary, workload)
            assert warm["source"] == "store"
        assert decodes == []

    def test_invalidate_broadcasts_ring_wide(
        self, cluster, binary, workload
    ):
        entry = cluster.ring[0]
        response = cluster.client(entry, timeout=60.0).tune(binary, workload)
        key = response["key"]
        cluster.wait_replicated(key, cluster.ring)
        cluster.client(cluster.ring[-1]).invalidate(key)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            holders = [
                node
                for node in cluster.ring
                if cluster.client(node).query(key).get("found")
            ]
            if not holders:
                break
            time.sleep(0.05)
        assert not holders, f"{holders} still hold the invalidated key"

    def test_misplaced_query_forwards_via_kernel_hint(
        self, cluster, binary, workload
    ):
        fp = kernel_fingerprint(binary)
        owner = cluster.owner_of(fp)
        key = cluster.client(owner, timeout=60.0).tune(binary, workload)[
            "key"
        ]
        other = next(node for node in cluster.ring if node != owner)
        # Without the hint the lookup is local-only; with it, a local
        # miss is forwarded to the owner.  (Replication may also land a
        # local copy — either way the hinted query must find it.)
        hinted = cluster.client(other).query(key, kernel=fp)
        assert hinted["found"] is True

    def test_forward_loop_guard_rejects_excess_hops(self, cluster):
        node = cluster.ring[0]
        inner = protocol.request("query", key="nope")
        response = cluster.client(node).request(
            protocol.request("forward", hops=99, request=inner)
        )
        assert response["ok"] is False
        assert response["code"] == protocol.CODE_FORWARD_LOOP

    def test_forward_cannot_wrap_cluster_verbs(self, cluster):
        node = cluster.ring[0]
        nested = protocol.request(
            "forward", hops=1, request=protocol.request("ping")
        )
        response = cluster.client(node).request(
            protocol.request("forward", hops=1, request=nested)
        )
        assert response["ok"] is False
        assert response["code"] == protocol.CODE_BAD_REQUEST

    def test_late_starting_node_pull_syncs(
        self, tmp_path, binary, workload
    ):
        cluster = RingCluster(tmp_path, start_all=False)
        try:
            late = cluster.ring[-1]
            for node in cluster.ring[:-1]:
                cluster.start(node)
            key = cluster.client(
                cluster.ring[0], timeout=60.0
            ).tune(binary, workload)["key"]
            cluster.wait_replicated(key, cluster.ring[:-1])
            cluster.start(late)
            cluster.wait_replicated(key, [late])
        finally:
            cluster.stop_all()

    def test_client_fails_over_when_owner_dies(
        self, cluster, binary, workload
    ):
        ring_client = cluster.ring_client(timeout=60.0, retries=0)
        first = ring_client.tune(binary, workload)
        assert first["source"] == "tuned"
        cluster.wait_replicated(first["key"], cluster.ring)
        owner = cluster.owner_of(kernel_fingerprint(binary))
        cluster.stop(owner)
        survivor = cluster.ring_client(timeout=60.0, retries=0)
        warm = survivor.tune(binary, workload)
        assert warm["source"] == "store"
        assert warm["node"] != owner

    def test_dead_owner_degrades_to_local_tune(
        self, cluster, binary, workload
    ):
        # The *daemon-side* self-healing: a node that cannot reach the
        # owner of a cold key tunes locally instead of failing.
        owner = cluster.owner_of(kernel_fingerprint(binary))
        cluster.stop(owner)
        entry = next(node for node in cluster.ring if node != owner)
        response = cluster.client(entry, timeout=60.0).tune(
            binary, workload
        )
        assert response["source"] == "tuned"
        assert response["node"] == entry

    def test_stats_and_health_report_cluster_state(self, cluster):
        import asyncio

        node = cluster.ring[0]
        stats = cluster.client(node).stats()
        assert stats["cluster"]["node_id"] == node
        assert stats["cluster"]["ring"] == cluster.ring
        assert stats["cluster"]["replicas"] == 2
        harness = cluster.harnesses[node]
        health = asyncio.run_coroutine_threadsafe(
            harness.daemon.health(), harness._loop
        ).result(timeout=10)
        assert health["ok"] is True
        assert health["cluster"]["node_id"] == node


class TestKeptAlivePeerConnections:
    """Clients, forwards, replication and syncs keep their connections."""

    def test_each_pair_adds_at_most_one_connection(self, cluster, binary):
        owner = cluster.owner_of(kernel_fingerprint(binary))
        entry = next(node for node in cluster.ring if node != owner)
        shapes = _shapes(10)
        client = cluster.client(entry, timeout=60.0)
        # A node that started before its peers retries its startup sync.
        deadline = time.monotonic() + 10
        for harness in cluster.harnesses.values():
            while not harness.daemon._sync_task.done():
                assert time.monotonic() < deadline, "startup sync never ended"
                time.sleep(0.01)
        before, forwarded = _connections(), _forwards(owner, "ok")
        for workload in shapes:
            assert client.tune(binary, workload)["source"] == "tuned"
        for workload in shapes:
            assert client.tune(binary, workload)["source"] == "store"
        assert _forwards(owner, "ok") >= forwarded + 10
        # The pairs that talk: the client and the entry node, the entry
        # forwarding to the owner, the owner replicating to both others.
        assert 1 <= _connections() - before <= 4

    def test_forward_reconnects_to_a_restarted_owner(self, cluster, binary):
        """The entry's pooled connection to the owner died with it; the
        next forward goes over a fresh connection, not to peer-down."""
        owner = cluster.owner_of(kernel_fingerprint(binary))
        entry = next(node for node in cluster.ring if node != owner)
        first, second = _shapes(2)
        client = cluster.client(entry, timeout=60.0)
        assert client.tune(binary, first)["node"] == owner
        cluster.stop(owner)
        cluster.start(owner)
        ok, down = _forwards(owner, "ok"), _forwards(owner, "peer-down")
        response = client.tune(binary, second)
        assert response["source"] == "tuned"
        assert response["node"] == owner
        assert _forwards(owner, "ok") == ok + 1
        assert _forwards(owner, "peer-down") == down

    def test_daemon_with_idle_connections_stops_within_a_second(
        self, cluster, binary, workload
    ):
        owner = cluster.owner_of(kernel_fingerprint(binary))
        entry = next(node for node in cluster.ring if node != owner)
        key = cluster.client(entry, timeout=60.0).tune(binary, workload)["key"]
        cluster.wait_replicated(key, cluster.ring)
        assert cluster.client(owner).ping()["ok"] is True
        harness = cluster.harnesses[owner]
        # Idle: the test's clients, the entry's forward and the peers'
        # syncs; the owner's own pool holds its replicate connections.
        assert len(harness.daemon._conn_tasks) >= 3
        started = time.monotonic()
        assert cluster.client(owner).shutdown()["stopping"] is True
        harness._thread.join(timeout=10)
        assert time.monotonic() - started < 1.0


class _Replica:
    """A peer that acknowledges every ``replicate`` frame and keeps it."""

    def __init__(self) -> None:
        self.frames: list[dict] = []
        self._server = None

    async def start(self, port: int) -> None:
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", port)

    async def _handle(self, reader, writer) -> None:
        frame = await protocol.read_frame(reader)
        self.frames.append(frame)
        await protocol.write_frame(writer, protocol.ok(applied=len(frame["ops"])))
        writer.close()

    async def stop(self) -> None:
        self._server.close()
        await self._server.wait_closed()

    def shipped(self) -> list[str]:
        return [op["key"] for frame in self.frames for op in frame["ops"]]


def _put(key: str) -> dict:
    return {"op": "put", "key": key, "seq": 1, "record": {"kernel": "k"}}


async def _drained(replicator: Replicator, timeout: float = 10.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while any(replicator.backlog().values()) or replicator.behind():
        assert asyncio.get_running_loop().time() < deadline, "never drained"
        await asyncio.sleep(0.01)


class TestReplicatorSnapshots:
    """The full-store snapshot is taken only for a peer that is behind."""

    @staticmethod
    def _replicator(peer: str, snapshots: list) -> Replicator:
        async def snapshot_ops():
            snapshots.append(1)
            return "gen-1", [_put("old"), _put("k0")]

        return Replicator(
            "127.0.0.1:1",
            [peer],
            snapshot_ops=snapshot_ops,
            generation=lambda: "gen-1",
            peer_timeout=5.0,
        )

    def test_healthy_peer_batches_take_no_snapshot(self):
        async def run() -> tuple[list, _Replica]:
            replica, snapshots = _Replica(), []
            [port] = _free_ports(1)
            await replica.start(port)
            replicator = self._replicator(f"127.0.0.1:{port}", snapshots)
            replicator.start()
            for index in range(5):
                replicator.publish(_put(f"k{index}"))
                await _drained(replicator)
            await replicator.stop()
            await replica.stop()
            return snapshots, replica

        snapshots, replica = asyncio.run(run())
        assert snapshots == []
        assert replica.shipped() == [f"k{index}" for index in range(5)]
        assert len(replica.frames) == 5
        assert {frame["generation"] for frame in replica.frames} == {"gen-1"}

    def test_behind_peer_catches_up_with_one_snapshot(self):
        async def run() -> tuple[list, _Replica]:
            replica, snapshots = _Replica(), []
            [port] = _free_ports(1)
            replicator = self._replicator(f"127.0.0.1:{port}", snapshots)
            replicator.start()
            replicator.publish(_put("k0"))
            deadline = asyncio.get_running_loop().time() + 10.0
            while not replicator.behind():  # the peer is not listening yet
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            await replica.start(port)
            await _drained(replicator)
            replicator.publish(_put("k1"))
            await _drained(replicator)
            await replicator.stop()
            await replica.stop()
            return snapshots, replica

        snapshots, replica = asyncio.run(run())
        assert snapshots == [1]
        # The catch-up frame leads with the snapshot minus the batch's
        # own keys; the next batch travels alone.
        assert replica.shipped() == ["old", "k0", "k1"]


class TestReplicatorStop:
    def test_stop_outlasts_a_swallowed_cancellation(self, monkeypatch):
        """Python 3.11's ``asyncio.wait_for`` returns a reply that races
        the cancellation, so ``_ship`` may return normally under
        ``cancel()``; ``stop`` must still end the worker."""
        shipping = asyncio.Event()

        async def swallowing_ship(self, peer, batch):
            shipping.set()
            try:
                await asyncio.sleep(60)
            except asyncio.CancelledError:
                pass

        monkeypatch.setattr(Replicator, "_ship", swallowing_ship)

        async def run() -> None:
            replicator = Replicator(
                "127.0.0.1:1",
                ["127.0.0.1:2"],
                snapshot_ops=None,
                generation=lambda: None,
            )
            replicator.start()
            replicator.publish(_put("k0"))
            await shipping.wait()
            stopping = asyncio.ensure_future(replicator.stop(flush_timeout=0.0))
            await asyncio.wait([stopping], timeout=2.0)
            assert stopping.done(), "stop() is waiting on a live worker"

        asyncio.run(run())


class TestSingleDaemonUnchanged:
    """No ``--ring``: responses must look exactly like before."""

    def test_no_node_field_without_cluster(
        self, tmp_path, binary, workload
    ):
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            client = harness.client(timeout=60.0)
            tuned = client.tune(binary, workload)
            assert "node" not in tuned
            assert "node" not in client.query(tuned["key"])
            assert "node" not in client.stats()
            assert "cluster" not in client.stats()

    def test_v1_ping_bytes_identical(self, tmp_path):
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            with socket.create_connection(
                ("127.0.0.1", harness.port)
            ) as sock:
                protocol.send_frame(sock, {"v": 1, "type": "ping"})
                assert protocol.recv_frame(sock) == {
                    "ok": True,
                    "version": 1,
                }

    def test_cluster_verbs_rejected_without_cluster(self, tmp_path):
        store = TuningStore(tmp_path / "s.jsonl")
        with DaemonHarness(store) as harness:
            client = harness.client()
            for verb in ("forward", "replicate", "sync"):
                response = client.request(protocol.request(verb))
                assert response["ok"] is False
                assert response["code"] == protocol.CODE_BAD_REQUEST
