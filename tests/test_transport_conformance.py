"""Transport conformance suite: one contract, every wire.

Each test runs identically over :class:`MpQueueTransport` and
:class:`TcpTransport` (loopback) through the parameterized ``transport``
fixture — the wire contract (ordering, ``(plan_index, seq)`` merge
determinism, stale-round-tag duplicate skip, future-round protocol error,
timeout diagnostics, the oversized-batch guard, fault-plan send delays) is
a property of the :class:`TransportEndpoint` interface, not of any one
implementation, and a new transport earns its registry entry by passing
exactly this module.

Endpoints run inside one process here (mp queues and loopback sockets both
work in-process); cross-process behaviour is covered by
``tests/test_parallel_backend.py`` and ``tests/test_tcp_transport.py``.
"""

import multiprocessing
import time

import pytest

from repro.runtime.parallel import (
    ChannelProtocolError,
    ChannelTimeout,
    RoutedMessage,
    merge_batches,
    transport_by_name,
    transport_names,
)
from repro.runtime.parallel.transport import DEFAULT_MAX_BATCH_BYTES

TRANSPORTS = ("mp-queue", "tcp")


def _ctx():
    return multiprocessing.get_context("spawn")


def message(plan_index, seq, target="a/b", ip="port", name="Msg", **params):
    return RoutedMessage(
        plan_index=plan_index,
        seq=seq,
        target_path=target,
        ip_name=ip,
        interaction_name=name,
        params=tuple(sorted(params.items())),
    )


def open_transport(name, unit_ids, pairs, **options):
    transport = transport_by_name(name, **options)
    transport.open(_ctx(), unit_ids, pairs=pairs)
    return transport


@pytest.fixture(params=TRANSPORTS)
def duplex(request):
    """A two-unit duplex mesh (1 <-> 2) with both endpoints connected."""
    transport = open_transport(request.param, [1, 2], [(1, 2), (2, 1)])
    endpoints = {uid: transport.endpoint_for(uid) for uid in (1, 2)}
    for endpoint in endpoints.values():
        endpoint.connect()
    yield request.param, endpoints
    for endpoint in endpoints.values():
        endpoint.close()
    transport.close()


class TestRegistry:
    def test_both_transports_are_registered(self):
        assert set(TRANSPORTS) <= set(transport_names())

    def test_unknown_transport_is_rejected_with_the_available_names(self):
        with pytest.raises(ValueError, match="unknown transport 'carrier-pigeon'"):
            transport_by_name("carrier-pigeon")


@pytest.mark.parametrize("name", TRANSPORTS)
class TestMeshTopology:
    """Which units and links a mesh has is the base ``Transport``'s business:
    every transport answers the same about it."""

    def test_endpoint_peer_views_follow_the_link_pairs(self, name):
        transport = open_transport(name, [1, 2, 3], [(1, 2), (3, 2)])
        try:
            endpoint = transport.endpoint_for(2)
            assert endpoint.peers_in == (1, 3)
            assert endpoint.peers_out == ()
            assert transport.senders_to(2) == (1, 3)
            assert transport.senders_to(1) == ()
        finally:
            transport.close()

    def test_full_mesh_by_default(self, name):
        transport = open_transport(name, [3, 1, 2], None)
        try:
            assert transport.unit_ids == (1, 2, 3)
            assert len(transport.pairs) == 6
            endpoint = transport.endpoint_for(2)
            assert endpoint.peers_in == (1, 3)
            assert endpoint.peers_out == (1, 3)
        finally:
            transport.close()

    def test_mesh_restricted_to_connected_unit_pairs(self, name):
        """Independent connections get no links between each other: the
        mesh follows the specification's connectivity."""
        transport = open_transport(
            name, [1, 2, 3, 4], {(1, 2), (2, 1), (3, 4), (4, 3)}
        )
        try:
            for uid, peer in ((1, 2), (3, 4)):
                endpoint = transport.endpoint_for(uid)
                assert endpoint.peers_in == (peer,)
                assert endpoint.peers_out == (peer,)
        finally:
            transport.close()

    def test_duplicate_unit_ids_rejected(self, name):
        with pytest.raises(ValueError, match="duplicate unit ids"):
            transport_by_name(name).open(_ctx(), [1, 1])

    def test_unknown_unit_rejected(self, name):
        transport = open_transport(name, [1, 2], None)
        try:
            with pytest.raises(KeyError, match="unit 9 is not part of this mesh"):
                transport.endpoint_for(9)
        finally:
            transport.close()


class TestWireContract:
    def test_round_trip_preserves_order_and_round_tag(self, duplex):
        _, endpoints = duplex
        sent = (message(0, 0, x=1), message(0, 1, x=2))
        endpoints[1].send_batch(2, 4, sent)
        batch = endpoints[2].receive_batch(1, 4, timeout=10.0)
        assert batch.round_index == 4
        assert batch.messages == sent

    def test_batches_arrive_in_send_order(self, duplex):
        _, endpoints = duplex
        for round_index in (1, 2, 3):
            endpoints[1].send_batch(2, round_index, (message(0, 0, r=round_index),))
        for round_index in (1, 2, 3):
            batch = endpoints[2].receive_batch(1, round_index, timeout=10.0)
            assert batch.messages[0].params == (("r", round_index),)

    def test_merge_order_is_deterministic_across_senders(self):
        for name in TRANSPORTS:
            transport = open_transport(name, [1, 2, 3], [(1, 2), (3, 2)])
            try:
                receiver = transport.endpoint_for(2)
                sender_1 = transport.endpoint_for(1)
                sender_3 = transport.endpoint_for(3)
                for endpoint in (receiver, sender_1, sender_3):
                    endpoint.connect()
                sender_3.send_batch(2, 1, (message(2, 0, x=1), message(2, 1, x=2)))
                sender_1.send_batch(2, 1, (message(0, 0, x=3), message(1, 0, x=4)))
                batches = [
                    receiver.receive_batch(peer, 1, timeout=10.0)
                    for peer in receiver.peers_in
                ]
                merged = merge_batches(batches)
                assert [(m.plan_index, m.seq) for m in merged] == [
                    (0, 0),
                    (1, 0),
                    (2, 0),
                    (2, 1),
                ], f"transport {name} broke global merge order"
            finally:
                for endpoint in (receiver, sender_1, sender_3):
                    endpoint.close()
                transport.close()

    def test_stale_round_tag_is_skipped_as_duplicate(self, duplex):
        # A crashed-and-respawned sender re-sends its checkpointed round's
        # batches (tcp leads every redial with its retransmit slot); round
        # tags strictly increase per link, so the receiver drops anything
        # older than the round it is waiting for — on every transport.
        _, endpoints = duplex
        endpoints[1].send_batch(2, 1, (message(0, 0, stale=True),))
        endpoints[1].send_batch(2, 2, (message(0, 0, fresh=True),))
        batch = endpoints[2].receive_batch(1, 2, timeout=10.0)
        assert batch.round_index == 2
        assert batch.messages[0].params == (("fresh", True),)

    def test_future_round_tag_is_a_protocol_error_naming_the_transport(self, duplex):
        name, endpoints = duplex
        endpoints[1].send_batch(2, 3, ())
        with pytest.raises(
            ChannelProtocolError, match="expected the batch for round 2"
        ) as excinfo:
            endpoints[2].receive_batch(1, 2, timeout=10.0)
        assert f"transport {name}" in str(excinfo.value)

    def test_empty_batches_flow(self, duplex):
        _, endpoints = duplex
        endpoints[1].send_batch(2, 1, ())
        assert endpoints[2].receive_batch(1, 1, timeout=10.0).messages == ()


class TestTimeoutDiagnostics:
    def test_timeout_names_transport_and_peer_endpoint(self, duplex):
        name, endpoints = duplex
        with pytest.raises(ChannelTimeout) as excinfo:
            endpoints[2].receive_batch(1, 7, timeout=0.05)
        error = excinfo.value
        assert error.peer == 1
        assert error.round_index == 7
        assert error.transport == name
        assert error.endpoint is not None and "unit 1" in error.endpoint
        # The rendered message pins the pre-transport prefix and appends
        # the wire: both halves must be greppable from a worker's log.
        assert "no batch from unit 1 for round 7" in str(error)
        assert f"transport {name}" in str(error)
        assert "peer endpoint" in str(error)

    def test_tcp_endpoint_description_is_an_address(self):
        transport = open_transport("tcp", [1, 2], [(1, 2)])
        try:
            receiver = transport.endpoint_for(2)
            receiver.connect()
            with pytest.raises(ChannelTimeout) as excinfo:
                receiver.receive_batch(1, 1, timeout=0.05)
            # Senders have no listener; the peer endpoint shown for a tcp
            # wait is informational (the sender's uid), but a *send* error
            # names the dialled host:port — covered below via describe_peer.
            assert excinfo.value.transport == "tcp"
            sender = transport.endpoint_for(1)
            host, port = transport.addresses[2]
            assert sender.describe_peer(2) == f"unit 2 at {host}:{port}"
        finally:
            receiver.close()
            transport.close()


class TestOversizedBatches:
    def test_oversized_batch_is_rejected_uniformly(self):
        for name in TRANSPORTS:
            transport = open_transport(
                name, [1, 2], [(1, 2)], max_batch_bytes=1024
            )
            try:
                sender = transport.endpoint_for(1)
                sender.connect()
                big = (message(0, 0, blob="x" * 4096),)
                with pytest.raises(
                    ChannelProtocolError, match="exceeds the 1024-byte"
                ) as excinfo:
                    sender.send_batch(2, 1, big)
                assert f"transport {name}" in str(excinfo.value)
            finally:
                sender.close()
                transport.close()

    def test_large_batches_under_the_limit_round_trip(self, duplex):
        _, endpoints = duplex
        blob = "payload" * 50_000  # ~350 KB, far under DEFAULT_MAX_BATCH_BYTES
        assert len(blob) < DEFAULT_MAX_BATCH_BYTES
        endpoints[1].send_batch(2, 1, (message(0, 0, blob=blob),))
        batch = endpoints[2].receive_batch(1, 1, timeout=30.0)
        assert batch.messages[0].params == (("blob", blob),)


class TestConfiguredTimeout:
    def test_configured_receive_window_replaces_the_hardcoded_default(self, duplex):
        # Regression (ISSUE 10): the backend's round_timeout_s used to stop
        # at the worker's deliver loop while the endpoint waited a hardcoded
        # 60.0 s.  configure() now installs the operator's window as the
        # receive_batch default, so a small configured timeout surfaces as a
        # prompt, fully-attributed ChannelTimeout.
        name, endpoints = duplex
        endpoints[2].configure(receive_timeout_s=0.1)
        started = time.perf_counter()
        with pytest.raises(ChannelTimeout) as excinfo:
            endpoints[2].receive_batch(1, 5)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, "configured 0.1 s window was not applied"
        error = excinfo.value
        assert error.timeout_s == 0.1
        assert error.peer == 1
        assert error.round_index == 5
        assert error.transport == name
        assert f"transport {name}" in str(error)

    def test_explicit_timeout_still_overrides_the_configured_window(self, duplex):
        _, endpoints = duplex
        endpoints[2].configure(receive_timeout_s=30.0)
        started = time.perf_counter()
        with pytest.raises(ChannelTimeout) as excinfo:
            endpoints[2].receive_batch(1, 5, timeout=0.05)
        assert time.perf_counter() - started < 5.0
        assert excinfo.value.timeout_s == 0.05


class TestReconnectDuringInflight:
    def test_tcp_reconnect_with_an_inflight_batch_never_double_delivers(self):
        # Supervised recovery redials mid-stream: the sender has flushed
        # round 2 (in flight, possibly delivered), then reconnect_peer
        # redials and re-sends its retransmit slot — round 2 goes over the
        # wire twice.  The per-link round tags strictly increase, so the
        # receiver takes exactly one copy and the stale-tag skip absorbs
        # the other, in every interleaving.
        transport = open_transport("tcp", [1, 2], [(1, 2)])
        sender = transport.endpoint_for(1)
        receiver = transport.endpoint_for(2)
        try:
            for endpoint in (sender, receiver):
                endpoint.connect()
            sender.send_batch(2, 1, (message(0, 0, r=1),))
            assert receiver.receive_batch(1, 1, timeout=10.0).round_index == 1

            sender.send_batch(2, 2, (message(0, 0, r=2),))  # in flight
            sender.reconnect_peer(2)  # redial + retransmit-slot re-send
            batch = receiver.receive_batch(1, 2, timeout=10.0)
            assert batch.round_index == 2
            assert batch.messages[0].params == (("r", 2),)

            # The duplicate copy of round 2 (whichever of the original send
            # and the retransmit arrived second) must be skipped as stale
            # while resolving round 3 on the new connection.
            sender.send_batch(2, 3, (message(0, 0, r=3),))
            batch = receiver.receive_batch(1, 3, timeout=10.0)
            assert batch.round_index == 3
            assert batch.messages[0].params == (("r", 3),)
            assert receiver.round_window(1) == 3
        finally:
            for endpoint in (sender, receiver):
                endpoint.close()
            transport.close()

    def test_mp_queue_reconnect_is_a_no_op_and_links_survive(self, duplex):
        name, endpoints = duplex
        if name != "mp-queue":
            pytest.skip("mp-queue-specific no-op contract")
        endpoints[1].send_batch(2, 1, (message(0, 0, r=1),))
        endpoints[1].reconnect_peer(2)
        assert endpoints[2].receive_batch(1, 1, timeout=10.0).round_index == 1


class TestSendDelays:
    def test_configured_delay_applies_at_the_transport_layer(self, duplex):
        # FaultPlan.ChannelDelay lands here: the endpoint sleeps before
        # encoding, so the injection is uniform over transports and the
        # worker's flush loop stays delay-free.
        _, endpoints = duplex
        endpoints[1].configure(send_delays=((2, 3, 0.15),))
        started = time.perf_counter()
        endpoints[1].send_batch(2, 3, ())
        delayed = time.perf_counter() - started
        started = time.perf_counter()
        endpoints[1].send_batch(2, 4, ())
        undelayed = time.perf_counter() - started
        assert delayed >= 0.15
        assert undelayed < 0.1
        assert endpoints[2].receive_batch(1, 3, timeout=10.0).round_index == 3
        assert endpoints[2].receive_batch(1, 4, timeout=10.0).round_index == 4
