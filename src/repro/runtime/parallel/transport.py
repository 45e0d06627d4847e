"""The pluggable wire layer of the parallel mesh: ``Transport`` implementations.

The paper maps execution units to *processors of a multiprocessor or hosts
of a network*; which wire carries the inter-unit batches is therefore a
deployment decision, not an architectural one.  This module extracts that
decision behind one interface:

* :class:`Transport` — the coordinator-side factory.  It owns the mesh's
  directed links (derived from the mapping's connectivity, normalised once
  by :func:`~.channels.derive_link_pairs`) and hands each worker a
  picklable :class:`TransportEndpoint`.
* :class:`TransportEndpoint` — the per-unit view a worker actually uses:
  ``send_batch``/``receive_batch`` per peer, with the round-tag protocol
  (one batch per peer per round, stale duplicates skipped, future rounds a
  :class:`~.channels.ChannelProtocolError`) enforced identically by every
  implementation.  Fault-plan send delays (:class:`repro.faults.ChannelDelay`)
  and the oversized-batch guard live in the shared base class so they apply
  uniformly to every transport.

Implementations:

* :class:`MpQueueTransport` (``"mp-queue"``, the default) — one
  :mod:`multiprocessing` queue per directed link, inherited by the workers
  through :class:`multiprocessing.Process` arguments.
* :class:`TcpTransport` (``"tcp"``) — length-prefixed pickled batches over
  stdlib sockets.  The coordinator binds one listening socket per unit and
  publishes an **address table** ``{unit: (host, port)}``; workers are
  handshaked by address — a sender dials its peer's listener and introduces
  itself with a hello frame carrying its unit id, so the receiver can route
  each accepted connection to the right per-peer inbox.  Nothing in the
  data plane assumes a shared address space, which is what makes multi-host
  distribution a configuration change (see ``docs/DISTRIBUTION.md``).

Crash recovery is transport-generic but the mechanics differ: mp queues
outlive a crashed worker (in-flight batches survive in the shared queue),
while a TCP connection dies with its process.  Both cases reduce to the
same two rules — (1) every sender keeps a one-deep **retransmit slot** (its
last flushed batch per link) and re-sends it when the supervisor tells it
to redial a respawned peer, and (2) receivers already skip stale round tags
as duplicates, so retransmitting is always safe and never double-delivers.
"""

from __future__ import annotations

import pickle
import queue
import socket
import struct
import threading
import time
from time import monotonic
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Type

from .channels import (
    Batch,
    ChannelProtocolError,
    ChannelTimeout,
    RoutedMessage,
    derive_link_pairs,
    describe_transport,
    encode_batch,
)

__all__ = [
    "DEFAULT_MAX_BATCH_BYTES",
    "DEFAULT_RECEIVE_TIMEOUT_S",
    "MpQueueTransport",
    "TcpTransport",
    "Transport",
    "TransportEndpoint",
    "transport_by_name",
    "transport_names",
]

#: Ceiling on one encoded batch.  Generous — a batch is one round's worth of
#: interactions on one link — but explicit, so a runaway workload fails with
#: a transport-labelled diagnostic instead of an opaque OS-level stall, and
#: identically on every transport.
DEFAULT_MAX_BATCH_BYTES = 64 * 1024 * 1024

#: Fallback receive window when neither the caller nor :meth:`configure`
#: supplied one.  Operators set their own through the backend's
#: ``round_timeout_s`` (threaded to every endpoint via ``WorkerConfig``);
#: this constant only covers endpoints driven outside a worker.
DEFAULT_RECEIVE_TIMEOUT_S = 60.0


class TransportEndpoint:
    """One unit's view of the mesh: its inbound and outbound links.

    Endpoints are created coordinator-side (:meth:`Transport.endpoint_for`)
    and must be picklable across the ``spawn`` boundary; anything that
    cannot cross a process boundary (threads, live connections) is created
    worker-side in :meth:`connect`.  The base class implements the parts of
    the wire contract that must not vary by transport:

    * fault-plan send delays (wall-clock only, applied before encoding) and
      the ``max_batch_bytes`` guard in :meth:`send_batch`,
    * the round-window resolution loop (stale skip / future error / timeout)
      in :meth:`receive_batch`, over the subclass's ``_poll``.
    """

    transport_name = "abstract"

    def __init__(
        self,
        uid: int,
        peers_in: Iterable[int],
        peers_out: Iterable[int],
        max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
    ) -> None:
        self.uid = uid
        self.peers_in: Tuple[int, ...] = tuple(sorted(peers_in))
        self.peers_out: Tuple[int, ...] = tuple(sorted(peers_out))
        self.max_batch_bytes = max_batch_bytes
        self._send_delays: Dict[Tuple[int, int], float] = {}
        self._receive_timeout_s: Optional[float] = None
        # Per-peer round window: the highest round tag resolved on each
        # inbound link.  Round tags strictly increase per link, but under
        # barrier relaxation the links advance *independently* — one peer may
        # be rounds ahead of another — so the high-water mark is per peer,
        # not per endpoint.
        self._round_window: Dict[int, int] = {}

    # -- worker-side lifecycle -----------------------------------------------------

    def configure(
        self,
        send_delays: Sequence[Tuple[int, int, float]] = (),
        receive_timeout_s: Optional[float] = None,
    ) -> None:
        """Install per-``(target, round)`` fault-plan send delays and the
        operator's receive window.

        Called by the worker from its :class:`WorkerConfig` after the
        endpoint crossed the process boundary; the delays then apply
        uniformly inside :meth:`send_batch`, whatever the transport, and
        ``receive_timeout_s`` (the backend's ``round_timeout_s``) becomes
        the default window of :meth:`receive_batch` — so chaos runs on slow
        hosts time out with the configured setting, not a hardcoded one.
        """
        self._send_delays = {
            (target, round_index): seconds
            for target, round_index, seconds in send_delays
        }
        if receive_timeout_s is not None:
            self._receive_timeout_s = receive_timeout_s

    def connect(self) -> None:
        """Activate the endpoint in the worker process (bind, listen, dial).

        A no-op for transports whose links are inherited objects (mp-queue);
        address-based transports start their receive machinery here.
        """

    def close(self) -> None:
        """Quiesce the endpoint (crash paths call this before hard exit)."""

    # -- the wire ------------------------------------------------------------------

    def send_batch(
        self, peer: int, round_index: int, messages: Sequence[RoutedMessage]
    ) -> None:
        """Send one round's batch (possibly empty) towards ``peer``."""
        if self._send_delays:
            delay = self._send_delays.get((peer, round_index))
            if delay:
                time.sleep(delay)
        payload = encode_batch(round_index, messages)
        if len(payload) > self.max_batch_bytes:
            raise ChannelProtocolError(
                f"round-{round_index} batch of {len(payload)} bytes exceeds "
                f"the {self.max_batch_bytes}-byte transport limit"
                + describe_transport(
                    self.transport_name, self.describe_peer(peer)
                )
            )
        self._send_payload(peer, round_index, payload)

    def receive_batch(
        self, peer: int, round_index: int, timeout: Optional[float] = None
    ) -> Batch:
        """Block until ``peer``'s batch for ``round_index`` arrives.

        The round tag on each link marks the link's position in that *peer's*
        round window — under barrier relaxation different links of one
        endpoint legitimately sit at different rounds, so resolution is a
        per-peer affair: anything older than the requested round is a
        duplicate (a respawned sender's retransmit, or a redial's slot
        re-send) and is skipped; a *future* round tag means a sender flushed
        twice for one round — a protocol bug — and raises immediately.

        ``timeout=None`` uses the window installed by :meth:`configure`
        (the backend's ``round_timeout_s``), falling back to
        :data:`DEFAULT_RECEIVE_TIMEOUT_S` for bare endpoints.
        """
        if timeout is None:
            timeout = (
                self._receive_timeout_s
                if self._receive_timeout_s is not None
                else DEFAULT_RECEIVE_TIMEOUT_S
            )
        deadline = monotonic() + timeout
        while True:
            remaining = max(deadline - monotonic(), 0.001)
            payload = self._poll(peer, remaining)
            if payload is None:
                raise ChannelTimeout(
                    round_index,
                    timeout,
                    peer=peer,
                    transport=self.transport_name,
                    endpoint=self.describe_peer(peer),
                )
            batch = pickle.loads(payload)
            if batch.round_index < round_index:
                continue  # stale duplicate from a respawned sender
            if batch.round_index != round_index:
                raise ChannelProtocolError(
                    f"expected the batch for round {round_index}, "
                    f"got round {batch.round_index}"
                    + describe_transport(
                        self.transport_name, self.describe_peer(peer)
                    )
                )
            self._round_window[peer] = batch.round_index
            return batch

    def round_window(self, peer: int) -> int:
        """The highest round resolved on the inbound link from ``peer``
        (0 before the first batch) — the link's round-window high-water mark."""
        return self._round_window.get(peer, 0)

    def reconnect_peer(self, peer: int) -> None:
        """Re-establish the outbound link to a respawned ``peer``.

        Transports whose links survive a peer's death (mp-queue) need do
        nothing; connection-oriented transports redial the peer's address
        and re-send their retransmit slot (the receiver dedups by round
        tag, so this is always safe).
        """

    def describe_peer(self, peer: int) -> str:
        """A human-readable endpoint for diagnostics (queue label, host:port)."""
        return f"unit {peer}"

    # -- subclass wire primitives --------------------------------------------------

    def _send_payload(self, peer: int, round_index: int, payload: bytes) -> None:
        raise NotImplementedError

    def _poll(self, peer: int, timeout: float) -> Optional[bytes]:
        """Next raw payload from ``peer`` within ``timeout``, or ``None``."""
        raise NotImplementedError


class Transport:
    """Coordinator-side factory for one run's mesh.

    Lifecycle: ``open(ctx, unit_ids, pairs)`` builds the links, then
    :meth:`endpoint_for` mints one picklable endpoint per worker (called
    again on respawn — a fresh endpoint carries no stale connections), and
    :meth:`close` tears the mesh down after the run.  Which units and which
    directed links the mesh has is settled here, for every transport alike;
    a transport supplies how a link is made (:meth:`_open_links`), how an
    endpoint is built over them (:meth:`_endpoint`) and :meth:`close`.
    """

    name = "abstract"
    unit_ids: Tuple[int, ...] = ()
    #: the directed ``(source, target)`` links of the opened mesh.
    pairs: Tuple[Tuple[int, int], ...] = ()

    def open(
        self,
        ctx,
        unit_ids: Iterable[int],
        pairs: Optional[Iterable[Tuple[int, int]]] = None,
    ) -> None:
        """Build the mesh: every ordered unit pair by default, or just
        ``pairs`` (the unit pairs the mapping says can exchange interactions
        — a link costs descriptors and one batch transfer per round, so a
        sparsely connected specification gets a sparse mesh)."""
        self.unit_ids = tuple(sorted(unit_ids))
        self.pairs = tuple(derive_link_pairs(self.unit_ids, pairs))
        self._open_links(ctx)

    def endpoint_for(self, uid: int) -> TransportEndpoint:
        if uid not in self.unit_ids:
            raise KeyError(f"unit {uid} is not part of this mesh ({self.unit_ids})")
        return self._endpoint(
            uid,
            self.senders_to(uid),
            [target for source, target in self.pairs if source == uid],
        )

    def senders_to(self, uid: int) -> Tuple[int, ...]:
        """The units holding a link *into* ``uid`` (the supervisor tells
        exactly these to :meth:`TransportEndpoint.reconnect_peer` after
        respawning ``uid``)."""
        return tuple(
            sorted(source for source, target in self.pairs if target == uid)
        )

    def _open_links(self, ctx) -> None:
        raise NotImplementedError

    def _endpoint(
        self, uid: int, peers_in: Sequence[int], peers_out: Sequence[int]
    ) -> TransportEndpoint:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# mp-queue: one multiprocessing queue per directed link
# ---------------------------------------------------------------------------


class MpQueueEndpoint(TransportEndpoint):
    """Per-unit view over the inherited queues of its links.

    ``inbound`` and ``outbound`` map a peer uid to the queue this unit
    receives on / sends on; they cross the process boundary through
    :class:`multiprocessing.Process` argument inheritance.  The queues are
    owned by the coordinator's :class:`MpQueueTransport` and *survive a
    worker crash*, so no retransmit machinery is needed —
    :meth:`reconnect_peer` is a no-op.
    """

    transport_name = "mp-queue"

    def __init__(
        self,
        uid: int,
        inbound: Dict[int, Any],
        outbound: Dict[int, Any],
        max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
    ) -> None:
        super().__init__(uid, inbound, outbound, max_batch_bytes)
        self._inbound = inbound
        self._outbound = outbound

    def describe_peer(self, peer: int) -> str:
        return f"unit {peer} (shared queue)"

    def _send_payload(self, peer: int, round_index: int, payload: bytes) -> None:
        self._outbound[peer].put(payload)

    def _poll(self, peer: int, timeout: float) -> Optional[bytes]:
        try:
            return self._inbound[peer].get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        # Quiesce the outbound feeder threads (a dying feeder holding a
        # shared pipe lock would wedge every other worker); inbound queues
        # are left to the coordinator's mesh teardown.
        for link in self._outbound.values():
            link.close()
            link.join_thread()


class MpQueueTransport(Transport):
    """The default transport: one multiprocessing queue per directed link."""

    name = "mp-queue"

    def __init__(self, max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES) -> None:
        self.max_batch_bytes = max_batch_bytes
        self._links: Dict[Tuple[int, int], Any] = {}

    def _open_links(self, ctx) -> None:
        # Made from the run's multiprocessing context, so a queue survives
        # being inherited by a spawned worker process.
        self._links = {pair: ctx.Queue() for pair in self.pairs}

    def _endpoint(self, uid, peers_in, peers_out) -> MpQueueEndpoint:
        return MpQueueEndpoint(
            uid,
            {peer: self._links[peer, uid] for peer in peers_in},
            {peer: self._links[uid, peer] for peer in peers_out},
            self.max_batch_bytes,
        )

    def close(self) -> None:
        for link in self._links.values():
            link.close()
            link.join_thread()


# ---------------------------------------------------------------------------
# tcp: length-prefixed pickled batches over stdlib sockets
# ---------------------------------------------------------------------------

_LENGTH = struct.Struct(">I")


def _read_exact(conn: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes, or ``None`` on EOF / connection reset."""
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        try:
            chunk = conn.recv(min(remaining, 1 << 20))
        except (ConnectionError, OSError):
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_frame(conn: socket.socket) -> Optional[bytes]:
    header = _read_exact(conn, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    return _read_exact(conn, length)


def _frame(payload: bytes) -> bytes:
    return _LENGTH.pack(len(payload)) + payload


class TcpEndpoint(TransportEndpoint):
    """One unit's socket machinery: a listener for inbound links, lazily
    dialled connections for outbound ones.

    The pickled form carries the unit's listening socket (file descriptors
    cross the ``spawn`` boundary through :mod:`multiprocessing.reduction`)
    plus the address table; everything live — the accept thread, per-
    connection reader threads, per-peer inboxes, dialled sockets, the
    retransmit slots — is built worker-side by :meth:`connect`.

    Keeping the *listening* socket open in the coordinator as well is the
    crash-recovery trick: the unit's port stays bound across a worker's
    death, dials from peers land in the kernel backlog while the
    replacement boots, and the respawned worker (handed a fresh dup of the
    same listener) simply accepts them.
    """

    transport_name = "tcp"

    def __init__(
        self,
        uid: int,
        peers_in: Iterable[int],
        peers_out: Iterable[int],
        addresses: Dict[int, Tuple[str, int]],
        listener: Optional[socket.socket],
        max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
        connect_timeout_s: float = 30.0,
    ) -> None:
        super().__init__(uid, peers_in, peers_out, max_batch_bytes)
        self.addresses = dict(addresses)
        self.connect_timeout_s = connect_timeout_s
        self._listener = listener
        self._stopping = False
        self._inboxes: Dict[int, "queue.Queue[bytes]"] = {}
        self._out_socks: Dict[int, socket.socket] = {}
        self._retransmit: Dict[int, bytes] = {}
        self._accept_thread: Optional[threading.Thread] = None

    def __getstate__(self) -> Dict[str, Any]:
        # Only the cold half crosses the process boundary; the live half is
        # rebuilt by connect().  The listener socket itself pickles through
        # multiprocessing's fd-passing reduction.
        state = self.__dict__.copy()
        state["_inboxes"] = {}
        state["_out_socks"] = {}
        state["_retransmit"] = {}
        state["_accept_thread"] = None
        state["_stopping"] = False
        state["_round_window"] = {}
        return state

    def describe_peer(self, peer: int) -> str:
        address = self.addresses.get(peer)
        if address is None:
            return f"unit {peer}"
        return f"unit {peer} at {address[0]}:{address[1]}"

    # -- worker-side lifecycle -----------------------------------------------------

    def connect(self) -> None:
        for peer in self.peers_in:
            self._inboxes[peer] = queue.Queue()
        if self._listener is not None and self.peers_in:
            self._listener.settimeout(0.2)
            self._accept_thread = threading.Thread(
                target=self._accept_loop,
                name=f"tcp-accept-u{self.uid}",
                daemon=True,
            )
            self._accept_thread.start()

    def close(self) -> None:
        self._stopping = True
        for sock in self._out_socks.values():
            try:
                sock.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
        self._out_socks.clear()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass

    # -- receive side ----------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping:
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._reader, args=(conn,), daemon=True
            ).start()

    def _reader(self, conn: socket.socket) -> None:
        """Drain one accepted connection into the sender's inbox.

        The first frame is the hello ``("hello", sender uid)``; a
        connection introducing an unknown sender is dropped (a dial from a
        unit outside the mesh's link set is a deployment error, but the
        receive path must not crash on it).
        """
        with conn:
            conn.settimeout(None)
            hello = _read_frame(conn)
            if hello is None:
                return
            try:
                kind, sender = pickle.loads(hello)
            except Exception:
                return
            if kind != "hello" or sender not in self._inboxes:
                return
            inbox = self._inboxes[sender]
            while not self._stopping:
                payload = _read_frame(conn)
                if payload is None:
                    return  # sender closed (or died); a redial replaces it
                inbox.put(payload)

    def _poll(self, peer: int, timeout: float) -> Optional[bytes]:
        try:
            return self._inboxes[peer].get(timeout=timeout)
        except queue.Empty:
            return None

    # -- send side -------------------------------------------------------------------

    def _dial(self, peer: int) -> socket.socket:
        address = self.addresses.get(peer)
        if address is None:
            raise ChannelProtocolError(
                f"no address for unit {peer} in the transport's address table"
                + describe_transport(self.transport_name, None)
            )
        deadline = monotonic() + self.connect_timeout_s
        while True:
            try:
                sock = socket.create_connection(address, timeout=5.0)
                break
            except OSError:
                if monotonic() >= deadline:
                    raise ChannelProtocolError(
                        f"could not connect to unit {peer}"
                        + describe_transport(
                            self.transport_name, self.describe_peer(peer)
                        )
                    ) from None
                time.sleep(0.05)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(
            _frame(pickle.dumps(("hello", self.uid), pickle.HIGHEST_PROTOCOL))
        )
        self._out_socks[peer] = sock
        return sock

    def _send_payload(self, peer: int, round_index: int, payload: bytes) -> None:
        frame = _frame(payload)
        sock = self._out_socks.get(peer)
        if sock is None:
            sock = self._dial(peer)
        try:
            sock.sendall(frame)
        except OSError:
            # The peer died since the last round.  Redial (its listener —
            # held open by the coordinator — queues the connection for the
            # replacement) and lead with the retransmit slot so a receiver
            # that already consumed the previous round just skips it.
            sock = self._dial(peer)
            previous = self._retransmit.get(peer)
            if previous is not None:
                sock.sendall(previous)
            sock.sendall(frame)
        self._retransmit[peer] = frame

    def reconnect_peer(self, peer: int) -> None:
        old = self._out_socks.pop(peer, None)
        if old is not None:
            try:
                old.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
        sock = self._dial(peer)
        previous = self._retransmit.get(peer)
        if previous is not None:
            sock.sendall(previous)


class TcpTransport(Transport):
    """Length-prefixed pickled batches over a localhost (or LAN) socket mesh.

    The coordinator binds one listening socket per receiving unit on
    ``host`` (ephemeral ports unless ``base_port`` pins them) and publishes
    the resulting address table through every endpoint — the handshake is
    by ``(host, port)``, never by passing live objects, so the same wire
    protocol spans machines once workers are launched remotely (see
    ``docs/DISTRIBUTION.md`` for the deployment story and its current
    limits).
    """

    name = "tcp"

    def __init__(
        self,
        host: str = "127.0.0.1",
        base_port: Optional[int] = None,
        max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
        connect_timeout_s: float = 30.0,
    ) -> None:
        self.host = host
        self.base_port = base_port
        self.max_batch_bytes = max_batch_bytes
        self.connect_timeout_s = connect_timeout_s
        self._listeners: Dict[int, socket.socket] = {}
        self.addresses: Dict[int, Tuple[str, int]] = {}

    def _open_links(self, ctx) -> None:
        del ctx  # sockets need no multiprocessing context
        receivers = sorted({target for _, target in self.pairs})
        for index, uid in enumerate(receivers):
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            # Registered before it is bound: close() then also releases a
            # listener whose bind failed (port taken).
            self._listeners[uid] = listener
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            port = 0 if self.base_port is None else self.base_port + index
            listener.bind((self.host, port))
            listener.listen(64)
            self.addresses[uid] = (
                self.host,
                listener.getsockname()[1],
            )

    def _endpoint(self, uid, peers_in, peers_out) -> TcpEndpoint:
        return TcpEndpoint(
            uid,
            peers_in,
            peers_out,
            addresses=self.addresses,
            listener=self._listeners.get(uid),
            max_batch_bytes=self.max_batch_bytes,
            connect_timeout_s=self.connect_timeout_s,
        )

    def close(self) -> None:
        for listener in self._listeners.values():
            try:
                listener.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
        self._listeners.clear()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_TRANSPORTS: Dict[str, Type[Transport]] = {
    MpQueueTransport.name: MpQueueTransport,
    TcpTransport.name: TcpTransport,
}


def transport_names() -> Tuple[str, ...]:
    return tuple(sorted(_TRANSPORTS))


def transport_by_name(name: str, **options: Any) -> Transport:
    """Instantiate a transport by its registry name (``mp-queue``, ``tcp``)."""
    try:
        transport_class = _TRANSPORTS[name]
    except KeyError:
        raise ValueError(
            f"unknown transport {name!r}; available: {', '.join(transport_names())}"
        ) from None
    return transport_class(**options)
