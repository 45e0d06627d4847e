"""The batch protocol of the inter-unit mesh: its types and pure functions.

The paper's runtime exchanges interactions between execution units through
shared-memory queues guarded by thread synchronisation; crossing machines
costs a remote message.  Here the units are OS processes and every transfer
pays a pickle plus a pipe or socket round trip, so messages are *batched per
computation round*: a sender flushes exactly one batch (possibly empty) per
peer unit per round, tagged with the round index, and a receiver drains
exactly one batch per peer before the next round's transition selection.
What a batch is, how it is encoded, which unit pairs get a link and how
several peers' batches merge is defined here, for every wire alike; the wires
themselves (queues, sockets) and the receive loop that enforces the round
tags live in :mod:`.transport`.

Ordering guarantees
-------------------

* Estelle interaction points are connected pairwise, so each inbound FIFO
  queue receives from exactly one peer module, which lives in exactly one
  unit and fires at most once per round — a single batch therefore carries
  every message an IP can receive in a round, already in send order.
* Within a batch, messages are tagged ``(plan_index, seq)`` — the global
  position of the firing that produced them and the send position on their
  IP within that firing — so a receiver merging several peers' batches can
  re-establish each queue's exact order under the in-process executor (the
  only order Estelle's individual queues can observe).
* The round tag turns protocol bugs (a batch from a *future* round, i.e. a
  worker flushing twice) into immediate :class:`ChannelProtocolError`
  diagnostics rather than silent trace divergence.  A batch tagged with a
  *past* round is not an error but a duplicate: a crashed-and-respawned
  sender re-sends its last checkpointed round's batches (the original flush
  may have died with the process), and since round tags strictly
  increase per link the receiver can discard them safely.
"""

from __future__ import annotations

import pickle
from typing import Any, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ...estelle.errors import EstelleError


class ChannelProtocolError(EstelleError):
    """The batch protocol was violated (wrong round tag, missing batch)."""


def describe_transport(
    transport: Optional[str], endpoint: Optional[str]
) -> str:
    """Render the ``[transport …, peer …]`` suffix of channel diagnostics.

    Every wire-layer error names the transport it crossed and the peer
    endpoint it was waiting on (a queue label for mp-queue, a ``host:port``
    for tcp), so a multi-transport deployment's logs pinpoint the failing
    link without correlating unit ids against an address table by hand.
    """
    if not transport and not endpoint:
        return ""
    parts = []
    if transport:
        parts.append(f"transport {transport}")
    if endpoint:
        parts.append(f"peer endpoint {endpoint}")
    return f" [{', '.join(parts)}]"


class ChannelTimeout(ChannelProtocolError):
    """No batch arrived within the receive window.

    Carries the peer unit id, round index, transport name and peer endpoint
    as structured attributes so the worker loop and the coordinator can
    render an exact diagnostic (which unit was waiting on whom, over which
    wire, for which round) instead of a bare message string.
    """

    def __init__(
        self,
        round_index: int,
        timeout_s: float,
        peer: Optional[int] = None,
        transport: Optional[str] = None,
        endpoint: Optional[str] = None,
    ) -> None:
        self.peer = peer
        self.round_index = round_index
        self.timeout_s = timeout_s
        self.transport = transport
        self.endpoint = endpoint
        source = f"from unit {peer} " if peer is not None else ""
        super().__init__(
            f"no batch {source}for round {round_index} arrived within "
            f"{timeout_s:.0f}s (peer worker dead or deadlocked?)"
            + describe_transport(transport, endpoint)
        )


class RoutedMessage(NamedTuple):
    """One interaction crossing a unit boundary.

    ``plan_index`` is the position in the round plan of the firing that sent
    it; ``seq`` the send position on its IP within that firing.  ``params``
    is a sorted tuple of pairs so the message is hashable and pickles
    deterministically.
    """

    plan_index: int
    seq: int
    target_path: str
    ip_name: str
    interaction_name: str
    params: Tuple[Tuple[str, Any], ...]


class Batch(NamedTuple):
    """Everything one unit sends another within one computation round."""

    round_index: int
    messages: Tuple[RoutedMessage, ...]


def encode_batch(round_index: int, messages: Sequence[RoutedMessage]) -> bytes:
    """Serialize one batch to its wire payload (shared by all transports).

    The highest pickle protocol is used explicitly: a multiprocessing
    queue's feeder thread would otherwise fall back to the (older) default
    protocol, and a pre-encoded payload lets callers reuse their message
    buffers immediately — the batch is snapshotted at this point.
    """
    return pickle.dumps(
        Batch(round_index=round_index, messages=tuple(messages)),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def derive_link_pairs(
    unit_ids: Sequence[int],
    pairs: Optional[Iterable[Tuple[int, int]]] = None,
) -> List[Tuple[int, int]]:
    """Validate and normalise the directed link set of a transport mesh.

    ``pairs=None`` yields the full mesh over ``unit_ids``; an explicit pair
    set is checked against the known units (self-links and unknown units are
    configuration errors, not runtime surprises).  Shared by every transport
    so the mesh topology — which unit pairs get a wire at all — is a
    transport-independent property of the mapping.
    """
    ordered = tuple(sorted(unit_ids))
    if len(set(ordered)) != len(ordered):
        raise ValueError(f"duplicate unit ids in {ordered}")
    known = set(ordered)
    if pairs is None:
        return [
            (source, target)
            for source in ordered
            for target in ordered
            if source != target
        ]
    link_pairs = sorted(set(pairs))
    for source, target in link_pairs:
        if source == target:
            raise ValueError(f"unit {source} cannot link to itself")
        if source not in known or target not in known:
            raise ValueError(
                f"link ({source}, {target}) names a unit outside {ordered}"
            )
    return link_pairs


def merge_batches(batches: Iterable[Batch]) -> List[RoutedMessage]:
    """Merge several peers' batches into global delivery order.

    Sorting by ``(plan_index, seq)`` reconstructs, for every target queue,
    the order in which the in-process executor would have enqueued the same
    interactions; the trailing fields order one firing's sends on different
    IPs deterministically.
    """
    merged: List[RoutedMessage] = []
    for batch in batches:
        merged.extend(batch.messages)
    merged.sort(
        key=lambda m: (m.plan_index, m.seq, m.target_path, m.ip_name)
    )
    return merged
