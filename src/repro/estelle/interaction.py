"""Interactions, channels and interaction points.

Estelle modules communicate exclusively by exchanging *interactions*
(typed, parameterised messages) over *channels*.  A channel definition names
two *roles* and, for each role, the set of interactions that a module playing
that role may send.  A module exposes *interaction points* (IPs); each IP is
typed by a channel and a role, and two IPs can be connected when they refer to
the same channel with complementary roles.

The classes here are deliberately plain data classes: the scheduling and cost
semantics live in :mod:`repro.runtime`, keeping the specification layer purely
descriptive, in the spirit of the paper's "formal description first" method.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, Mapping, Optional, Tuple

from .errors import ChannelError

_interaction_sequence = itertools.count(1)


@dataclass(frozen=True)
class Interaction:
    """A single message exchanged between two interaction points.

    Parameters
    ----------
    name:
        The interaction (message) type name, e.g. ``"MConnectRequest"``.
    params:
        Mapping of parameter name to value, owned (not copied) by the
        interaction: callers pass a dict nobody else holds.  Values are
        arbitrary Python objects; when an interaction crosses the
        presentation layer the values are ASN.1-encodable structures.
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)
    uid: int = field(default_factory=lambda: next(_interaction_sequence))

    def param(self, key: str, default: Any = None) -> Any:
        """Return a single parameter value (``default`` when absent)."""
        return self.params.get(key, default)

    def with_params(self, **updates: Any) -> "Interaction":
        """Return a copy of this interaction with some parameters replaced."""
        merged = dict(self.params)
        merged.update(updates)
        return Interaction(self.name, merged)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interaction({self.name!r}, {dict(self.params)!r})"


class ChannelRole:
    """One of the two roles of a channel definition."""

    def __init__(self, channel: "Channel", name: str, interactions: Iterable[str]):
        self.channel = channel
        self.name = name
        self.interactions = frozenset(interactions)

    def allows(self, interaction_name: str) -> bool:
        """Whether a module playing this role may *send* ``interaction_name``."""
        return interaction_name in self.interactions

    @property
    def peer(self) -> "ChannelRole":
        """The complementary role of the same channel."""
        return self.channel.peer_of(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ChannelRole({self.channel.name}.{self.name})"


class Channel:
    """An Estelle channel definition.

    A channel has exactly two roles.  Each role lists the interactions the
    role is allowed to *send*; the peer role receives them.  Example::

        MCAM_SERVICE = Channel(
            "McamService",
            user={"MConnectRequest", "MPlayRequest"},
            provider={"MConnectConfirm", "MPlayConfirm"},
        )
    """

    def __init__(self, name: str, **roles: Iterable[str]):
        if len(roles) != 2:
            raise ChannelError(
                f"channel {name!r} must define exactly two roles, got {sorted(roles)}"
            )
        self.name = name
        self._roles: Dict[str, ChannelRole] = {
            role_name: ChannelRole(self, role_name, interactions)
            for role_name, interactions in roles.items()
        }

    def role(self, name: str) -> ChannelRole:
        """Look up a role by name."""
        try:
            return self._roles[name]
        except KeyError as exc:
            raise ChannelError(
                f"channel {self.name!r} has no role {name!r}; "
                f"roles are {sorted(self._roles)}"
            ) from exc

    def roles(self) -> Tuple[ChannelRole, ChannelRole]:
        """Return both roles (declaration order)."""
        values = tuple(self._roles.values())
        return values[0], values[1]

    def peer_of(self, role: ChannelRole) -> ChannelRole:
        """Return the role complementary to ``role``."""
        first, second = self.roles()
        if role is first:
            return second
        if role is second:
            return first
        raise ChannelError(f"role {role!r} does not belong to channel {self.name!r}")

    def all_interactions(self) -> frozenset:
        """Every interaction name either role may send."""
        first, second = self.roles()
        return first.interactions | second.interactions

    def __repr__(self) -> str:  # pragma: no cover
        return f"Channel({self.name!r})"


class InteractionPoint:
    """An interaction point owned by a module instance.

    The IP holds the inbound FIFO queue (interactions received from the peer
    but not yet consumed by a transition) as required by Estelle's
    individual-queue discipline.
    """

    def __init__(self, owner: "Any", name: str, role: ChannelRole):
        self.owner = owner
        self.name = name
        self.role = role
        self.peer: Optional["InteractionPoint"] = None
        self.queue: Deque[Interaction] = deque()

    # -- connection management -------------------------------------------------

    @property
    def connected(self) -> bool:
        return self.peer is not None

    def connect_to(self, other: "InteractionPoint") -> None:
        """Bidirectionally connect this IP with ``other``.

        Both IPs must be unconnected, belong to the same channel and play
        complementary roles.
        """
        if self.connected or other.connected:
            raise ChannelError(
                f"cannot connect {self.full_name} to {other.full_name}: "
                "one of the interaction points is already connected"
            )
        if self.role.channel is not other.role.channel:
            raise ChannelError(
                f"cannot connect {self.full_name} to {other.full_name}: "
                f"different channels ({self.role.channel.name} vs {other.role.channel.name})"
            )
        if self.role is other.role:
            raise ChannelError(
                f"cannot connect {self.full_name} to {other.full_name}: "
                f"both ends play role {self.role.name!r}; roles must be complementary"
            )
        self.peer = other
        other.peer = self

    def disconnect(self) -> None:
        """Remove the connection (both directions); queues are preserved."""
        if self.peer is not None:
            self.peer.peer = None
            self.peer = None

    # -- message exchange -------------------------------------------------------

    def output(self, interaction: Interaction) -> None:
        """Send ``interaction`` to the peer IP's queue.

        Raises :class:`ChannelError` when the IP is unconnected or the role
        does not permit sending this interaction type.
        """
        if not self.role.allows(interaction.name):
            raise ChannelError(
                f"{self.full_name} (role {self.role.name!r} of channel "
                f"{self.role.channel.name!r}) may not send {interaction.name!r}"
            )
        if self.peer is None:
            raise ChannelError(f"{self.full_name} is not connected; cannot output")
        self.peer.enqueue(interaction)

    def enqueue(self, interaction: Interaction) -> None:
        """Place an interaction in this IP's inbound queue (FIFO)."""
        self.queue.append(interaction)
        hook = getattr(self.owner, "_dirty_hook", None)
        if hook is not None:
            # A new queue head (or pending count) can change the owner's
            # enabled transitions / external readiness.
            hook(self.owner)

    def head(self) -> Optional[Interaction]:
        """Peek the oldest queued interaction without removing it."""
        return self.queue[0] if self.queue else None

    def consume(self) -> Interaction:
        """Remove and return the oldest queued interaction."""
        if not self.queue:
            raise ChannelError(f"{self.full_name}: consume() on an empty queue")
        interaction = self.queue.popleft()
        hook = getattr(self.owner, "_dirty_hook", None)
        if hook is not None:
            hook(self.owner)
        return interaction

    def pending(self) -> int:
        """Number of interactions waiting in the inbound queue."""
        return len(self.queue)

    @property
    def full_name(self) -> str:
        owner_name = getattr(self.owner, "path", None) or getattr(
            self.owner, "name", repr(self.owner)
        )
        return f"{owner_name}.{self.name}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"InteractionPoint({self.full_name}, queued={len(self.queue)})"


@dataclass(frozen=True)
class IPDeclaration:
    """Declarative description of an interaction point on a module class."""

    name: str
    channel: Channel
    role: str
    # An "array" of IPs (Estelle: ip name : channel(role) array) is modelled
    # by letting the module create indexed IPs at runtime.
    array: bool = False

    def instantiate(self, owner: Any, index: Optional[int] = None) -> InteractionPoint:
        ip_name = self.name if index is None else f"{self.name}[{index}]"
        return InteractionPoint(owner, ip_name, self.channel.role(self.role))
