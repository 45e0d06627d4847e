"""The hand-coded ISODE-style interface module.

The paper's second protocol-stack variant *"places the MCAM module directly on
top of the ISODE presentation interface"*; the glue is the hand-written
"ISODE interface module" whose body cannot be generated from Estelle
(Section 4.3).  Its execution loop is quoted in the paper::

    while true do
      if (IP.message) then
        encode message in ISODE param. format
        call appropriate ISODE function
      endif
      if (ISODE.message) then
        encode message in Estelle param. format
        output IP.message
      end
    end

Here the role of the ISODE library is played by :class:`IsodeBroker`, an
in-process presentation-service provider: the interface module translates
Estelle interactions arriving on its ``user`` interaction point into broker
calls, and broker events back into Estelle interactions.  Associations are
framed with ACSE APDUs (``repro.osi.acse``), matching how the real ISODE
stack carried MCAM's connect data.

Because the whole lower stack collapses into one hand-written module, the
per-operation cost is lower than traversing the generated presentation and
session modules — which is precisely the generated-vs-hand-coded comparison
(E6 in ``tests/test_paper_claims.py``).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..estelle import Module, ModuleAttribute, ip
from .acse import build_aare, build_aarq, parse_apdu
from .channels import PRESENTATION_SERVICE


class IsodeError(Exception):
    """Errors of the in-process ISODE stand-in."""


@dataclass
class _Association:
    """One established association between two interface modules."""

    aid: int
    initiator: "IsodeInterfaceModule"
    responder: "IsodeInterfaceModule"
    established: bool = False

    def peer_of(self, module: "IsodeInterfaceModule") -> "IsodeInterfaceModule":
        return self.responder if module is self.initiator else self.initiator


class IsodeBroker:
    """In-process presentation-service provider (the "ISODE library").

    Interface modules register under a presentation address.  Connect, data
    and release calls are routed synchronously to the peer module's inbox;
    the peer drains its inbox in its own external steps, so the Estelle
    runtime still accounts both sides' work separately.
    """

    def __init__(self) -> None:
        self._addresses: Dict[str, "IsodeInterfaceModule"] = {}
        self._associations: Dict[int, _Association] = {}
        self._association_of: Dict[int, _Association] = {}
        self._ids = itertools.count(1)
        self.calls = 0
        self.bytes_carried = 0

    # -- registration ------------------------------------------------------------------

    def register(self, address: str, module: "IsodeInterfaceModule") -> None:
        if address in self._addresses:
            raise IsodeError(f"presentation address {address!r} already registered")
        self._addresses[address] = module

    def resolve(self, address: str) -> "IsodeInterfaceModule":
        try:
            return self._addresses[address]
        except KeyError as exc:
            raise IsodeError(f"no ISODE endpoint registered at {address!r}") from exc

    def association_for(self, module: "IsodeInterfaceModule") -> Optional[_Association]:
        return self._association_of.get(module.uid)

    # -- ISODE library calls (invoked by the interface modules) -------------------------------

    def p_connect_request(
        self,
        caller: "IsodeInterfaceModule",
        called_address: str,
        user_data: bytes,
    ) -> _Association:
        responder = self.resolve(called_address)
        association = _Association(aid=next(self._ids), initiator=caller, responder=responder)
        self._associations[association.aid] = association
        self._association_of[caller.uid] = association
        self._association_of[responder.uid] = association
        apdu = build_aarq("mcam", calling=caller.address, called=called_address, user_information=user_data)
        self.calls += 1
        self.bytes_carried += len(apdu)
        responder.deliver(
            "PConnectIndication",
            {
                "calling_address": caller.address,
                "called_address": called_address,
                "user_data": user_data,
                "connection_ref": association.aid,
            },
        )
        return association

    def p_connect_response(
        self, responder: "IsodeInterfaceModule", accepted: bool, user_data: bytes
    ) -> None:
        association = self._require_association(responder)
        association.established = accepted
        apdu = build_aare("mcam", accepted, user_information=user_data)
        self.calls += 1
        self.bytes_carried += len(apdu)
        association.initiator.deliver(
            "PConnectConfirm",
            {"accepted": accepted, "user_data": user_data, "connection_ref": association.aid},
        )
        if not accepted:
            self._drop(association)

    def p_data_request(self, sender: "IsodeInterfaceModule", data: bytes, value: Any) -> None:
        association = self._require_association(sender)
        if not association.established:
            raise IsodeError("P-DATA request on an association that is not established")
        self.calls += 1
        self.bytes_carried += len(data) if data else 0
        association.peer_of(sender).deliver(
            "PDataIndication", {"context_id": 1, "data": data, "value": value}
        )

    def p_release_request(self, sender: "IsodeInterfaceModule") -> None:
        association = self._require_association(sender)
        self.calls += 1
        association.peer_of(sender).deliver("PReleaseIndication", {})

    def p_release_response(self, sender: "IsodeInterfaceModule") -> None:
        association = self._require_association(sender)
        self.calls += 1
        association.peer_of(sender).deliver("PReleaseConfirm", {})
        self._drop(association)

    # -- internals -----------------------------------------------------------------------------

    def _require_association(self, module: "IsodeInterfaceModule") -> _Association:
        association = self._association_of.get(module.uid)
        if association is None:
            raise IsodeError(f"{module.path} has no association")
        return association

    def _drop(self, association: _Association) -> None:
        self._association_of.pop(association.initiator.uid, None)
        self._association_of.pop(association.responder.uid, None)
        self._associations.pop(association.aid, None)


class IsodeInterfaceModule(Module):
    """Hand-coded Estelle module mapping interactions onto ISODE calls.

    ``EXTERNAL = True``: the body is not expressed as transitions; the runtime
    calls :meth:`external_step` whenever the module has work (an interaction
    queued by its user, or an event queued by the broker).
    """

    ATTRIBUTE = ModuleAttribute.PROCESS
    EXTERNAL = True
    LAYER = "isode"

    #: Simulated cost of one pass through the hand-coded loop.  One pass does
    #: the work that takes the generated stack two module traversals plus the
    #: transport pipe, which is why the hand-coded variant is cheaper.
    STEP_COST = 1.6

    user = ip("user", PRESENTATION_SERVICE, role="provider")

    def initialise(self) -> None:
        super().initialise()
        broker: IsodeBroker = self.variables["broker"]
        self.address: str = self.variables.get("address", self.path)
        broker.register(self.address, self)
        self._inbox: Deque[Tuple[str, Dict[str, Any]]] = deque()
        self.steps_executed = 0

    # -- broker-facing -----------------------------------------------------------------------------

    def deliver(self, event: str, params: Dict[str, Any]) -> None:
        """Called by the broker: queue an event for the next external step."""
        self._inbox.append((event, params))

    # -- runtime-facing -----------------------------------------------------------------------------

    def external_ready(self) -> bool:
        return self.pending_interactions() > 0 or bool(self._inbox)

    def external_step(self) -> float:
        """One pass of the paper's interface loop; returns the simulated cost."""
        broker: IsodeBroker = self.variables["broker"]
        self.steps_executed += 1

        user_ip = self.ip_named("user")
        if user_ip.pending():
            interaction = user_ip.consume()
            self._handle_user_interaction(broker, interaction)
            return self.STEP_COST

        if self._inbox:
            event, params = self._inbox.popleft()
            self.output("user", event, **params)
            return self.STEP_COST * 0.5
        return 0.1  # nothing to do (spurious wake-up)

    # -- mapping Estelle interactions to ISODE calls ---------------------------------------------------

    def _handle_user_interaction(self, broker: IsodeBroker, interaction) -> None:
        name = interaction.name
        if name == "PConnectRequest":
            broker.p_connect_request(
                self,
                called_address=interaction.param("called_address", ""),
                user_data=interaction.param("user_data", b""),
            )
        elif name == "PConnectResponse":
            broker.p_connect_response(
                self,
                accepted=interaction.param("accepted", True),
                user_data=interaction.param("user_data", b""),
            )
        elif name == "PDataRequest":
            data = interaction.param("data", b"")
            if isinstance(data, str):
                data = data.encode("ascii")
            broker.p_data_request(self, data=bytes(data), value=interaction.param("value"))
        elif name == "PReleaseRequest":
            broker.p_release_request(self)
        elif name == "PReleaseResponse":
            broker.p_release_response(self)
        elif name == "PAbortRequest":
            association = broker.association_for(self)
            if association is not None:
                association.peer_of(self).deliver("PAbortIndication", {})
        else:
            raise IsodeError(f"{self.path}: unsupported interaction {name!r}")
