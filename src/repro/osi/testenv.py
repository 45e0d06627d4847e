"""The paper's Section 5.1 test environment.

*"For our first measurements we specified a simple test environment in
Estelle with two protocol stacks connected by a simulated transport layer
pipe.  Both stacks consist of presentation and session layers, and an
initiator or responder respectively.  It is possible to create multiple
connections.  For the tests, we used presentation and session kernel, without
ASN.1 encoding/decoding, and we transmitted very small P-Data units."*

:func:`build_transfer_specification` reproduces exactly that setup: an
initiator stack and a responder stack (each a ``systemprocess`` containing one
subtree per connection with application / presentation / session modules) and
a transport-pipe system module in between.  The number of connections, the
number of Data requests per connection and the P-Data unit size are the sweep
parameters of the speedup experiment (E1 in ``tests/test_paper_claims.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..estelle import Module, ModuleAttribute, Specification, ip, transition
from .channels import PRESENTATION_SERVICE
from .presentation import PresentationEntity
from .session import SessionEntity
from .transport import TransportPipe


class Initiator(Module):
    """Connection initiator: connect, send N P-DATA units, release.

    Variables: ``data_requests`` (how many P-Data units to send) and
    ``payload_size`` (octets per unit; the paper used "very small" units).
    """

    ATTRIBUTE = ModuleAttribute.PROCESS
    STATES = ("idle", "connecting", "sending", "releasing", "done")
    INITIAL_STATE = "idle"
    LAYER = "application"

    pres = ip("pres", PRESENTATION_SERVICE, role="user")

    def initialise(self) -> None:
        super().initialise()
        self.variables.setdefault("data_requests", 10)
        self.variables.setdefault("payload_size", 4)
        self.variables["sent"] = 0
        self.variables["confirmed"] = False

    @transition(from_state="idle", to_state="connecting", cost=1.0)
    def connect(self) -> None:
        self.output(
            "pres",
            "PConnectRequest",
            contexts=(),
            called_address="responder",
            calling_address=self.path,
            connection_ref=self.uid,
        )

    @transition(from_state="connecting", when=("pres", "PConnectConfirm"), cost=1.0)
    def connected(self, interaction) -> None:
        if interaction.param("accepted", True):
            self.variables["confirmed"] = True
            self.state = "sending"
        else:
            self.state = "done"

    @transition(
        from_state="sending",
        provided=lambda m: m.variables["sent"] < m.variables["data_requests"],
        cost=1.0,
    )
    def send_data(self) -> None:
        self.variables["sent"] += 1
        payload = bytes(self.variables["payload_size"])
        self.output("pres", "PDataRequest", context_id=1, data=payload)

    @transition(
        from_state="sending",
        to_state="releasing",
        provided=lambda m: m.variables["sent"] >= m.variables["data_requests"],
        priority=1,
        cost=1.0,
    )
    def start_release(self) -> None:
        self.output("pres", "PReleaseRequest")

    @transition(from_state="releasing", to_state="done", when=("pres", "PReleaseConfirm"), cost=1.0)
    def released(self, interaction) -> None:
        pass


class Responder(Module):
    """Connection responder: accept the connection, absorb data, confirm release."""

    ATTRIBUTE = ModuleAttribute.PROCESS
    STATES = ("idle", "connected", "done")
    INITIAL_STATE = "idle"
    LAYER = "application"

    pres = ip("pres", PRESENTATION_SERVICE, role="user")

    def initialise(self) -> None:
        super().initialise()
        self.variables["received"] = 0

    @transition(from_state="idle", to_state="connected", when=("pres", "PConnectIndication"), cost=1.0)
    def accept(self, interaction) -> None:
        self.output(
            "pres",
            "PConnectResponse",
            accepted=True,
            contexts=tuple(interaction.param("contexts", ())),
        )

    @transition(from_state="connected", when=("pres", "PDataIndication"), cost=1.0)
    def consume(self, interaction) -> None:
        self.variables["received"] += 1

    @transition(from_state="connected", to_state="done", when=("pres", "PReleaseIndication"), cost=1.0)
    def release(self, interaction) -> None:
        self.output("pres", "PReleaseResponse")


class _ConnectionSubtree(Module):
    """A per-connection container: application + presentation + session.

    The container itself has no transitions (so it never pre-empts its
    children under the parent-precedence rule); it only wires its children at
    initialisation time.  ``application_class`` selects Initiator/Responder.
    """

    ATTRIBUTE = ModuleAttribute.PROCESS
    STATES = ("wired",)
    LAYER = "connection"

    def initialise(self) -> None:
        super().initialise()
        application_class = self.variables["application_class"]
        app_variables = dict(self.variables.get("application_variables", {}))
        application = self.create_child(application_class, "app", **app_variables)
        presentation = self.create_child(PresentationEntity, "presentation")
        session = self.create_child(SessionEntity, "session")
        application.ip_named("pres").connect_to(presentation.ip_named("user"))
        presentation.ip_named("session").connect_to(session.ip_named("user"))


class InitiatorStack(Module):
    """System module holding one initiator connection subtree per connection."""

    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
    STATES = ("running",)
    LAYER = "stack"

    def initialise(self) -> None:
        super().initialise()
        for index in range(self.variables.get("connections", 1)):
            self.create_child(
                _ConnectionSubtree,
                f"conn-{index}",
                application_class=Initiator,
                application_variables={
                    "data_requests": self.variables.get("data_requests", 10),
                    "payload_size": self.variables.get("payload_size", 4),
                },
            )


class ResponderStack(Module):
    """System module holding one responder connection subtree per connection."""

    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
    STATES = ("running",)
    LAYER = "stack"

    def initialise(self) -> None:
        super().initialise()
        for index in range(self.variables.get("connections", 1)):
            self.create_child(
                _ConnectionSubtree,
                f"conn-{index}",
                application_class=Responder,
                application_variables={},
            )


class PipeSystem(Module):
    """System module holding one transport pipe per connection."""

    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
    STATES = ("running",)
    LAYER = "transport"

    def initialise(self) -> None:
        super().initialise()
        for index in range(self.variables.get("connections", 1)):
            self.create_child(TransportPipe, f"pipe-{index}")


def build_transfer_specification(
    connections: int = 2,
    data_requests: int = 10,
    payload_size: int = 4,
    location: str = "ksr1",
) -> Specification:
    """Build the Section 5.1 test environment.

    All three system modules (initiator stack, pipes, responder stack) are
    placed on the same machine — the original measurement ran entirely on the
    KSR1 — so the speedup observed between mappings is due to multiprocessor
    parallelism, not to distribution.
    """
    if connections < 1:
        raise ValueError("at least one connection is required")
    spec = Specification("osi-transfer")
    initiator = spec.add_system_module(
        InitiatorStack,
        "initiator-stack",
        location=location,
        connections=connections,
        data_requests=data_requests,
        payload_size=payload_size,
    )
    pipes = spec.add_system_module(
        PipeSystem, "pipes", location=location, connections=connections
    )
    responder = spec.add_system_module(
        ResponderStack, "responder-stack", location=location, connections=connections
    )
    for index in range(connections):
        initiator_session = initiator.children[f"conn-{index}"].children["session"]
        responder_session = responder.children[f"conn-{index}"].children["session"]
        pipe = pipes.children[f"pipe-{index}"]
        spec.connect(initiator_session.ip_named("transport"), pipe.ip_named("side_a"))
        spec.connect(responder_session.ip_named("transport"), pipe.ip_named("side_b"))
    spec.validate()
    return spec


def transfer_progress(spec: Specification) -> Tuple[int, int]:
    """(data units sent by all initiators, data units received by all responders)."""
    sent = 0
    received = 0
    for module in spec.modules():
        if isinstance(module, Initiator):
            sent += module.variables.get("sent", 0)
        elif isinstance(module, Responder):
            received += module.variables.get("received", 0)
    return sent, received
