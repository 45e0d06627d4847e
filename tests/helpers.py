"""Shared test fixtures: small Estelle specifications used across test modules.

The ping-pong system is the smallest closed specification that exercises the
whole execution path: two system modules on (potentially) different machines,
a typed channel, state changes, and termination after a configurable number of
exchanges.  The worker-pool system exercises pure spontaneous-transition
parallelism (no messages), which the mapping and speedup tests rely on.
"""

from __future__ import annotations

from repro.estelle import (
    Channel,
    Module,
    ModuleAttribute,
    Specification,
    ip,
    transition,
)
from repro.runtime import ConnectionPerProcessorMapping
from repro.sim import Cluster, CostModel, Machine

PING_PONG = Channel(
    "PingPong",
    pinger={"Ping", "Stop"},
    ponger={"Pong"},
)


class Pinger(Module):
    """Sends ``count`` pings, waits for each pong, then sends Stop."""

    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
    STATES = ("idle", "waiting", "done")
    INITIAL_STATE = "idle"

    port = ip("port", PING_PONG, role="pinger")

    def initialise(self) -> None:
        super().initialise()
        self.variables.setdefault("count", 3)
        self.variables["sent"] = 0

    @transition(from_state="idle", to_state="waiting", cost=1.0)
    def send_ping(self) -> None:
        self.variables["sent"] += 1
        self.output("port", "Ping", sequence=self.variables["sent"])

    @transition(
        from_state="waiting",
        when=("port", "Pong"),
        cost=1.0,
    )
    def receive_pong(self, interaction) -> None:
        if self.variables["sent"] >= self.variables["count"]:
            self.output("port", "Stop")
            self.state = "done"
        else:
            self.state = "idle"


class Ponger(Module):
    """Answers every ping with a pong; stops on Stop."""

    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
    STATES = ("ready", "stopped")
    INITIAL_STATE = "ready"

    port = ip("port", PING_PONG, role="ponger")

    @transition(from_state="ready", when=("port", "Ping"), cost=1.0)
    def answer(self, interaction) -> None:
        self.output("port", "Pong", sequence=interaction.param("sequence"))

    @transition(from_state="ready", to_state="stopped", when=("port", "Stop"), cost=0.5)
    def stop(self, interaction) -> None:
        pass


def build_ping_pong_spec(count: int = 3, locations=("m1", "m1")) -> Specification:
    spec = Specification("ping-pong")
    pinger = spec.add_system_module(Pinger, "pinger", location=locations[0], count=count)
    ponger = spec.add_system_module(Ponger, "ponger", location=locations[1])
    spec.connect(pinger.ip_named("port"), ponger.ip_named("port"))
    spec.validate()
    return spec


def single_machine_cluster(processors: int = 1, name: str = "m1", **cost_overrides) -> Cluster:
    cluster = Cluster()
    cluster.add(Machine(name, processors, CostModel().scaled(**cost_overrides)))
    return cluster


class WorkerSystem(Module):
    """A system module that spawns ``workers`` independent computing children."""

    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
    STATES = ("running",)

    def initialise(self) -> None:
        super().initialise()
        for index in range(self.variables.get("workers", 2)):
            self.create_child(
                Worker, f"worker-{index}", steps=self.variables.get("steps", 5)
            )


class Worker(Module):
    """Performs ``steps`` units of independent work via spontaneous transitions."""

    ATTRIBUTE = ModuleAttribute.PROCESS
    STATES = ("working", "done")
    INITIAL_STATE = "working"

    def initialise(self) -> None:
        super().initialise()
        self.variables.setdefault("steps", 5)
        self.variables["done_steps"] = 0

    @transition(
        from_state="working",
        provided=lambda m: m.variables["done_steps"] < m.variables["steps"],
        cost=2.0,
    )
    def work(self) -> None:
        self.variables["done_steps"] += 1
        if self.variables["done_steps"] >= self.variables["steps"]:
            self.state = "done"


def build_worker_spec(workers: int = 4, steps: int = 5, location: str = "m1") -> Specification:
    spec = Specification("workers")
    spec.add_system_module(
        WorkerSystem, "pool", location=location, workers=workers, steps=steps
    )
    spec.validate()
    return spec


def osi_by_connection() -> ConnectionPerProcessorMapping:
    """The paper's connection-per-processor mapping on
    ``examples/specs/osi_transfer.estelle``: its instances name their
    connection in a ``_c1`` / ``_c2`` suffix."""
    return ConnectionPerProcessorMapping(key=lambda module: module.name.rsplit("_", 1)[-1])
