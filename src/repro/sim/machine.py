"""Simulated machines: processors and the cost model.

The paper's server runs on a 32-processor KSR1 under OSF/1; its clients run on
single-processor Sun and DEC workstations.  We stand in for that hardware with
an explicit cost model so the *relative* effects the paper measures —
parallel speedup, synchronisation losses, context-switch overhead when modules
share a processor, and scheduler overhead — are reproducible and tunable.

All costs are in abstract "work units"; the executor treats one unit of
transition cost as the baseline.  Nothing in the reproduction depends on the
absolute scale, only on ratios (e.g. synchronisation cost relative to
per-transition processing cost), which is exactly the regime the paper's
Section 5 discusses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional


@dataclass(frozen=True)
class CostModel:
    """Knobs of the simulated execution platform.

    Attributes
    ----------
    transition_cost_scale:
        Multiplier applied to each transition's declared ``cost``; modelling
        faster/slower per-PDU processing (the paper's "protocols with only
        small processing times" correspond to a small scale).
    sync_cost:
        Cost charged to the *sending* execution unit whenever an interaction
        crosses execution-unit boundaries (thread synchronisation: mutexes,
        condition variables and cache-line migration on the KSR1 ring).  The
        default of 3x the baseline transition cost is calibrated so that the
        Section 5.1 experiment (two connections, tiny P-Data units, kernel
        layers only) lands in the paper's reported 1.4-2.0 speedup band; see
        E1 in ``tests/test_paper_claims.py``.
    intra_unit_message_cost:
        Cost of passing an interaction between modules that share a unit
        (a queue append without locking); normally much smaller than
        ``sync_cost``.
    context_switch_cost:
        Charged per extra runnable unit sharing a processor within a round —
        the loss the paper's grouping strategy avoids.
    scheduler_cost_per_module:
        Per-module cost of one pass of the Estelle scheduler (transition
        selection bookkeeping).  A centralised scheduler pays this serially
        over *all* modules; the paper measured up to 80% of runtime spent
        here.  A decentralised scheduler pays it per unit, in parallel.
    dispatch_scan_cost:
        Cost of examining one candidate transition during selection; the
        hard-coded strategy scans the full transition list, the table-driven
        strategy scans only the current state's row.
    remote_message_cost:
        Extra cost when an interaction crosses simulated *machines* (client to
        server); stands in for transport-layer latency in work-unit terms.
    """

    transition_cost_scale: float = 1.0
    sync_cost: float = 3.0
    intra_unit_message_cost: float = 0.05
    context_switch_cost: float = 0.8
    scheduler_cost_per_module: float = 0.25
    dispatch_scan_cost: float = 0.08
    remote_message_cost: float = 2.0

    def scaled(self, **overrides: float) -> "CostModel":
        """Return a copy with some knobs replaced (convenience for sweeps)."""
        return replace(self, **overrides)


@dataclass
class Processor:
    """A single processor of a simulated machine.

    ``busy_time`` accumulates the work executed on this processor across all
    rounds; the executor uses per-round accounting, this is the lifetime sum
    used for utilisation metrics.
    """

    index: int
    busy_time: float = 0.0
    executed_transitions: int = 0
    context_switches: int = 0

    def reset(self) -> None:
        self.busy_time = 0.0
        self.executed_transitions = 0
        self.context_switches = 0


class Machine:
    """A simulated shared-memory multiprocessor (or a uniprocessor workstation)."""

    def __init__(
        self,
        name: str,
        processor_count: int,
        cost_model: Optional[CostModel] = None,
    ):
        if processor_count < 1:
            raise ValueError("a machine needs at least one processor")
        self.name = name
        self.processors = [Processor(i) for i in range(processor_count)]
        self.cost_model = cost_model or CostModel()

    @property
    def processor_count(self) -> int:
        return len(self.processors)

    def reset(self) -> None:
        for processor in self.processors:
            processor.reset()

    def total_busy_time(self) -> float:
        return sum(p.busy_time for p in self.processors)

    def utilisation(self, elapsed: float) -> float:
        """Mean processor utilisation over ``elapsed`` simulated time."""
        if elapsed <= 0:
            return 0.0
        return self.total_busy_time() / (elapsed * self.processor_count)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Machine({self.name!r}, processors={self.processor_count})"


def ksr1(processor_count: int = 32, cost_model: Optional[CostModel] = None) -> Machine:
    """The paper's server platform: a KSR1 with (up to) 32 processors."""
    return Machine("ksr1", processor_count, cost_model)


def workstation(name: str = "sun-1", cost_model: Optional[CostModel] = None) -> Machine:
    """A single-processor UNIX workstation (the paper's client platform)."""
    return Machine(name, 1, cost_model)


class Cluster:
    """A named collection of machines, addressed by the placement locations
    used in :class:`repro.estelle.Specification`.

    The paper's experimental environment (Fig. 2) is one KSR1 server machine
    plus several client workstations; :func:`paper_environment` builds it.
    """

    def __init__(self) -> None:
        self._machines: Dict[str, Machine] = {}

    def add(self, machine: Machine) -> Machine:
        if machine.name in self._machines:
            raise ValueError(f"machine {machine.name!r} already present in the cluster")
        self._machines[machine.name] = machine
        return machine

    def get(self, name: str) -> Machine:
        try:
            return self._machines[name]
        except KeyError as exc:
            raise KeyError(
                f"no machine named {name!r}; cluster has {sorted(self._machines)}"
            ) from exc

    def __contains__(self, name: str) -> bool:
        return name in self._machines

    def machines(self) -> List[Machine]:
        return list(self._machines.values())

    def reset(self) -> None:
        for machine in self._machines.values():
            machine.reset()


def cluster_from_placements(specification, processors: int) -> Cluster:
    """One ``processors``-way machine per distinct placement location of
    ``specification`` (a lone ``"local"`` machine when it names none), so
    any ``.estelle`` source runs without the caller knowing its topology."""
    cluster = Cluster()
    locations = {placement.location for placement in specification.placements}
    for location in sorted(locations) or ["local"]:
        cluster.add(Machine(location, processors))
    return cluster


def paper_environment(
    client_count: int = 2,
    server_processors: int = 32,
    cost_model: Optional[CostModel] = None,
) -> Cluster:
    """The hardware environment of Fig. 2: one KSR1 plus client workstations."""
    cluster = Cluster()
    cluster.add(ksr1(server_processors, cost_model))
    for index in range(1, client_count + 1):
        cluster.add(workstation(f"client-ws-{index}", cost_model))
    return cluster
