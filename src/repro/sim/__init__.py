"""Simulation substrate: event scheduling, machines, networks and metrics.

This package stands in for the paper's hardware and operating-system
environment — the 32-processor KSR1 under OSF/1, the Sun/DEC client
workstations and the FDDI campus network — with explicit, tunable cost
models.  :mod:`repro.sim.machine` gives the cost model's rationale.
"""

from .engine import EventHandle, EventScheduler
from .machine import (
    Cluster,
    CostModel,
    Machine,
    Processor,
    ksr1,
    paper_environment,
    workstation,
)
from .metrics import ExecutionMetrics, LatencySeries, mean, percentile, std_dev
from .network import (
    FDDI_PROFILE,
    LOSSY_PROFILE,
    Datagram,
    DatagramNetwork,
    LinkProfile,
    NetworkStats,
    ReliablePipe,
)

__all__ = [
    "Cluster",
    "CostModel",
    "Datagram",
    "DatagramNetwork",
    "EventHandle",
    "EventScheduler",
    "ExecutionMetrics",
    "FDDI_PROFILE",
    "LOSSY_PROFILE",
    "LatencySeries",
    "LinkProfile",
    "Machine",
    "NetworkStats",
    "Processor",
    "ReliablePipe",
    "ksr1",
    "mean",
    "paper_environment",
    "percentile",
    "std_dev",
    "workstation",
]
