"""Execution tracing for the Estelle runtime.

A trace records, per computation round, which modules fired which transitions
and how long the round took in simulated time.  Traces serve three purposes in
the reproduction: debugging protocol specifications, asserting ordering
properties in the integration tests (e.g. "the session connection is
established before the first P-DATA"), and feeding the per-experiment reports
of the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class FiringEvent:
    """One module firing within a round."""

    round_index: int
    module_path: str
    transition_name: str
    state_before: Optional[str]
    state_after: Optional[str]
    interaction_name: Optional[str]
    cost: float
    unit_id: int
    machine: str
    #: simulated time at the start of the firing's round, read off the shared
    #: :class:`repro.runtime.clock.SimulatedClock`.  Dispatch-independent and
    #: backend-independent by construction (the clock advances by the busiest
    #: unit's firing-cost sum per round), so it participates in the canonical
    #: trace equivalence (:mod:`repro.runtime.parallel.trace`).
    time: float = 0.0


@dataclass
class RoundRecord:
    """Summary of one computation round."""

    index: int
    makespan: float
    serial_overhead: float
    firings: List[FiringEvent] = field(default_factory=list)


class ExecutionTrace:
    """An append-only trace of an execution."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.rounds: List[RoundRecord] = []

    # -- recording -------------------------------------------------------------------

    def start_round(self, index: int) -> None:
        if self.enabled:
            self.rounds.append(RoundRecord(index=index, makespan=0.0, serial_overhead=0.0))

    def record_firing(self, event: FiringEvent) -> None:
        if self.enabled and self.rounds:
            self.rounds[-1].firings.append(event)

    def finish_round(self, makespan: float, serial_overhead: float) -> None:
        if self.enabled and self.rounds:
            self.rounds[-1].makespan = makespan
            self.rounds[-1].serial_overhead = serial_overhead

    # -- queries ----------------------------------------------------------------------

    def all_firings(self) -> List[FiringEvent]:
        return [event for record in self.rounds for event in record.firings]

    def transition_sequence(self, module_path: str) -> List[str]:
        return [
            e.transition_name
            for e in self.all_firings()
            if e.module_path == module_path
        ]

    def first_round_where(self, module_path: str, transition_name: str) -> Optional[int]:
        """Index of the first round in which the given transition fired."""
        for event in self.all_firings():
            if event.module_path == module_path and event.transition_name == transition_name:
                return event.round_index
        return None

    def describe(self, max_rounds: Optional[int] = None) -> str:
        """Human-readable rendering used by the examples."""
        lines: List[str] = []
        rounds = self.rounds if max_rounds is None else self.rounds[:max_rounds]
        for record in rounds:
            lines.append(
                f"round {record.index}: makespan={record.makespan:.2f} "
                f"(serial overhead {record.serial_overhead:.2f})"
            )
            for event in record.firings:
                what = event.transition_name
                if event.interaction_name:
                    what += f" <- {event.interaction_name}"
                lines.append(
                    f"    {event.module_path}: {what} "
                    f"[{event.state_before} -> {event.state_after}] "
                    f"t={event.time:g} on "
                    f"{event.machine}/unit{event.unit_id}"
                )
        return "\n".join(lines)
