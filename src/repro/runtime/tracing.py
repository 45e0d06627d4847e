"""The firing trace: the one behavioural record of an Estelle execution.

A trace records, per computation round, which modules fired which transitions
and how long the round took in simulated time.  Each firing is one
:class:`FiringEvent`, whose fields *are* the canonical schema, in canonical
order (:data:`CANONICAL_FIELDS`).  A row therefore already is its canonical
tuple, and :func:`canonical_trace_bytes` encodes the rows as they are.

That encoding is the equivalence currency of every execution path: running a
specification under another dispatch strategy, sharded over OS processes, as
a serve session, or resumed from a checkpoint must fire exactly the same
transitions, in the same rounds, in the same order, with the same state
changes, consumed interactions, costs, units and simulated times.  Per-round
timing fields (makespan, serial overhead) are deliberately *not* part of it:
the in-process executor records modelled simulated time there while the
multiprocess backend records measured wall-clock, and neither invalidates the
other.  Traces also serve the integration tests' ordering assertions (e.g.
"the session connection is established before the first P-DATA") and the
examples' printed runs (:meth:`ExecutionTrace.describe`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple


class FiringEvent(NamedTuple):
    """One module firing within a round: a canonical trace row.

    ``cost`` is the transition's declared cost times the machine's scale
    factor, so a mismatch means the wrong transition (or cost model) fired.
    ``time`` is the simulated time at the start of the firing's round, read
    off the shared :class:`repro.runtime.clock.SimulatedClock`: it advances
    by the busiest unit's firing-cost sum per round and jumps to the next
    delay deadline when only timers are pending, the same derivation on
    every backend, so a ``time`` mismatch means delay semantics diverged.
    """

    round_index: int
    module_path: str
    transition_name: str
    state_before: Optional[str]
    state_after: Optional[str]
    interaction_name: Optional[str]
    cost: float
    unit_id: int
    machine: str
    time: float


#: The trace schema: the FiringEvent fields, in canonical order.
CANONICAL_FIELDS: Tuple[str, ...] = FiringEvent._fields


@dataclass
class RoundRecord:
    """Summary of one computation round; its firings are
    ``trace.firings[start:]`` up to the next round's ``start``."""

    index: int
    makespan: float
    serial_overhead: float
    start: int


class ExecutionTrace:
    """An append-only trace of an execution: every firing in one list, and
    per round the offset where its firings begin."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.rounds: List[RoundRecord] = []
        self.firings: List[FiringEvent] = []

    # -- recording -------------------------------------------------------------------

    def start_round(self, index: int) -> None:
        if self.enabled:
            self.rounds.append(RoundRecord(index, 0.0, 0.0, len(self.firings)))

    def record_firing(self, event: FiringEvent) -> None:
        if self.enabled and self.rounds:
            self.firings.append(event)

    def finish_round(self, makespan: float, serial_overhead: float) -> None:
        if self.enabled and self.rounds:
            self.rounds[-1].makespan = makespan
            self.rounds[-1].serial_overhead = serial_overhead

    def clear(self) -> None:
        """Forget every round and firing (a restored executor's trace
        restarts empty)."""
        self.rounds.clear()
        self.firings.clear()

    # -- queries ----------------------------------------------------------------------

    def all_firings(self) -> List[FiringEvent]:
        """Every firing in execution order: the trace's own list, not a copy."""
        return self.firings

    def firings_by_round(self) -> List[List[FiringEvent]]:
        """The firings cut into rounds, one list per round record."""
        ends = [record.start for record in self.rounds[1:]] + [len(self.firings)]
        return [
            self.firings[record.start:end] for record, end in zip(self.rounds, ends)
        ]

    def transition_sequence(self, module_path: str) -> List[str]:
        return [
            e.transition_name
            for e in self.firings
            if e.module_path == module_path
        ]

    def first_round_where(self, module_path: str, transition_name: str) -> Optional[int]:
        """Index of the first round in which the given transition fired."""
        for event in self.firings:
            if event.module_path == module_path and event.transition_name == transition_name:
                return event.round_index
        return None

    def describe(self, max_rounds: Optional[int] = None) -> str:
        """Human-readable rendering used by the examples."""
        lines: List[str] = []
        rounds = zip(self.rounds, self.firings_by_round())
        for record, firings in list(rounds)[:max_rounds]:
            lines.append(
                f"round {record.index}: makespan={record.makespan:.2f} "
                f"(serial overhead {record.serial_overhead:.2f})"
            )
            for event in firings:
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


# -- the canonical encoding ----------------------------------------------------------


def canonical_trace_bytes(trace: ExecutionTrace) -> bytes:
    """The canonical byte encoding of a trace.

    JSON of the rows per round (each row a positional array in
    :data:`CANONICAL_FIELDS` order), compact separators and no float
    rounding: equivalence is *byte* equality, not approximate equality.
    Every backend derives every float through the same arithmetic on the
    same inputs, so bit-identical floats are the expectation, not an
    accident.
    """
    return json.dumps(
        {"fields": CANONICAL_FIELDS, "rounds": trace.firings_by_round()},
        separators=(",", ":"),
    ).encode("utf-8")


def traces_equal(a: ExecutionTrace, b: ExecutionTrace) -> bool:
    """Whether two traces are byte-identical under the canonical encoding."""
    return canonical_trace_bytes(a) == canonical_trace_bytes(b)


def trace_diff(a: ExecutionTrace, b: ExecutionTrace) -> Optional[str]:
    """Human-readable description of the first divergence (None when equal).

    Used by the equivalence tests and the smoke CLIs so a failure names the
    exact round and firing instead of dumping two opaque byte strings.
    """
    rounds_a, rounds_b = a.firings_by_round(), b.firings_by_round()
    for index in range(max(len(rounds_a), len(rounds_b))):
        if index >= len(rounds_a):
            return f"round {index + 1}: first trace ended, second has {rounds_b[index]}"
        if index >= len(rounds_b):
            return f"round {index + 1}: second trace ended, first has {rounds_a[index]}"
        round_a, round_b = rounds_a[index], rounds_b[index]
        for position in range(max(len(round_a), len(round_b))):
            left = round_a[position] if position < len(round_a) else "<missing>"
            right = round_b[position] if position < len(round_b) else "<missing>"
            if left != right:
                return (
                    f"round {index + 1}, firing {position}: "
                    f"{left!r} != {right!r}"
                )
    return None
