"""The round loop's simulated clock: what makes ``delay`` clauses real.

Estelle's ``delay`` clause (ISO 9074) makes a transition *fireable* only
after it has been continuously enabled for its delay.  That needs a notion
of time the round loop itself owns — distinct from the wall clock (the
multiprocess backend's rounds take however long the host takes) and from
the cost model's makespans in :class:`repro.sim.metrics.ExecutionMetrics`
(which depend on the dispatch strategy's selection costs and would make
timing diverge between table-driven, generated and planner dispatch).

The clock defined here advances by the *dispatch-independent* component of
the existing makespan accounting: per computation round, the busiest
execution unit's sum of firing costs (``Transition.cost`` scaled by the
machine model).  Both backends derive every term of that sum from the same
declared costs and the same unit placement, so the clock reads — and the
simulated ``time`` stamped on every :class:`~repro.runtime.tracing.
FiringEvent` — are bit-identical floats across {in-process, multiprocess}
× {table-driven, generated, planner}.  That is the property the canonical
trace contract (:mod:`repro.runtime.tracing`) relies on now that
``time`` is a canonical field.

When no transition is data-enabled but delay timers are still running, the
round loop *jumps* the clock to the earliest pending deadline instead of
declaring quiescence (:func:`next_delay_deadline` computes it from live
module timers; the incremental planner uses the
:class:`~repro.estelle.dirty.DirtyTracker` deadline index instead, which
additionally wakes the sleeping module so a cached "nothing enabled"
selection is re-evaluated).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..estelle.module import Module
    from ..estelle.specification import Specification


class SimulatedClock:
    """A monotonically advancing simulated-time cursor shared by a module tree.

    Modules reach the clock through their ``_sim_clock`` attribute (installed
    by :meth:`attach`, inherited by dynamically created children); transition
    delay checks are *inert* while no clock is attached, which keeps
    hand-driven tests and direct ``Transition.fire`` calls working unchanged.
    """

    __slots__ = ("now",)

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def advance(self, amount: float) -> None:
        """Advance by ``amount`` time units (the round's firing makespan)."""
        if amount < 0:
            raise ValueError(f"cannot advance the clock backwards ({amount})")
        self.now += amount

    @classmethod
    def attach(cls, specification: "Specification") -> "SimulatedClock":
        """Install a fresh clock on every module of a specification.

        Like :meth:`repro.estelle.dirty.DirtyTracker.attach`: one clock owns
        a tree at a time, and ``create_child`` propagates it to dynamically
        created modules.
        """
        clock = cls()
        for module in specification.root.walk():
            module._sim_clock = clock
        return clock


def firing_advance(unit_firing_costs: Dict[int, float]) -> float:
    """The round's clock advance: the busiest unit's total firing cost.

    ``unit_firing_costs`` maps execution-unit uid to the sum of the scaled
    costs of the transitions that unit fired this round.  The maximum is the
    modelled parallel execution time of the round's firings — the part of
    the makespan both backends compute identically.
    """
    return max(unit_firing_costs.values()) if unit_firing_costs else 0.0


def next_delay_deadline(modules: Iterable["Module"], now: float) -> Optional[float]:
    """Earliest future expiry among the armed delay timers of ``modules``.

    A timer is *armed* while its transition's untimed enabling condition
    holds (see :meth:`repro.estelle.module.Module.refresh_delay_timers`);
    its deadline is the arming time plus the transition's delay.  Deadlines
    at or before ``now`` are ignored: an expired timer means an enabled
    transition, so the caller's plan could not have been empty.

    Called only by the in-process executor's interpreted path
    (:meth:`~repro.runtime.executor.SpecificationExecutor._next_deadline`
    when no planner is attached), which rescans the tree every round anyway;
    the incremental planner keeps the same information in the
    :class:`~repro.estelle.dirty.DirtyTracker` deadline heap so it never has
    to scan the module population.
    """
    best: Optional[float] = None
    for module in modules:
        since_by_name = module._delay_since
        if not since_by_name:
            continue
        declarations = type(module)._transition_declarations
        for name, since in since_by_name.items():
            deadline = since + declarations[name].delay
            if deadline > now and (best is None or deadline < best):
                best = deadline
    return best
