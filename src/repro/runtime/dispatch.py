"""Transition-dispatch strategies: hard-coded scan vs table-driven selection.

Section 5.2 of the paper: *"Mainly, there are two alternatives: first, each
transition may be hard-coded as a C++ code block in a transition selection
function.  Prioritized transitions will have their place at the beginning of
the function.  Second, states and transitions may be mapped to a table.  The
current state will be used as an index for the row which means that only the
enabled transitions for that state will be investigated.  As newer performance
measurements show, the table-controlled approach is significantly better than
the hard-coded one when the number of transitions becomes larger than four."*

Both strategies are implemented against the declaration metadata of
:class:`repro.estelle.transition.Transition`.  They return the chosen
transition *and* the selection cost (in work units), so the executor can
charge the cost to the right execution unit and the benchmark can reproduce
the crossover around four transitions.

Which strategy runs is a choice the *in-process* executor offers — there the
comparison is measured (E4 and E5 in ``tests/test_paper_claims.py``) and the
interpreted strategies are the reference oracle of the tests and the fuzzer.
The multiprocess mesh and the serve sessions offer no such choice: they plan
through the generated selectors and the planner (:mod:`repro.runtime.planner`)
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from ..estelle.module import Module
from ..estelle.transition import ANY_STATE, Transition

#: Name -> strategy class.  Extended by :func:`register_strategy`; the code
#: generator (:mod:`repro.runtime.codegen`) registers its generated strategy
#: here so ``dispatch_by_name("generated")`` works everywhere.
_STRATEGY_REGISTRY: Dict[str, Type["DispatchStrategy"]] = {}


def register_strategy(cls: Type["DispatchStrategy"]) -> Type["DispatchStrategy"]:
    """Class decorator: make a strategy available to :func:`dispatch_by_name`."""
    _STRATEGY_REGISTRY[cls.name] = cls
    return cls


def priority_ordered_transitions(module_class: type) -> Tuple[Transition, ...]:
    """A module class's declared transitions, best priority first (stable)."""
    return tuple(
        sorted(module_class.declared_transitions(), key=lambda t: t.priority)
    )


def state_rows(module_class: type) -> Dict[Optional[str], Tuple[Transition, ...]]:
    """The (state -> candidate transitions) table shared by the table-driven
    strategy and the code generator.

    Each state's row holds the transitions whose ``from`` clause admits it
    (wildcard transitions appear in every row); the extra :data:`ANY_STATE`
    row serves instances that sit in a state outside the declared set.
    Keeping this in one place guarantees the generated strategy selects from
    exactly the same rows as the interpreted table.
    """
    transitions = priority_ordered_transitions(module_class)
    states: List[Optional[str]] = list(getattr(module_class, "STATES", ())) or [None]
    rows: Dict[Optional[str], Tuple[Transition, ...]] = {}
    for state in states:
        rows[state] = tuple(
            t
            for t in transitions
            if ANY_STATE in t.from_states or state in t.from_states
        )
    rows[ANY_STATE] = tuple(t for t in transitions if ANY_STATE in t.from_states)
    return rows


@dataclass(frozen=True)
class DispatchResult:
    """Outcome of one transition-selection pass over a single module."""

    transition: Optional[Transition]
    examined: int
    cost: float
    external: bool = False

    @property
    def fires(self) -> bool:
        return self.transition is not None or self.external


class DispatchStrategy:
    """Interface for transition-selection strategies.

    ``scan_cost`` is the cost of evaluating a single candidate transition's
    enabling condition; ``overhead`` is a fixed per-call cost (the table
    lookup / indexing machinery for the table-driven variant).
    """

    name = "abstract"

    def __init__(self, scan_cost: float = 0.08, overhead: float = 0.0):
        self.scan_cost = scan_cost
        self.overhead = overhead

    # -- candidate enumeration (strategy-specific) --------------------------------

    def candidates(self, module: Module) -> List[Transition]:
        raise NotImplementedError

    # -- shared selection logic -----------------------------------------------------

    def _external_result(self, module: Module) -> DispatchResult:
        """External (hand-coded) modules bypass transition scanning entirely:
        the hand-written body polls its interaction points itself, which the
        paper models with the ISODE-interface loop of Section 4.3."""
        return DispatchResult(
            transition=None,
            examined=0,
            cost=self.overhead,
            external=module.external_ready(),
        )

    def select(self, module: Module) -> DispatchResult:
        """Choose the transition the module should fire next (or none)."""
        if module.EXTERNAL:
            return self._external_result(module)

        # Delay timers are maintained by a strategy-independent module-level
        # pass (never as a side effect of candidate scanning, which differs
        # per strategy); `Transition.enabled` then consults the timers.
        if module._delayed_transitions:
            module.refresh_delay_timers()

        examined = 0
        chosen: Optional[Transition] = None
        for candidate in self.candidates(module):
            examined += 1
            if candidate.enabled(module):
                chosen = candidate
                break
        cost = self.overhead + self.scan_cost * examined
        return DispatchResult(transition=chosen, examined=examined, cost=cost)


@register_strategy
class HardCodedDispatch(DispatchStrategy):
    """Linear scan over the full transition list, priorities first.

    Mirrors a generated selection function in which every transition is a
    code block: candidates are examined in priority order regardless of the
    module's current state, so the cost grows with the *total* number of
    declared transitions.
    """

    name = "hard-coded"

    def __init__(self, scan_cost: float = 0.08):
        super().__init__(scan_cost=scan_cost, overhead=0.0)
        self._ordered_cache: Dict[type, List[Transition]] = {}

    def candidates(self, module: Module) -> List[Transition]:
        module_class = type(module)
        ordered = self._ordered_cache.get(module_class)
        if ordered is None:
            ordered = sorted(
                module_class.declared_transitions(), key=lambda t: t.priority
            )
            self._ordered_cache[module_class] = ordered
        return ordered


@register_strategy
class TableDrivenDispatch(DispatchStrategy):
    """State-indexed transition table.

    The table maps each state to the transitions whose ``from`` clause admits
    it (wildcard transitions appear in every row).  Selection pays a fixed
    indexing overhead but only examines the current state's row, which is why
    it wins once modules have more than a handful of transitions.
    """

    name = "table-driven"

    def __init__(self, scan_cost: float = 0.08, table_overhead: float = 0.25):
        super().__init__(scan_cost=scan_cost, overhead=table_overhead)
        self._tables: Dict[type, Dict[Optional[str], Tuple[Transition, ...]]] = {}

    def _table_for(self, module_class: type) -> Dict[Optional[str], Tuple[Transition, ...]]:
        table = self._tables.get(module_class)
        if table is None:
            table = state_rows(module_class)
            self._tables[module_class] = table
        return table

    def candidates(self, module: Module) -> List[Transition]:
        table = self._table_for(type(module))
        if module.state in table:
            return list(table[module.state])
        return list(table[ANY_STATE])


def dispatch_class_by_name(name: str) -> Type[DispatchStrategy]:
    """The registered strategy class for ``name``; ``ValueError`` naming the
    registry otherwise.  The multiprocess backend, which runs no strategy,
    holds its ``dispatch=`` argument to the registry through this."""
    try:
        return _STRATEGY_REGISTRY[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown dispatch strategy {name!r}; choose from "
            f"{sorted(_STRATEGY_REGISTRY)}"
        ) from exc


def dispatch_by_name(name: str, **kwargs) -> DispatchStrategy:
    """Factory used by the benchmark harness.

    Built-in names: ``"hard-coded"`` and ``"table-driven"``; importing
    :mod:`repro.runtime` (or :mod:`repro.runtime.codegen`) additionally
    registers ``"generated"``.
    """
    return dispatch_class_by_name(name)(**kwargs)
