"""Optimizing code generator: specialized transition-selection functions.

Section 5.2 of the paper contrasts hard-coded selection functions with
table-driven selection and concludes the table wins beyond ~4 transitions.
This module goes one step further — it is the piece of the paper's compiler
back-end that *emits* the selection code instead of interpreting declaration
metadata at runtime:

* per-(state, interaction) **flattened transition tables**: for every state
  the candidate transitions are specialized into straight-line Python code,
  and ``when`` clauses become head-of-queue comparisons against interned
  interaction names, so transitions whose input is absent are skipped by the
  generated indexing instead of being examined one by one;
* **bound guards**: every ``provided`` guard is bound straight into the
  generated function's namespace — guards written in the Estelle text
  language arrive already compiled to Python by the front end
  (:mod:`repro.estelle.frontend.lower`), hand-written ones as they are;
* a :class:`GeneratedDispatchStrategy` that plugs the generated selectors
  into the existing runtime, registered with
  :func:`repro.runtime.dispatch.dispatch_by_name` under ``"generated"``.

A selector is compiled once per module class and stored on the class
(:func:`compile_module_class`); the classes of one specification text are
themselves lowered once per process (:meth:`repro.runtime.SpecSource.build`).

The generated selector produces exactly the same choice as
:class:`~repro.runtime.dispatch.TableDrivenDispatch` (same priority order,
same row contents) while examining at most as many candidates, so its
modelled selection cost — ``generated_overhead + scan_cost * examined`` — is
never worse than the table-driven strategy's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from ..estelle.module import Module
from ..estelle.specification import Specification
from ..estelle.transition import ANY_STATE, Transition
from .dispatch import (
    DispatchResult,
    DispatchStrategy,
    priority_ordered_transitions,
    register_strategy,
    state_rows,
)

#: A generated selector: ``(module) -> (chosen transition or None, examined)``.
SelectorFn = Callable[[Module], Tuple[Optional[Transition], int]]

#: The class attribute :func:`compile_module_class` stores its artifact in.
_ARTIFACT_ATTRIBUTE = "_generated_dispatch"


@dataclass
class CompiledModuleDispatch:
    """The code-generation artifact for one module class."""

    module_class: Type[Module]
    #: generated Python source of the selection function (for inspection,
    #: tests and the ``compile_and_run`` example).
    source: str
    #: the flattened per-state rows (priority order), including the
    #: wildcard row under :data:`ANY_STATE`.
    rows: Dict[Optional[str], Tuple[Transition, ...]]
    #: the compiled selector.
    select: SelectorFn

    def row_for(self, state: Optional[str]) -> Tuple[Transition, ...]:
        if state in self.rows:
            return self.rows[state]
        return self.rows[ANY_STATE]


def _emit_row(
    lines: List[str],
    row_name: str,
    state: Optional[str],
    row: Tuple[Transition, ...],
    transition_index: Dict[int, int],
    guard_names: Dict[int, Optional[str]],
) -> None:
    state_label = "<wildcard>" if state is ANY_STATE else repr(state)
    lines.append(f"def {row_name}(module):  # state {state_label}")
    if not row:
        lines.append("    return None, 0")
        lines.append("")
        return
    lines.append("    ips = module.ips")
    lines.append("    examined = 0")

    # The reachable prefix ends at the first unconditionally-enabled
    # transition (spontaneous, no guard, no delay): nothing after it can be
    # chosen.  A delay clause makes a transition conditional — its timer may
    # not have expired — so it never terminates the prefix.
    reachable: List[Transition] = []
    for candidate in row:
        reachable.append(candidate)
        if candidate.when is None and candidate.provided is None and candidate.delay <= 0:
            break

    # Fetch each referenced interaction point's queue head exactly once.
    head_vars: Dict[str, str] = {}
    for candidate in reachable:
        if candidate.when is not None and candidate.when[0] not in head_vars:
            ip_name = candidate.when[0]
            var = f"_h{len(head_vars)}"
            head_vars[ip_name] = var
            lines.append(f"    _ip = ips.get({ip_name!r})")
            lines.append(
                f"    {var} = _ip.queue[0] if _ip is not None and _ip.queue else None"
            )

    for candidate in reachable:
        idx = transition_index[id(candidate)]
        guard = guard_names[id(candidate)]
        # A delay clause adds a timer check after the guard, mirroring the
        # order of Transition.enabled (timers are refreshed by the shared
        # module-level pass before any row runs).
        delay_check = (
            f"module.delay_expired(_T[{idx}])" if candidate.delay > 0 else None
        )
        if candidate.when is not None:
            ip_name, interaction_name = candidate.when
            head = head_vars[ip_name]
            note = f"when {ip_name}.{interaction_name}"
            if candidate.delay > 0:
                note += f", delay {candidate.delay!r}"
            lines.append(f"    # {candidate.name!r}: {note}")
            lines.append(
                f"    if {head} is not None and {head}.name == {interaction_name!r}:"
            )
            lines.append("        examined += 1")
            conditions = [
                c
                for c in (
                    f"{guard}(module, {head})" if guard is not None else None,
                    delay_check,
                )
                if c is not None
            ]
            if not conditions:
                lines.append(f"        return _T[{idx}], examined")
            else:
                lines.append(f"        if {' and '.join(conditions)}:")
                lines.append(f"            return _T[{idx}], examined")
        else:
            note = "spontaneous"
            if candidate.delay > 0:
                note += f", delay {candidate.delay!r}"
            lines.append(f"    # {candidate.name!r}: {note}")
            lines.append("    examined += 1")
            conditions = [
                c
                for c in (
                    f"{guard}(module)" if guard is not None else None,
                    delay_check,
                )
                if c is not None
            ]
            if not conditions:
                lines.append(f"    return _T[{idx}], examined")
            else:
                lines.append(f"    if {' and '.join(conditions)}:")
                lines.append(f"        return _T[{idx}], examined")
    last = reachable[-1]
    if last.when is not None or last.provided is not None or last.delay > 0:
        lines.append("    return None, examined")
    lines.append("")


def compile_module_class(module_class: Type[Module]) -> CompiledModuleDispatch:
    """The specialized selector for a class, generated on first use and kept
    on the class itself (a subclass, which would inherit the attribute, gets
    its own).  Two threads racing on a new class may both generate; either
    artifact serves."""
    compiled = getattr(module_class, _ARTIFACT_ATTRIBUTE, None)
    if compiled is not None and compiled.module_class is module_class:
        return compiled
    # Rows and ordering come from the same helpers the table-driven strategy
    # uses, so the two strategies select from identical candidate lists.
    rows = state_rows(module_class)
    transitions = priority_ordered_transitions(module_class)
    transition_index = {id(t): i for i, t in enumerate(transitions)}

    lines: List[str] = [
        f"# Generated transition dispatch for module class "
        f"{module_class.__name__!r}.",
        "# Rows are flattened per (state, interaction); candidates appear in",
        "# priority order; guards are the transitions' own callables.",
        "",
    ]

    # Guards are bound as they are: the front end already compiled every
    # Estelle-sourced guard (repro.estelle.frontend.lower), and hand-written
    # Python guards are plain callables.
    guards: List[Callable[..., bool]] = []
    guard_names: Dict[int, Optional[str]] = {}
    for index, candidate in enumerate(transitions):
        if candidate.provided is None:
            guard_names[id(candidate)] = None
            continue
        name = f"_g{index}"
        guard_names[id(candidate)] = name
        lines.append(f"{name} = _RAW[{len(guards)}]  # guard of {candidate.name!r}")
        guards.append(candidate.provided)

    row_names: Dict[Optional[str], str] = {}
    for index, state in enumerate(rows):
        row_name = "_row_any" if state is ANY_STATE else f"_row_{index}"
        row_names[state] = row_name
        _emit_row(lines, row_name, state, rows[state], transition_index, guard_names)

    entries = ", ".join(
        f"{state!r}: {row_names[state]}" for state in rows if state is not ANY_STATE
    )
    lines.append(f"_ROWS = {{{entries}}}")
    lines.append("")
    lines.append("def _select(module):")
    if module_class._delayed_transitions:
        # Timer maintenance is a module-level pass shared with the
        # interpreted strategies; the rows then consult delay_expired.
        lines.append("    module.refresh_delay_timers()")
    lines.append("    state = module.state")
    lines.append("    row = _ROWS.get(state, _row_any)")
    lines.append("    return row(module)")
    source = "\n".join(lines)

    namespace: Dict[str, Any] = {"_T": transitions, "_RAW": guards}
    exec(compile(source, f"<generated dispatch {module_class.__name__}>", "exec"), namespace)
    compiled = CompiledModuleDispatch(
        module_class=module_class,
        source=source,
        rows=rows,
        select=namespace["_select"],
    )
    setattr(module_class, _ARTIFACT_ATTRIBUTE, compiled)
    return compiled


@register_strategy
class GeneratedDispatchStrategy(DispatchStrategy):
    """Transition selection through generated, specialized code.

    Costs mirror the other strategies: a fixed ``generated_overhead`` per
    call (smaller than the table-driven indexing overhead because the state
    row and the ``when`` matching are specialized into the function itself)
    plus ``scan_cost`` per candidate whose enabling actually had to be
    evaluated.  Candidates whose ``when`` interaction is not at the head of
    its queue are skipped by the generated indexing and never examined.
    """

    name = "generated"

    def __init__(self, scan_cost: float = 0.08, generated_overhead: float = 0.15):
        super().__init__(scan_cost=scan_cost, overhead=generated_overhead)

    def candidates(self, module: Module) -> List[Transition]:
        return list(compile_module_class(type(module)).row_for(module.state))

    def select(self, module: Module) -> DispatchResult:
        if module.EXTERNAL:
            return self._external_result(module)
        chosen, examined = compile_module_class(type(module)).select(module)
        return DispatchResult(
            transition=chosen,
            examined=examined,
            cost=self.overhead + self.scan_cost * examined,
        )


@dataclass
class GeneratedProgram:
    """The code generator's output for a whole specification."""

    specification: Specification
    strategy: GeneratedDispatchStrategy
    artifacts: Dict[str, CompiledModuleDispatch] = field(default_factory=dict)

    def source(self) -> str:
        """All generated selection functions, concatenated."""
        return "\n\n".join(
            artifact.source for artifact in self.artifacts.values()
        )

    def artifact_for(self, module_class: Type[Module]) -> CompiledModuleDispatch:
        return self.artifacts[module_class.__name__]


def compile_specification(
    specification: Specification,
    scan_cost: float = 0.08,
    generated_overhead: float = 0.15,
) -> GeneratedProgram:
    """Generate dispatch code for every module class used by ``specification``.

    The returned program's ``strategy`` is ready to hand to
    :class:`repro.runtime.executor.SpecificationExecutor` (every class's
    selector is already compiled and stored on the class, so no generation
    happens on the hot path).
    """
    strategy = GeneratedDispatchStrategy(
        scan_cost=scan_cost, generated_overhead=generated_overhead
    )
    program = GeneratedProgram(specification=specification, strategy=strategy)
    for module in specification.modules():
        module_class = type(module)
        if module_class.__name__ not in program.artifacts:
            program.artifacts[module_class.__name__] = compile_module_class(module_class)
    return program
