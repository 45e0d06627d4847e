"""The slot fold: selection summaries in, one round plan out.

Every round plan on the mesh is made here, the coordinator's (over the
barrier units' system roots, from the summaries their workers report) and a
relaxed unit's (over the roots it wholly owns, from its own ``select()``)
alike: a summary overwrites its module's result slot in a walk-only
:func:`repro.runtime.planner.compile_plan_program`, and the generated walk
— the one the in-process planner runs — replays the Estelle precedence
rules over the slots.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from ...estelle.errors import SchedulingError
from ...estelle.module import Module
from ...estelle.specification import Specification
from ..dispatch import DispatchResult
from ..planner import compile_plan_program
from ..scheduler import RoundPlan

#: One module's selection outcome, as a worker reports it:
#: (path, transition name or None, external?, pending interactions).
SelectionSummary = Tuple[str, Optional[str], bool, int]

#: One planned firing, as the worker that fires it is told:
#: (plan index, path, transition name or None, external?).
AssignedFiring = Tuple[int, str, Optional[str], bool]


def assigned_firings(plan: RoundPlan) -> Iterator[AssignedFiring]:
    """The plan's firings in plan order, in the form workers fire them from."""
    for plan_index, firing in enumerate(plan.firings):
        transition = firing.result.transition
        yield (
            plan_index,
            firing.module.path,
            transition.name if transition else None,
            firing.is_external,
        )


class ParallelExecutionError(SchedulingError):
    """A worker died, timed out, or violated the round protocol."""


def _root_of(path: str) -> str:
    """The system root a module path lies under: paths are
    ``<spec>/<root>/...``, so the first two segments name it."""
    return "/".join(path.split("/", 2)[:2])


class _RoundPlanner:
    """Folds selection summaries into a round plan.

    Each module of the tree the fold is built on has a result slot; a
    summary overwrites its module's slot and the generated walk runs over
    the slots.  Workers report deltas — the modules that changed since their
    last report — so a slot nobody reported keeps its previous result, and a
    slot nobody *ever* reported fails the round.  The coordinator's tree is
    a replica that never fires (structurally accurate, behaviourally stale);
    a relaxed worker's is its live one.  Either way the summaries are the
    only selection input.
    """

    def __init__(self, specification: Specification) -> None:
        self.specification = specification
        #: (module class, transition name, external?) -> the (immutable) slot
        #: value standing for that selection; made once, shared by its slots.
        self._slot_values: Dict[tuple, DispatchResult] = {}
        #: queued interactions per module, as last reported (a module nobody
        #: re-reports cannot have changed — queue mutations mark it dirty).
        self._pending: Dict[Module, int] = {}
        self._program = None
        self._rebuild_program()

    def mask_roots(self, root_paths) -> None:
        """Exclude system subtrees that somebody else plans.

        A relaxed execution unit wholly owns its roots and plans them
        locally (precedence never crosses system subtrees, so a restricted
        walk equals the global plan's projection): the coordinator masks
        every relaxed unit's roots, and a relaxed unit masks every root but
        its own.  Masked slots are pinned to a non-firing placeholder, so
        the whole-specification walk stays well-formed without anybody ever
        reporting for them.
        """
        masked = frozenset(root_paths)
        placeholder = DispatchResult(
            transition=None, examined=0, cost=0.0, external=False
        )
        results = self._program.results
        for index, module in enumerate(self._program.modules):
            if _root_of(module.path) in masked:
                results[index] = placeholder

    def note_structure_change(self) -> None:
        """An init/release changed the tree the fold is built on.

        The walk program is re-bound lazily at the next :meth:`plan` call;
        surviving modules keep their slots.
        """
        self._shape_changed = True

    def _rebuild_program(self) -> None:
        # Walk-only: the slots are refreshed from summaries, so no selectors
        # are compiled here.  Slots for newly created modules start
        # unfilled; the worker owning them saw the same structure epoch and
        # re-reports its full shard, so this round's summaries fill them.
        # (A masked subtree never changes on this side — its topology
        # events are not applied here — so its pins carry over with the
        # survivors.)
        self._program = compile_plan_program(
            self.specification, with_evaluators=False, previous=self._program
        )
        self._index_by_path = {
            module.path: index for index, module in enumerate(self._program.modules)
        }
        self._pending = {
            module: pending
            for module, pending in self._pending.items()
            if module in self._program.index_of
        }
        self._shape_changed = False

    def plan(self, summaries: Dict[str, SelectionSummary]) -> RoundPlan:
        """Write ``summaries`` into their slots, then run the generated walk."""
        if self._shape_changed:
            self._rebuild_program()
        results = self._program.results
        for path, (_, transition_name, external, pending) in summaries.items():
            try:
                index = self._index_by_path[path]
            except KeyError as exc:
                raise ParallelExecutionError(
                    f"worker reported a selection for unknown module {path!r}"
                ) from exc
            module = self._program.modules[index]
            module_class = type(module)
            key = (module_class, transition_name, external)
            value = self._slot_values.get(key)
            if value is None:
                try:
                    transition = (
                        None
                        if transition_name is None
                        else module_class._transition_declarations[transition_name]
                    )
                except KeyError as exc:
                    raise ParallelExecutionError(
                        f"worker selected unknown transition {transition_name!r} "
                        f"for module {path!r}"
                    ) from exc
                # The selection cost a strategy models is an in-process
                # quantity (the executor's metrics); the mesh reads none.
                value = self._slot_values[key] = DispatchResult(
                    transition=transition, examined=0, cost=0.0, external=external
                )
            results[index] = value
            self._pending[module] = pending
        if None in results:
            missing = [
                module.path
                for module, result in zip(self._program.modules, results)
                if result is None
            ]
            raise ParallelExecutionError(
                f"no selection summary for module(s) {missing}; the first "
                "round (and the first round after a topology change) must "
                "cover every module of the owning worker's shard"
            )
        plan = RoundPlan()
        self._program.shape.walk(self._program, plan.firings)
        return plan

    def has_pending(self) -> bool:
        """Whether any module reported queued interactions (deadlock check)."""
        return any(self._pending.values())
