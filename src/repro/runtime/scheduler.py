"""Estelle schedulers: transition selection per computation round.

The Estelle execution model proceeds in *computation steps* (rounds).  In each
round the scheduler determines, per system module, which modules fire a
transition, respecting:

* **parent precedence** — a child may only fire if no ancestor of it has an
  enabled transition in this round;
* **process parallelism** — children of a ``process``/``systemprocess``
  parent may all fire in the same round;
* **activity exclusivity** — of the children of an ``activity``/
  ``systemactivity`` parent, at most one child *subtree* fires per round;
* system modules are mutually independent and always run in parallel.

The paper found that for protocols with small processing times *"the Estelle
scheduler of many available compilers becomes the bottleneck for the speedup.
Measurements show a runtime percentage of the scheduler of up to 80%.  Our
scheduler shows better runtime behavior, as it is decentralized."*  Both
schedulers below produce the *same* selection (so functional behaviour is
identical); they differ only in where the selection overhead is charged:

* :class:`CentralisedScheduler` — one scheduler instance walks every module of
  the specification; its cost is serial and adds directly to the round
  makespan.
* :class:`DecentralisedScheduler` — each execution unit scans only its own
  modules; the cost is charged to the unit and therefore overlaps across
  processors.

A scheduler carries the two facts that distinguish them (``centralised`` and
``per_module_cost``); the charging itself happens in one place,
``SpecificationExecutor._charge_selection``, which knows the unit of every
examined module — dynamically created children included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..estelle.module import Module
from ..estelle.specification import Specification
from .dispatch import DispatchResult, DispatchStrategy


@dataclass
class PlannedFiring:
    """One module selected to execute in the current round."""

    module: Module
    result: DispatchResult

    @property
    def is_external(self) -> bool:
        return self.result.external


@dataclass
class RoundPlan:
    """The scheduler's output for one computation round."""

    firings: List[PlannedFiring] = field(default_factory=list)
    #: dispatch cost per module path for modules that were *examined*,
    #: whether or not they fire (scanning disabled modules costs time too).
    examined_costs: Dict[str, float] = field(default_factory=dict)
    #: number of modules examined during selection.
    examined_modules: int = 0

    @property
    def empty(self) -> bool:
        return not self.firings


def _select_subtree(
    module: Module,
    dispatch: DispatchStrategy,
    plan: RoundPlan,
) -> bool:
    """Recursive Estelle selection over one subtree.

    Returns True when this subtree contributed at least one firing (used by
    the activity-exclusivity rule of the caller).
    """
    result = dispatch.select(module)
    plan.examined_modules += 1
    plan.examined_costs[module.path] = (
        plan.examined_costs.get(module.path, 0.0) + result.cost
    )

    if result.fires:
        # Parent precedence: the module itself fires, its children do not.
        plan.firings.append(PlannedFiring(module=module, result=result))
        return True

    children = list(module.children.values())
    if not children:
        return False

    if module.attribute.children_parallel:
        fired_any = False
        for child in children:
            fired_any |= _select_subtree(child, dispatch, plan)
        return fired_any

    # activity / systemactivity parent: children are mutually exclusive.
    for child in children:
        if _select_subtree(child, dispatch, plan):
            return True
    return False


class Scheduler:
    """Base scheduler: produces the round plan shared by both variants."""

    name = "abstract"
    centralised = True

    def __init__(self, per_module_cost: float = 0.25):
        #: bookkeeping cost per module examined per round, *excluding* the
        #: dispatch scan cost (which the dispatch strategy reports itself).
        self.per_module_cost = per_module_cost

    def plan_round(
        self,
        specification: Specification,
        dispatch: DispatchStrategy,
        roots: Optional[Iterable[Module]] = None,
    ) -> RoundPlan:
        """Select the transitions to fire in the next round.

        ``roots`` restricts the walk to a subset of the specification's
        system modules (callers must pass them in declaration order).
        System modules are mutually independent — precedence never crosses
        system subtrees — so the restricted plan is exactly the global
        plan's projection onto those subtrees.  The multiprocess backend's
        barrier relaxation leans on this: a relaxed worker plans only its
        own roots, the coordinator plans only the barrier roots, and the
        concatenation (in declaration order) reproduces the global plan.
        """
        plan = RoundPlan()
        for system_module in (
            roots if roots is not None else specification.system_modules()
        ):
            _select_subtree(system_module, dispatch, plan)
        return plan


class CentralisedScheduler(Scheduler):
    """A single, global scheduler loop (the conventional generated runtime).

    All per-module selection work — bookkeeping *and* transition scanning —
    happens in one thread, so it adds serially to every round regardless of
    how many processors are available.
    """

    name = "centralised"
    centralised = True


class DecentralisedScheduler(Scheduler):
    """The paper's decentralised scheduler.

    *"Each part only has to check the transition of one module.  This can be
    done in parallel."* — per-module selection cost is charged to the
    execution unit owning the module and therefore overlaps across
    processors; nothing is charged serially.
    """

    name = "decentralised"
    centralised = False


def scheduler_by_name(name: str, **kwargs) -> Scheduler:
    """Factory used by benchmarks (`"centralised"` / `"decentralised"`)."""
    schedulers = {
        CentralisedScheduler.name: CentralisedScheduler,
        DecentralisedScheduler.name: DecentralisedScheduler,
    }
    try:
        return schedulers[name](**kwargs)
    except KeyError as exc:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(schedulers)}"
        ) from exc
