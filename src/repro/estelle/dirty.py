"""Dirty tracking: which modules changed since the last computation round.

The incremental round planner (:mod:`repro.runtime.planner`) only re-evaluates
transition selection for modules whose observable state may have changed since
their last evaluation.  Estelle makes that a *local* property: a transition's
enabling depends only on the module's own control state, its own variables and
the heads of its own interaction-point queues (ISO 9074 transitions cannot
read another module's variables).  The mutation points that can change any of
those are therefore exactly:

* a transition (or ``external_step``) firing on the module —
  :meth:`repro.estelle.module.Module.note_fired` marks it;
* an interaction arriving in, or being consumed from, one of the module's IP
  queues — :meth:`repro.estelle.interaction.InteractionPoint.enqueue` /
  :meth:`~repro.estelle.interaction.InteractionPoint.consume` mark the owner;
* the module tree changing shape (``init`` / ``release``) —
  :meth:`~repro.estelle.module.Module.create_child` /
  :meth:`~repro.estelle.module.Module.release_child` bump the *structure
  epoch* and mark the parent; the planner re-flattens the tree, evaluates
  the newcomers and keeps the selections of unmarked survivors.

Code that mutates a module's variables *outside* a firing (test fixtures,
hand-driven examples) is outside this contract; such callers must invalidate
the planner explicitly (:meth:`repro.runtime.planner.IncrementalRoundPlanner.
invalidate`).

The hooks are two nullable callables on :class:`~repro.estelle.module.Module`
(``_dirty_hook`` / ``_structure_hook``); when no tracker is attached they stay
``None`` and the mutation points pay one attribute load per event.  One
tracker owns a specification at a time — attaching a second one replaces the
first tracker's hooks.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .module import Module
    from .specification import Specification


class DirtyTracker:
    """Accumulates the set of module instances with changed state or queues.

    ``drain()`` hands the current dirty set to the planner and resets it; the
    *structure epoch* counts tree-shape changes (module creation/release) so a
    planner can detect that its flattened module arrays are stale and must be
    rebuilt.

    The dirty contract also has a *time* dimension: the passage of simulated
    time can enable a ``delay``-bearing transition without any data mutation,
    so a cached "nothing enabled" selection for an otherwise-clean module can
    go stale.  The tracker therefore keeps a **next-deadline index** — a heap
    of ``(deadline, module)`` entries fed by the module-level delay-timer
    refresh (``Module._deadline_hook``) whenever a timer arms.  Before each
    round the planner calls :meth:`wake_due` with the current simulated time,
    which marks every module whose deadline has passed as dirty (waking the
    sleeper for re-evaluation) instead of falling back to a full rescan.
    Entries are not removed when a timer disarms; a stale entry merely wakes
    a module whose re-evaluation confirms nothing changed, which is cheap and
    keeps the index append-only.
    """

    def __init__(self) -> None:
        self._dirty: Set["Module"] = set()
        self.structure_epoch = 0
        #: total mark events observed (hook invocations; stats/tests only).
        self.total_marks = 0
        #: the next-deadline index: (deadline, tiebreak, module) min-heap.
        self._deadlines: List[Tuple[float, int, "Module"]] = []
        self._deadline_sequence = itertools.count()

    # -- the hooks installed on modules ------------------------------------------

    def mark(self, module: "Module") -> None:
        self._dirty.add(module)
        self.total_marks += 1

    def note_structure_change(self, module: "Module") -> None:
        self.structure_epoch += 1
        self._dirty.add(module)
        self.total_marks += 1

    def note_deadline(self, module: "Module", deadline: float) -> None:
        """A delay timer armed on ``module``, expiring at ``deadline``."""
        heapq.heappush(
            self._deadlines, (deadline, next(self._deadline_sequence), module)
        )

    # -- consumption by the planner ------------------------------------------------

    def drain(self) -> Set["Module"]:
        """Return the modules marked since the last drain and reset the set."""
        dirty, self._dirty = self._dirty, set()
        return dirty

    def peek(self) -> FrozenSet["Module"]:
        return frozenset(self._dirty)

    def wake_due(self, now: float) -> int:
        """Mark every module whose recorded deadline is at or before ``now``.

        Returns the number of woken entries.  Call before :meth:`drain` so
        modules enabled purely by time passing are re-evaluated this round.
        """
        woken = 0
        deadlines = self._deadlines
        while deadlines and deadlines[0][0] <= now:
            _, _, module = heapq.heappop(deadlines)
            self._dirty.add(module)
            woken += 1
        return woken

    def next_deadline(self) -> Optional[float]:
        """The earliest recorded future deadline (None when the index is empty).

        After :meth:`wake_due` ``(now)`` every remaining entry is strictly
        later than ``now``; the round loop jumps the simulated clock here
        when a plan comes up empty but timers are still running.
        """
        return self._deadlines[0][0] if self._deadlines else None

    # -- installation ---------------------------------------------------------------

    @classmethod
    def attach(cls, specification: "Specification") -> "DirtyTracker":
        """Install a fresh tracker's hooks on every module of a specification.

        Dynamically created children inherit the hooks from their parent at
        ``create_child`` time, so the tracker keeps seeing mutations after the
        tree grows.
        """
        tracker = cls()
        for module in specification.root.walk():
            module._dirty_hook = tracker.mark
            module._structure_hook = tracker.note_structure_change
            module._deadline_hook = tracker.note_deadline
        return tracker
