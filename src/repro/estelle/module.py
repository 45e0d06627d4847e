"""Estelle modules: attributes, class-level declarations and instances.

The Estelle model (ISO 9074) that the paper relies on:

* A specification is a tree of *module instances*.
* Every active module carries exactly one of four attributes:
  ``systemprocess``, ``systemactivity``, ``process`` or ``activity``.
* A system module (``systemprocess``/``systemactivity``) cannot be nested in
  another attributed module; each ``process``/``activity`` module must be
  (transitively) contained in a system module.
* ``process`` parents allow their children to run in parallel; ``activity``
  parents make their children mutually exclusive.
* A parent always takes precedence over its children: a child may only fire
  when no ancestor has an enabled transition.
* Module instances are created and destroyed dynamically, but only by their
  parent, and only at the position the specification allows.

Module *classes* (subclasses of :class:`Module`) correspond to Estelle module
headers + bodies; declaring interaction points with :func:`ip` and transitions
with :func:`repro.estelle.transition.transition` inside the class body mirrors
the textual Estelle declarations.  Instantiation happens through the parent
(:meth:`Module.create_child`) or the specification root.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type

from .errors import ModuleError, SpecificationError
from .interaction import Channel, IPDeclaration, Interaction, InteractionPoint
from .transition import Transition

_instance_counter = itertools.count(1)


class ModuleAttribute(enum.Enum):
    """The four Estelle module attributes plus ``UNATTRIBUTED`` for inactive
    container modules (such as the specification root)."""

    SYSTEMPROCESS = "systemprocess"
    SYSTEMACTIVITY = "systemactivity"
    PROCESS = "process"
    ACTIVITY = "activity"
    UNATTRIBUTED = "unattributed"

    @property
    def is_system(self) -> bool:
        return self in (ModuleAttribute.SYSTEMPROCESS, ModuleAttribute.SYSTEMACTIVITY)

    @property
    def is_active(self) -> bool:
        return self is not ModuleAttribute.UNATTRIBUTED

    @property
    def children_parallel(self) -> bool:
        """Whether children of a module with this attribute may run in parallel."""
        return self in (ModuleAttribute.SYSTEMPROCESS, ModuleAttribute.PROCESS)

    def may_contain(self, child: "ModuleAttribute") -> bool:
        """Static containment rule between parent and child attributes."""
        if child.is_system:
            # A system module cannot be contained in another *attributed* module.
            return self is ModuleAttribute.UNATTRIBUTED
        if child is ModuleAttribute.UNATTRIBUTED:
            # Inactive modules may appear anywhere above the system level.
            return self is ModuleAttribute.UNATTRIBUTED
        if self in (ModuleAttribute.PROCESS, ModuleAttribute.SYSTEMPROCESS):
            return child in (ModuleAttribute.PROCESS, ModuleAttribute.ACTIVITY)
        if self in (ModuleAttribute.ACTIVITY, ModuleAttribute.SYSTEMACTIVITY):
            return child is ModuleAttribute.ACTIVITY
        # Unattributed parents may not contain plain process/activity children
        # (those must live under a system module).
        return False


def ip(name: str, channel: Channel, role: str, array: bool = False) -> IPDeclaration:
    """Declare an interaction point in a module-class body."""
    return IPDeclaration(name=name, channel=channel, role=role, array=array)


class ModuleMeta(type):
    """Collects IP declarations and transitions from the class body.

    Declarations from base classes are inherited; a subclass redeclaring a
    transition or IP with the same name overrides the inherited one (this is
    how specialised protocol bodies refine a generic header, matching the
    paper's split between Estelle headers and external bodies).
    """

    def __new__(mcls, name, bases, namespace, **kwargs):
        cls = super().__new__(mcls, name, bases, dict(namespace), **kwargs)

        ip_decls: Dict[str, IPDeclaration] = {}
        transitions: Dict[str, Transition] = {}
        for base in reversed(cls.__mro__[1:]):
            ip_decls.update(getattr(base, "_ip_declarations", {}))
            transitions.update(getattr(base, "_transition_declarations", {}))

        for attr_name, value in namespace.items():
            if isinstance(value, IPDeclaration):
                ip_decls[value.name] = value
            elif isinstance(value, Transition):
                transitions[value.name] = value

        cls._ip_declarations = dict(ip_decls)
        cls._transition_declarations = dict(transitions)
        # Precomputed per class so the delay-timer refresh is a cheap no-op
        # for the (vast majority of) classes without timed transitions.
        cls._delayed_transitions = tuple(
            t for t in transitions.values() if t.delay > 0
        )
        return cls


class Module(metaclass=ModuleMeta):
    """Base class for Estelle module bodies.

    Subclasses set the class attributes:

    ``ATTRIBUTE``
        one of :class:`ModuleAttribute` (default ``PROCESS``),
    ``STATES``
        the state set of the module's FSM (may be empty for stateless
        "external body" modules),
    ``INITIAL_STATE``
        the initial state (defaults to the first entry of ``STATES``),
    ``EXTERNAL``
        ``True`` when the body is hand-coded rather than expressed as
        transitions (the paper's DUA / SUA / EUA and the ISODE interface
        module); external modules are driven through :meth:`external_step`.

    and declare interaction points / transitions in the class body.
    """

    ATTRIBUTE: ModuleAttribute = ModuleAttribute.PROCESS
    STATES: Tuple[str, ...] = ()
    INITIAL_STATE: Optional[str] = None
    EXTERNAL: bool = False

    _ip_declarations: Dict[str, IPDeclaration] = {}
    _transition_declarations: Dict[str, Transition] = {}
    _delayed_transitions: Tuple[Transition, ...] = ()

    # Dirty-tracking hooks (see repro.estelle.dirty): installed by a
    # DirtyTracker, inherited by dynamically created children, None when no
    # incremental planner observes this tree.
    _dirty_hook = None
    _structure_hook = None
    # Installed by DirtyTracker.attach alongside the dirty hooks: called with
    # (module, deadline) when a delay timer arms, feeding the tracker's
    # next-deadline index so time passing can wake a sleeping module.
    _deadline_hook = None
    # Observer of tree-shape changes with full detail: called with
    # ("init", parent_path, child_name, child_class_name, variables) after a
    # child is created (before its initialise runs) and ("release",
    # parent_path, child_name) after one is released.  Unlike
    # ``_structure_hook`` (which only bumps the dirty tracker's epoch) this
    # carries enough information to *replay* the change on another replica
    # of the tree — the multiprocess coordinator uses it to mirror
    # worker-side ``init`` / ``release`` onto its own module tree, resolving
    # the class name through ``Specification.body_classes``.  The variables
    # are shipped as a sorted tuple of pairs so the whole event is picklable
    # and value-comparable.
    _topology_hook = None
    # The shared simulated clock (repro.runtime.clock.SimulatedClock.attach);
    # delay clauses are inert while it is None.
    _sim_clock = None

    def __init__(self, name: str, parent: Optional["Module"] = None, **variables: Any):
        self.name = name
        self.parent = parent
        #: slash-separated path from the specification root to this
        #: instance; fixed at construction (a module is never renamed or
        #: re-parented).
        self.path: str = name if parent is None else f"{parent.path}/{name}"
        self.uid = next(_instance_counter)
        self.children: Dict[str, Module] = {}
        self.variables: Dict[str, Any] = dict(variables)
        self.state: Optional[str] = self.INITIAL_STATE or (
            self.STATES[0] if self.STATES else None
        )
        self.ips: Dict[str, InteractionPoint] = {
            decl.name: decl.instantiate(self)
            for decl in self._ip_declarations.values()
            if not decl.array
        }
        self._array_counters: Dict[str, int] = {
            decl.name: 0 for decl in self._ip_declarations.values() if decl.array
        }
        #: simulated time at which each currently-armed delay timer started
        #: (transition name -> arming time); maintained by
        #: :meth:`refresh_delay_timers`, cleared per transition on firing.
        self._delay_since: Dict[str, float] = {}
        #: per-variable serial counters behind the Estelle ``init`` statement's
        #: deterministic child naming (``<var>#<serial>``); see
        #: :mod:`repro.estelle.frontend.lower`.
        self._init_serial: Dict[str, int] = {}
        #: the send log: interactions sent per IP, in first-send order, since
        #: :func:`repro.runtime.executor.fire_planned` last emptied it.
        self.send_log: Dict[InteractionPoint, int] = {}
        self.fired_count = 0
        self.initialised = False
        #: set (for the whole subtree) by :meth:`release_child`.  A released
        #: module must never fire again — the round executors check this flag
        #: so a module released mid-round while present in the already-built
        #: plan is skipped instead of fired.
        self.released = False

    # -- identity ---------------------------------------------------------------

    @property
    def attribute(self) -> ModuleAttribute:
        return self.ATTRIBUTE

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.path!r}, state={self.state!r})"

    # -- lifecycle --------------------------------------------------------------

    def initialise(self) -> None:
        """Estelle ``initialize`` part.

        Called exactly once by the runtime (or parent) after the instance has
        been created and its static IPs exist.  Override to set variables or
        create initial children.
        """
        self.initialised = True

    def create_child(
        self,
        module_class: Type["Module"],
        name: str,
        **variables: Any,
    ) -> "Module":
        """Dynamically create a child module instance (Estelle ``init``).

        Enforces the attribute containment rules and name uniqueness among the
        module's children.
        """
        if name in self.children:
            raise ModuleError(f"{self.path}: child {name!r} already exists")
        child_attr = module_class.ATTRIBUTE
        if not self.attribute.may_contain(child_attr):
            raise ModuleError(
                f"{self.path} ({self.attribute.value}) may not contain a child "
                f"with attribute {child_attr.value}"
            )
        child = module_class(name, parent=self, **variables)
        # Hooks propagate before initialise(): the initializer may already
        # fire outputs or create grandchildren that must be tracked.
        child._dirty_hook = self._dirty_hook
        child._structure_hook = self._structure_hook
        child._deadline_hook = self._deadline_hook
        child._topology_hook = self._topology_hook
        child._sim_clock = self._sim_clock
        self.children[name] = child
        if self._structure_hook is not None:
            self._structure_hook(self)
        if self._topology_hook is not None:
            # Reported before initialise so a grandchild created inside the
            # initializer appears *after* its parent in the event stream.
            self._topology_hook(
                (
                    "init",
                    self.path,
                    name,
                    module_class.__name__,
                    tuple(sorted(variables.items())),
                )
            )
        child.initialise()
        return child

    def release_child(self, name: str) -> None:
        """Destroy a child instance (Estelle ``release``).

        All the child's (and its descendants') interaction points are
        disconnected first, so dangling peers never observe a released module.
        """
        child = self.children.pop(name, None)
        if child is None:
            raise ModuleError(f"{self.path}: no child named {name!r} to release")
        for descendant in child.walk():
            descendant.released = True
            for point in descendant.ips.values():
                point.disconnect()
        if self._structure_hook is not None:
            self._structure_hook(self)
        if self._topology_hook is not None:
            self._topology_hook(("release", self.path, name))

    def walk(self) -> Iterator["Module"]:
        """Yield this module and every descendant, depth-first, pre-order."""
        yield self
        for child in list(self.children.values()):
            yield from child.walk()

    def ancestors(self) -> Iterator["Module"]:
        """Yield the chain of ancestors from the direct parent to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def system_module(self) -> Optional["Module"]:
        """The system module this module belongs to (itself when it is one)."""
        if self.attribute.is_system:
            return self
        for ancestor in self.ancestors():
            if ancestor.attribute.is_system:
                return ancestor
        return None

    def depth(self) -> int:
        """Distance from the specification root (root has depth 0)."""
        return sum(1 for _ in self.ancestors())

    # -- interaction points -----------------------------------------------------

    def add_array_ip(self, declared_name: str) -> InteractionPoint:
        """Instantiate the next element of an IP array (e.g. per connection)."""
        decl = self._ip_declarations.get(declared_name)
        if decl is None or not decl.array:
            raise ModuleError(
                f"{self.path}: {declared_name!r} is not a declared interaction point array"
            )
        index = self._array_counters[declared_name]
        self._array_counters[declared_name] = index + 1
        point = decl.instantiate(self, index=index)
        self.ips[point.name] = point
        return point

    def ip_named(self, name: str) -> InteractionPoint:
        """Look up an interaction point (raising a precise error when missing)."""
        try:
            return self.ips[name]
        except KeyError as exc:
            raise ModuleError(
                f"{self.path} has no interaction point {name!r}; "
                f"declared: {sorted(self.ips)}"
            ) from exc

    def output(self, ip_name: str, interaction_name: str, **params: Any) -> None:
        """Send an interaction through one of this module's IPs.

        Every module send passes through here (compiled, interpreted and
        EXTERNAL bodies alike) and is counted against its IP in
        :attr:`send_log`.  :func:`repro.runtime.executor.fire_planned`
        empties the log before each firing, so right after a firing it holds
        that firing's sends, which both backends charge and route from.
        """
        point = self.ip_named(ip_name)
        point.output(Interaction(interaction_name, params))
        self.send_log[point] = self.send_log.get(point, 0) + 1

    def pending_interactions(self) -> int:
        """Total interactions queued across all of this module's IPs."""
        return sum(point.pending() for point in self.ips.values())

    # -- transitions ------------------------------------------------------------

    @classmethod
    def declared_transitions(cls) -> List[Transition]:
        """All transitions declared on this module class (stable order)."""
        return list(cls._transition_declarations.values())

    def refresh_delay_timers(self) -> None:
        """Re-evaluate the arming state of every ``delay``-bearing transition.

        The delay timer of a transition runs while its *untimed* enabling
        condition holds continuously: the timer arms (recording the current
        simulated time, and reporting the expiry to the deadline hook) the
        first refresh that finds the condition true, and disarms the first
        refresh that finds it false.  Every dispatch strategy runs this same
        module-level pass before candidate scanning — timer maintenance must
        not depend on *which* candidates a particular strategy happens to
        examine, or the strategies would diverge behaviourally.

        A no-op while no simulated clock is attached (delay clauses inert).
        """
        clock = self._sim_clock
        if clock is None:
            return
        now = clock.now
        since = self._delay_since
        for t in self._delayed_transitions:
            if t.enabled_untimed(self):
                if t.name not in since:
                    since[t.name] = now
                    if self._deadline_hook is not None:
                        self._deadline_hook(self, now + t.delay)
            else:
                since.pop(t.name, None)

    def delay_expired(self, transition: Transition) -> bool:
        """Whether ``transition``'s delay timer is armed and has run down.

        True (inert) when no clock is attached; otherwise the transition must
        have been continuously enabled since ``now - delay`` or earlier.
        """
        clock = self._sim_clock
        if clock is None:
            return True
        since = self._delay_since.get(transition.name)
        return since is not None and clock.now >= since + transition.delay

    def enabled_transitions(self) -> List[Transition]:
        """Transitions currently enabled on this instance, best priority first.

        External modules report an enabled pseudo-transition when
        :meth:`external_ready` says so; the runtime then calls
        :meth:`external_step` instead of firing a declared transition.
        """
        if self._delayed_transitions:
            self.refresh_delay_timers()
        enabled = [t for t in self.declared_transitions() if t.enabled(self)]
        enabled.sort(key=lambda t: t.priority)
        return enabled

    def has_enabled_transition(self) -> bool:
        if self.EXTERNAL and self.external_ready():
            return True
        if self._delayed_transitions:
            self.refresh_delay_timers()
        return any(t.enabled(self) for t in self.declared_transitions())

    # -- external (hand-coded) bodies -------------------------------------------

    def external_ready(self) -> bool:
        """Whether a hand-coded body has work to do.

        The default mirrors the ISODE interface loop from Section 4.3 of the
        paper: the module is ready whenever any of its IP queues is non-empty.
        """
        return self.pending_interactions() > 0

    def external_step(self) -> float:
        """Run one step of a hand-coded body; returns its simulated cost.

        Subclasses with ``EXTERNAL = True`` override this.  The default raises
        so that forgetting the override is an immediate, clear failure.
        """
        raise ModuleError(
            f"{self.path}: EXTERNAL module must override external_step()"
        )

    # -- bookkeeping used by the runtime ----------------------------------------

    def note_fired(self) -> None:
        self.fired_count += 1
        if self._dirty_hook is not None:
            # Firing may have changed state, variables and own queue heads.
            self._dirty_hook(self)


class SpecificationRoot(Module):
    """The unattributed root module of a specification.

    Only system modules (and other unattributed containers) may be its
    children; it never fires transitions itself.
    """

    ATTRIBUTE = ModuleAttribute.UNATTRIBUTED

    def has_enabled_transition(self) -> bool:  # the root is always passive
        return False
