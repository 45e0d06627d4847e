"""The specification executor: Estelle semantics on a simulated multiprocessor.

This is the runtime a code generator would emit.  It repeatedly asks the
scheduler for a round plan (which modules fire), executes the selected
transitions, and accounts the cost of every piece of work to the execution
unit — and through the unit to the processor — that performs it:

* transition action cost (``Transition.cost`` scaled by the machine model),
* transition-selection cost (dispatch strategy, charged per examined module),
* scheduler bookkeeping (serial for the centralised scheduler, per-unit for
  the decentralised one),
* message-passing cost, depending on whether an interaction stays within a
  unit, crosses units on the same machine (thread synchronisation) or crosses
  machines (remote message),
* context-switch cost when several runnable units share a processor.

The round's *makespan* is the serial scheduler overhead plus the busiest
processor's work; simulated time advances by the makespan per round.  Speedup
numbers in the benchmarks are ratios of the elapsed time of two executions of
the same specification under different mappings/machines, exactly the
methodology of the paper's Section 5.

Backends
--------

The executor itself is one way to run a specification; the *backend
abstraction* at the bottom of this module generalises it.  An
:class:`ExecutionBackend` turns a :class:`SpecSource` (a picklable recipe for
building a fresh specification — an ``.estelle`` file, inline Estelle text,
or an importable factory) into a :class:`BackendResult` carrying the firing
trace and measured wall-clock time.  :class:`InProcessBackend` wraps this
module's executor; :class:`repro.runtime.parallel.MultiprocessBackend`
registers itself here and runs each execution unit in its own OS process.
Both must produce identical firing traces on the same specification, which
is asserted by ``tests/test_parallel_backend.py`` and the CI smoke job.
"""

from __future__ import annotations

import hashlib
import importlib
import threading
import time
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, Union

from ..estelle.errors import SchedulingError
from ..estelle.frontend import SpecificationTemplate, compile_template
from ..estelle.module import Module
from ..estelle.specification import Specification
from ..estelle.transition import Transition
from ..obs import NULL_OBS, Observability
from ..sim.machine import Cluster, CostModel, Machine
from ..sim.metrics import ExecutionMetrics
from .clock import SimulatedClock, firing_advance, next_delay_deadline
from .dispatch import DispatchStrategy, TableDrivenDispatch
from .mapping import ExecutionUnit, MappingStrategy, SystemMapping, ThreadPerModuleMapping
from .planner import IncrementalRoundPlanner, PlannerDispatch
from .scheduler import DecentralisedScheduler, PlannedFiring, RoundPlan, Scheduler
from .tracing import ExecutionTrace, FiringEvent


#: The middle of a trace row that firing produces: (transition name, state
#: before, state after, consumed interaction name, scaled cost).
Fired = Tuple[str, Optional[str], Optional[str], Optional[str], float]


def fire_planned(module: Module, transition: Optional[Transition], scale: float) -> Fired:
    """Fire one planned firing: ``transition``, or the module's external step
    when it is ``None``.  Both execution backends fire through here."""
    if transition is None:
        cost = module.external_step() * scale
        return "external_step", module.state, module.state, None, cost
    record = transition.fire(module)
    interaction = record.interaction
    return (
        record.transition.name,
        record.state_before,
        record.state_after,
        interaction.name if interaction else None,
        record.cost * scale,
    )


class SpecificationExecutor:
    """Executes a validated specification on a simulated cluster."""

    def __init__(
        self,
        specification: Specification,
        cluster: Cluster,
        mapping: Optional[MappingStrategy] = None,
        scheduler: Optional[Scheduler] = None,
        dispatch: Optional[DispatchStrategy] = None,
        cost_model: Optional[CostModel] = None,
        trace: bool = False,
        busy_work: Optional[Callable[[float], None]] = None,
        obs: Optional[Observability] = None,
    ):
        self.specification = specification
        self.cluster = cluster
        self.mapping_strategy = mapping or ThreadPerModuleMapping()
        self.scheduler = scheduler or DecentralisedScheduler()
        self.dispatch = dispatch or TableDrivenDispatch()
        #: observability handle: wall-clock metrics and lifecycle events
        #: only — it never reads or writes :attr:`clock` and never inspects
        #: module state, so canonical traces are identical with or without
        #: it (``tests/test_obs_equivalence.py``).  Defaults to the shared
        #: do-nothing bundle.
        self.obs = obs if obs is not None else NULL_OBS
        #: the simulated clock driving Estelle ``delay`` semantics: advances
        #: by the busiest unit's firing-cost sum per round, and jumps to the
        #: next delay deadline when a round plan comes up empty with timers
        #: still running.  Both execution backends derive identical clock
        #: readings, which FiringEvent.time (a canonical trace field) pins.
        self.clock = SimulatedClock.attach(specification)
        #: the incremental fused planner replaces the per-round scheduler
        #: walk when the "planner" dispatch strategy is selected.
        self.planner: Optional[IncrementalRoundPlanner] = (
            IncrementalRoundPlanner(
                specification,
                dispatch=self.dispatch,
                clock=self.clock,
                obs=self.obs,
            )
            if isinstance(self.dispatch, PlannerDispatch)
            else None
        )
        #: cached delay-bearing modules for the interpreted strategy-
        #: independent timer pass (None = recompute).  Invalidated through
        #: the structure hook, so the per-round cost of the pass on a
        #: delay-free specification is one attribute load + an empty loop
        #: instead of an O(modules) tree walk.  Only installed when no
        #: planner owns the hooks (the planner's dirty tracking already
        #: covers timer refresh through dirty re-evaluation).
        self._delayed_modules: Optional[Tuple[Module, ...]] = None
        if self.planner is None:
            for module in specification.root.walk():
                module._structure_hook = self._note_structure_change
        self.cost_model = cost_model or cluster.machines()[0].cost_model
        #: optional hook emulating *real* per-firing processing time (the
        #: measured-speedup harness burns CPU proportional to the firing's
        #: modelled cost so wall-clock comparisons against the multiprocess
        #: backend measure the same work).
        self.busy_work = busy_work
        self.trace = ExecutionTrace(enabled=trace)
        self.metrics = ExecutionMetrics()
        self.deadlocked = False
        self._round_index = 0

        registry = self.obs.registry
        self._m_rounds = registry.counter(
            "repro_executor_rounds_total", "Computation rounds executed."
        )
        self._m_firings = registry.counter(
            "repro_executor_firings_total",
            "Transition firings (external steps included).",
        )
        self._m_stops = registry.counter(
            "repro_executor_stops_total",
            "Run loop terminations by stop reason.",
            labelnames=("reason",),
        )
        self._m_deadline_jumps = registry.counter(
            "repro_executor_deadline_jumps_total",
            "Simulated-clock jumps to the next delay deadline.",
        )
        self._h_plan = registry.histogram(
            "repro_executor_plan_seconds",
            "Wall-clock seconds spent planning each round.",
        )
        self._h_fire = registry.histogram(
            "repro_executor_fire_seconds",
            "Wall-clock seconds spent firing each round's plan.",
        )

        specification.validate()
        self._mapping: SystemMapping = self.mapping_strategy.compute(
            specification, cluster
        )
        # Modules created dynamically after the mapping was computed inherit
        # their parent's unit (the paper's runtime attaches a new connection
        # handler to the thread that created it unless remapped).  Entries of
        # released modules are evicted at the end of any round whose firings
        # changed the tree (see :meth:`_evict_released_units`), so the map is
        # bounded by the *live* dynamic population even when a long-running
        # service churns init/release indefinitely.
        self._dynamic_unit: Dict[str, ExecutionUnit] = {}
        #: set by the structure hook (interpreted path) when a child was
        #: created or released; the planner path reads the tracker's
        #: structure epoch instead.
        self._topology_changed = False

    # -- mapping helpers ----------------------------------------------------------

    @property
    def mapping(self) -> SystemMapping:
        return self._mapping

    def remap(self) -> None:
        """Recompute the module-to-unit mapping (e.g. after many inits)."""
        self._mapping = self.mapping_strategy.compute(self.specification, self.cluster)
        self._dynamic_unit.clear()

    def unit_of(self, module: Module) -> ExecutionUnit:
        """Execution unit of a module, resolving dynamically created modules."""
        path = module.path
        if self._mapping.knows(path):
            return self._mapping.unit_of(path)
        if path in self._dynamic_unit:
            return self._dynamic_unit[path]
        ancestor = module.parent
        while ancestor is not None:
            if self._mapping.knows(ancestor.path):
                unit = self._mapping.unit_of(ancestor.path)
                self._dynamic_unit[path] = unit
                return unit
            if ancestor.path in self._dynamic_unit:
                unit = self._dynamic_unit[ancestor.path]
                self._dynamic_unit[path] = unit
                return unit
            ancestor = ancestor.parent
        raise SchedulingError(
            f"cannot determine an execution unit for module {path!r}"
        )

    def _unit_of_path(self, path: str) -> Optional[ExecutionUnit]:
        if self._mapping.knows(path):
            return self._mapping.unit_of(path)
        return self._dynamic_unit.get(path)

    # -- execution ------------------------------------------------------------------

    def run(
        self,
        max_rounds: int = 10_000,
        stop_when_quiescent: bool = True,
        deadline: Optional[float] = None,
    ) -> ExecutionMetrics:
        """Run rounds until quiescence, ``max_rounds``, or a clock deadline.

        ``metrics.stop_reason`` records which of the three actually ended the
        loop — ``"quiescent"`` (nothing enabled, no timer pending),
        ``"budget"`` (``max_rounds`` exhausted with work still possible) or
        ``"deadline"`` (the simulated clock reached ``deadline`` before the
        next round started).  ``deadline`` is simulated time: no round begins
        at or after it, so a timeslicing caller can resume later and obtain
        the same rounds a single uninterrupted run would have produced.
        """
        self.metrics.stop_reason = "budget"
        for _ in range(max_rounds):
            if deadline is not None and self.clock.now >= deadline:
                self.metrics.stop_reason = "deadline"
                break
            progressed = self.step_round()
            if not progressed and stop_when_quiescent:
                self.metrics.stop_reason = "quiescent"
                break
        if self.planner is not None:
            self.planner.flush_metrics()
        self._m_stops.labels(reason=self.metrics.stop_reason).inc()
        self.obs.events.emit(
            "run_stop",
            specification=self.specification.name,
            stop_reason=self.metrics.stop_reason,
            rounds=self.metrics.rounds,
            transitions_fired=self.metrics.transitions_fired,
        )
        return self.metrics

    # -- checkpoint/restore -------------------------------------------------------

    def snapshot(self) -> "ExecutorSnapshot":
        """Capture a picklable cut of the full executor state.

        The snapshot holds exactly what resumption needs for a
        byte-identical canonical trace suffix — module control states,
        variables, IP queues, armed delay timers, dynamic topology,
        ``<var>#<serial>`` counters, the simulated clock and the round
        cursor (see :mod:`repro.runtime.checkpoint`).  EXTERNAL bodies are
        rejected: their hand-coded Python state is outside the inventory.
        """
        from .checkpoint import capture_executor

        return capture_executor(self)

    def restore(self, snapshot: "ExecutorSnapshot") -> None:
        """Impose a :meth:`snapshot` onto this executor.

        The trace restarts empty, so running on restores yields the
        uninterrupted run's trace *suffix*; planner caches are rebuilt via
        the dirty-tracking contract's explicit invalidation.
        """
        from .checkpoint import restore_executor

        restore_executor(self, snapshot)

    def _note_structure_change(self, module: Module) -> None:
        """Structure hook (interpreted path): a child was created or
        released, so the cached delay-bearing module list is stale."""
        self._delayed_modules = None
        self._topology_changed = True

    def _evict_released_units(self) -> None:
        """Drop ``_dynamic_unit`` entries whose modules left the tree.

        Called only after a round whose firings changed the module tree
        (structure changes already force an O(tree) planner rebuild, so the
        walk here adds no new asymptotic cost).  Without this, a
        long-running process that churns ``init``/``release`` grows the map
        without bound — one stale entry per released dynamic module.
        """
        live = {module.path for module in self.specification.root.walk()}
        for path in [p for p in self._dynamic_unit if p not in live]:
            del self._dynamic_unit[path]

    def _delay_bearing_modules(self) -> Tuple[Module, ...]:
        cached = self._delayed_modules
        if cached is None:
            cached = tuple(
                module
                for module in self.specification.modules()
                if module._delayed_transitions
            )
            self._delayed_modules = cached
        return cached

    def _plan(self) -> RoundPlan:
        if self.planner is not None:
            return self.planner.plan_round()
        # Strategy-independent delay-timer pass over every delay-bearing
        # module.  The interpreted precedence walk prunes the subtree under
        # a firing parent, so select()-time refreshes alone would arm a
        # pruned child's timers later than the planner (which re-evaluates
        # every dirty module) and the multiprocess workers (which select
        # their full shard) — observable as diverging delay schedules once
        # dynamically created children carry delay clauses.  Refreshing is
        # idempotent for modules whose enabling did not change, and the
        # cached (structure-hook invalidated) module list makes the pass
        # free for delay-free specifications.
        for module in self._delay_bearing_modules():
            module.refresh_delay_timers()
        return self.scheduler.plan_round(self.specification, self.dispatch)

    def _next_deadline(self) -> Optional[float]:
        """Earliest future delay deadline, from the planner's index or a scan."""
        if self.planner is not None:
            return self.planner.next_deadline()
        return next_delay_deadline(self.specification.modules(), self.clock.now)

    def step_round(self) -> bool:
        """Execute one computation round; returns False when nothing fired.

        An empty plan is quiescence only when no delay timer is running:
        otherwise simulated time is the missing enabler, so the clock jumps
        to the earliest pending deadline and planning retries (each jump
        strictly advances the clock and consumes at least one armed timer,
        so the retry loop terminates).
        """
        with self._h_plan.time():
            plan = self._plan()
            resume_at = self.clock.now
            while plan.empty:
                deadline = self._next_deadline()
                if deadline is None or deadline <= self.clock.now:
                    # Quiescent for real.  Jumps taken on the way here chased
                    # *stale* deadline-index entries (timers disarmed before
                    # expiry) and must not outlive the round: rewind so the
                    # final clock reading stays identical to the strategies
                    # that scan live timers and never jump at quiescence.
                    self.clock.now = resume_at
                    self.deadlocked = self.specification.pending_interactions() > 0
                    return False
                self._m_deadline_jumps.inc()
                self.obs.events.emit(
                    "deadline_jump", from_time=self.clock.now, to_time=deadline
                )
                self.clock.now = deadline
                plan = self._plan()

        self._round_index += 1
        self.trace.start_round(self._round_index)
        self.obs.events.emit("round_start", round_index=self._round_index)

        unit_work: Dict[int, float] = defaultdict(float)
        units_by_id: Dict[int, ExecutionUnit] = {}
        firing_work: Dict[int, float] = defaultdict(float)

        epoch_before = (
            self.planner.tracker.structure_epoch if self.planner is not None else 0
        )
        self._topology_changed = False
        fired_before = self.metrics.transitions_fired
        with self._h_fire.time():
            serial_overhead = self._charge_selection(plan, unit_work, units_by_id)
            self._charge_firings(plan, unit_work, units_by_id, firing_work)
        structure_changed = (
            self.planner.tracker.structure_epoch != epoch_before
            if self.planner is not None
            else self._topology_changed
        )
        if structure_changed and self._dynamic_unit:
            self._evict_released_units()
        makespan = self._account_round(serial_overhead, unit_work, units_by_id)

        self.metrics.rounds += 1
        self.metrics.elapsed_time += makespan
        self.metrics.round_makespans.append(makespan)
        self._m_rounds.inc()
        self._m_firings.inc(self.metrics.transitions_fired - fired_before)
        self.obs.events.emit(
            "round_end",
            round_index=self._round_index,
            fired=self.metrics.transitions_fired - fired_before,
            makespan=makespan,
        )
        self.trace.finish_round(makespan, serial_overhead)
        # The delay clock advances by the dispatch-independent component of
        # the makespan: the busiest unit's firing work (events were stamped
        # with the round's *start* time above, before this advance).
        self.clock.advance(firing_advance(firing_work))
        return True

    # -- selection overhead -----------------------------------------------------------

    def _charge_selection(
        self,
        plan: RoundPlan,
        unit_work: Dict[int, float],
        units_by_id: Dict[int, ExecutionUnit],
    ) -> float:
        """Charge scheduler bookkeeping + dispatch scanning; return serial part."""
        per_module = self.scheduler.per_module_cost
        scan_total = sum(plan.examined_costs.values())
        if self.scheduler.centralised:
            serial = per_module * plan.examined_modules + scan_total
            self.metrics.scheduler_time += per_module * plan.examined_modules
            self.metrics.dispatch_time += scan_total
            return serial

        for path, scan_cost in plan.examined_costs.items():
            unit = self._unit_of_path(path)
            if unit is None:
                # Module examined before any firing established its unit; it
                # will be resolved when it fires.  Charge it to no unit.
                continue
            units_by_id.setdefault(unit.uid, unit)
            unit_work[unit.uid] += per_module + scan_cost
            self.metrics.scheduler_time += per_module
            self.metrics.dispatch_time += scan_cost
        return 0.0

    # -- firing ------------------------------------------------------------------------

    def _charge_firings(
        self,
        plan: RoundPlan,
        unit_work: Dict[int, float],
        units_by_id: Dict[int, ExecutionUnit],
        firing_work: Dict[int, float],
    ) -> None:
        for firing in plan.firings:
            module = firing.module
            if module.released:
                # Released by an earlier firing of this same round: the plan
                # was built before the release, but a released module must
                # never fire (Estelle semantics) — skip it without tracing.
                continue
            unit = self.unit_of(module)
            units_by_id.setdefault(unit.uid, unit)

            sent_before = {
                name: ip.sent_count for name, ip in module.ips.items()
            }

            if firing.is_external:
                self.metrics.external_steps += 1
            fired = fire_planned(
                module,
                None if firing.is_external else firing.result.transition,
                self.cost_model.transition_cost_scale,
            )
            cost = fired[-1]

            if self.busy_work is not None:
                self.busy_work(cost)

            module.note_fired()
            self.metrics.transitions_fired += 1
            self.metrics.transition_time += cost
            unit_work[unit.uid] += cost
            firing_work[unit.uid] += cost

            unit_work[unit.uid] += self._charge_messages(module, unit, sent_before)

            self.trace.record_firing(
                FiringEvent(
                    self._round_index,
                    module.path,
                    *fired,
                    unit.uid,
                    unit.machine,
                    self.clock.now,
                )
            )

    def _charge_messages(
        self,
        module: Module,
        unit: ExecutionUnit,
        sent_before: Dict[str, int],
    ) -> float:
        """Cost of the interactions the firing just emitted."""
        cost = 0.0
        for name, point in module.ips.items():
            delta = point.sent_count - sent_before.get(name, 0)
            if delta <= 0 or point.peer is None:
                continue
            peer_owner = point.peer.owner
            peer_unit = (
                self.unit_of(peer_owner) if isinstance(peer_owner, Module) else None
            )
            if peer_unit is None or peer_unit.uid == unit.uid:
                per_message = self.cost_model.intra_unit_message_cost
                self.metrics.messages_intra_unit += delta
            elif peer_unit.machine != unit.machine:
                per_message = self.cost_model.remote_message_cost
                self.metrics.messages_cross_machine += delta
            else:
                per_message = self.cost_model.sync_cost
                self.metrics.messages_cross_unit += delta
            cost += per_message * delta
            self.metrics.sync_time += per_message * delta
        return cost

    # -- per-round time accounting --------------------------------------------------------

    def _account_round(
        self,
        serial_overhead: float,
        unit_work: Dict[int, float],
        units_by_id: Dict[int, ExecutionUnit],
    ) -> float:
        processor_work: Dict[Tuple[str, int], float] = defaultdict(float)
        processor_units: Dict[Tuple[str, int], int] = defaultdict(int)

        for uid, work in unit_work.items():
            if work <= 0:
                continue
            unit = units_by_id[uid]
            key = (unit.machine, unit.processor_index)
            processor_work[key] += work
            processor_units[key] += 1

        context_switch_total = 0.0
        for key, active_units in processor_units.items():
            if active_units > 1:
                penalty = self.cost_model.context_switch_cost * (active_units - 1)
                processor_work[key] += penalty
                context_switch_total += penalty
                machine = self.cluster.get(key[0])
                machine.processors[key[1]].context_switches += active_units - 1
        self.metrics.context_switch_time += context_switch_total

        for (machine_name, proc_index), work in processor_work.items():
            machine = self.cluster.get(machine_name)
            machine.processors[proc_index].busy_time += work
            label = f"{machine_name}/cpu{proc_index}"
            self.metrics.per_processor_busy[label] = (
                self.metrics.per_processor_busy.get(label, 0.0) + work
            )

        parallel_part = max(processor_work.values()) if processor_work else 0.0
        return serial_overhead + parallel_part


def run_specification(
    specification: Specification,
    cluster: Cluster,
    mapping: Optional[MappingStrategy] = None,
    scheduler: Optional[Scheduler] = None,
    dispatch: Optional[DispatchStrategy] = None,
    cost_model: Optional[CostModel] = None,
    max_rounds: int = 10_000,
    trace: bool = False,
    obs: Optional[Observability] = None,
) -> Tuple[ExecutionMetrics, SpecificationExecutor]:
    """Convenience wrapper: build an executor, run to quiescence, return both."""
    executor = SpecificationExecutor(
        specification,
        cluster,
        mapping=mapping,
        scheduler=scheduler,
        dispatch=dispatch,
        cost_model=cost_model,
        trace=trace,
        obs=obs,
    )
    metrics = executor.run(max_rounds=max_rounds)
    return metrics, executor


# ---------------------------------------------------------------------------
# the backend abstraction
# ---------------------------------------------------------------------------


#: Bound on :func:`estelle_template`'s cache: the process keeps the compiled
#: templates of this many distinct (filename, text) pairs, oldest out first.
_TEMPLATE_CACHE_LIMIT = 64
_TEMPLATE_CACHE: "OrderedDict[str, SpecificationTemplate]" = OrderedDict()
_TEMPLATE_CACHE_LOCK = threading.Lock()


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


def estelle_template(text: str, filename: str) -> SpecificationTemplate:
    """The compiled template of one Estelle text, lowered once per process.

    Keyed by filename as well as text, because diagnostics name the file.
    The lock spans the compile, so two threads that miss together compile
    once; a text that fails to compile is not cached and raises again.
    """
    key = _digest(filename, text)
    with _TEMPLATE_CACHE_LOCK:
        template = _TEMPLATE_CACHE.get(key)
        if template is None:
            template = compile_template(text, filename)
            _TEMPLATE_CACHE[key] = template
            if len(_TEMPLATE_CACHE) > _TEMPLATE_CACHE_LIMIT:
                _TEMPLATE_CACHE.popitem(last=False)
    return template


@dataclass(frozen=True)
class SpecSource:
    """A picklable recipe for building a fresh :class:`Specification`.

    Backends (notably the multiprocess one) cannot ship live specification
    objects across process boundaries: frontend-lowered module classes are
    created dynamically and run functions compiled from their ASTs.  What *can*
    cross is the recipe — an ``.estelle`` file path, inline Estelle text, or
    a dotted reference to an importable factory — and every process that
    needs the specification rebuilds it deterministically from the recipe.

    Within a process an Estelle text is lowered once
    (:func:`estelle_template`); every build is a fresh instance of the same
    lowered classes, so per-class artefacts are compiled once too.

    ``kwargs`` is stored as a sorted tuple of pairs so sources hash and
    compare by value.
    """

    kind: str  # "estelle-file" | "estelle-text" | "factory"
    payload: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def from_estelle_file(cls, path: Union[str, Path]) -> "SpecSource":
        return cls(kind="estelle-file", payload=str(path))

    @classmethod
    def from_estelle_text(cls, text: str, filename: str = "<estelle>") -> "SpecSource":
        return cls(kind="estelle-text", payload=text, kwargs=(("filename", filename),))

    @classmethod
    def from_factory(cls, reference: str, **kwargs: Any) -> "SpecSource":
        """``reference`` is ``"package.module:callable"``; the callable must
        return a :class:`Specification` and its kwargs must be picklable."""
        if ":" not in reference:
            raise ValueError(
                f"factory reference {reference!r} must look like 'package.module:callable'"
            )
        return cls(kind="factory", payload=reference, kwargs=tuple(sorted(kwargs.items())))

    def load(self) -> Tuple[str, Optional[Tuple[str, str]]]:
        """This source's content key and, for an Estelle source, the
        ``(text, filename)`` the key was computed from (``None`` for a
        factory).  A file is read once per call, so an edited file
        recompiles; an Estelle source is keyed by its text alone, so a path
        and the equivalent inline text share one key."""
        if self.kind == "estelle-file":
            estelle = (Path(self.payload).read_text(), self.payload)
        elif self.kind == "estelle-text":
            estelle = (self.payload, dict(self.kwargs).get("filename", "<estelle>"))
        else:
            return _digest(self.kind, self.payload, repr(self.kwargs)), None
        return _digest("estelle", estelle[0]), estelle

    def build(self) -> Specification:
        """A fresh, validated specification from the recipe: an instance of
        the text's once-lowered template, or a factory's (rebuilt) result."""
        _, estelle = self.load()
        if estelle is not None:
            return estelle_template(*estelle).instantiate()
        if self.kind == "factory":
            module_name, _, attribute = self.payload.partition(":")
            factory = getattr(importlib.import_module(module_name), attribute)
            specification = factory(**dict(self.kwargs))
            if not isinstance(specification, Specification):
                raise TypeError(
                    f"factory {self.payload!r} returned "
                    f"{type(specification).__name__}, not a Specification"
                )
            return specification
        raise ValueError(f"unknown SpecSource kind {self.kind!r}")


@dataclass
class BackendResult:
    """What an execution backend reports back.

    ``wall_seconds`` is *measured* wall-clock time of the round loop (worker
    start-up excluded for the multiprocess backend), as opposed to the
    simulated ``metrics.elapsed_time`` the in-process executor models.
    """

    backend: str
    trace: ExecutionTrace
    rounds: int
    transitions_fired: int
    wall_seconds: float
    deadlocked: bool
    workers: int = 1
    metrics: Optional[ExecutionMetrics] = None
    #: final reading of the simulated delay clock (identical across backends
    #: on the same specification — it is derived from declared costs, not
    #: wall time; see :mod:`repro.runtime.clock`).
    simulated_time: float = 0.0
    #: why the round loop stopped: ``"quiescent"`` or ``"budget"`` (see
    #: :data:`repro.sim.metrics.STOP_REASONS`; backends take no deadline).
    stop_reason: Optional[str] = None
    #: wire the batch mesh ran over (``"mp-queue"``, ``"tcp"``); ``None``
    #: for backends without an inter-unit transport (in-process).
    transport: Optional[str] = None


def busy_work_for(us_per_cost: float) -> Optional[Callable[[float], None]]:
    """A CPU-burning stand-in for per-firing processing time.

    Returns a callable that spins for ``cost * us_per_cost`` microseconds, or
    ``None`` when the knob is zero.  Both backends drive it with the same
    (scaled) firing costs, so measured wall-clock ratios reflect how the
    backends overlap the *same* emulated work.
    """
    if us_per_cost <= 0:
        return None

    def work(cost: float) -> None:
        deadline = time.perf_counter() + (cost * us_per_cost) / 1e6
        while time.perf_counter() < deadline:
            pass

    return work


#: Name -> backend class; extended by :func:`register_backend` (the
#: multiprocess backend in :mod:`repro.runtime.parallel` registers itself).
_BACKEND_REGISTRY: Dict[str, Type["ExecutionBackend"]] = {}


def register_backend(cls: Type["ExecutionBackend"]) -> Type["ExecutionBackend"]:
    """Class decorator: make a backend available to :func:`backend_by_name`."""
    _BACKEND_REGISTRY[cls.name] = cls
    return cls


def backend_by_name(name: str, **kwargs: Any) -> "ExecutionBackend":
    """Factory used by benchmarks, tests and the parallel smoke CLI."""
    try:
        backend_class = _BACKEND_REGISTRY[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown execution backend {name!r}; choose from {sorted(_BACKEND_REGISTRY)}"
        ) from exc
    return backend_class(**kwargs)


class ExecutionBackend:
    """Interface: run a specification (from a :class:`SpecSource`) to
    quiescence and report the firing trace plus measured timings.

    :meth:`execute` is the signature every backend honours: no argument is
    accepted and discarded.  ``dispatch`` is passed by *name* and checked
    against the strategy registry by every backend.  The in-process backend
    builds the named strategy with its default costs — that is where
    hard-coded, table-driven, generated and planner selection are compared
    (the paper's E4/E5).  The multiprocess backend has no such axis: its
    workers always evaluate dirty modules through the generated selectors
    and its round plans are always the slot fold, so there the name is held
    to the registry and selects nothing — it stays because the ruler
    (``benchmarks/ruler``) passes it to both backends.  A backend may add
    keyword arguments of its own (the mesh adds ``fault_plan`` and
    ``supervise``).
    """

    name = "abstract"

    def execute(
        self,
        source: SpecSource,
        cluster: Cluster,
        *,
        mapping: Optional[MappingStrategy] = None,
        dispatch: str = "table-driven",
        max_rounds: int = 10_000,
        busy_work_us_per_cost: float = 0.0,
        obs: Optional[Observability] = None,
    ) -> BackendResult:
        raise NotImplementedError


@register_backend
class InProcessBackend(ExecutionBackend):
    """The conventional backend: one process, the simulated-cluster executor.

    Parallelism is *modelled* (per-unit cost accounting and per-round
    makespans) rather than exercised; the returned ``metrics`` carry the
    model's predictions while ``wall_seconds`` measures the actual serial
    execution."""

    name = "in-process"

    def execute(
        self,
        source: SpecSource,
        cluster: Cluster,
        *,
        mapping: Optional[MappingStrategy] = None,
        dispatch: str = "table-driven",
        max_rounds: int = 10_000,
        busy_work_us_per_cost: float = 0.0,
        obs: Optional[Observability] = None,
    ) -> BackendResult:
        from .dispatch import dispatch_by_name

        specification = source.build()
        executor = SpecificationExecutor(
            specification,
            cluster,
            mapping=mapping,
            dispatch=dispatch_by_name(dispatch),
            trace=True,
            busy_work=busy_work_for(busy_work_us_per_cost),
            obs=obs,
        )
        started = time.perf_counter()
        metrics = executor.run(max_rounds=max_rounds)
        wall = time.perf_counter() - started
        return BackendResult(
            backend=self.name,
            trace=executor.trace,
            rounds=metrics.rounds,
            transitions_fired=metrics.transitions_fired,
            wall_seconds=wall,
            deadlocked=executor.deadlocked,
            workers=1,
            metrics=metrics,
            simulated_time=executor.clock.now,
            stop_reason=metrics.stop_reason,
        )
