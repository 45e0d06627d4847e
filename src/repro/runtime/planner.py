"""The incremental fused round planner: the hot path of the round loop.

``Scheduler.plan_round`` re-walks the whole module tree and re-evaluates
transition selection for *every* module, every round — even for modules whose
state and queues have not changed since the previous round.  The paper's
decentralised scheduler wins by overlapping that per-module work across
processors; this module removes most of it outright:

* **Dirty tracking** (:mod:`repro.estelle.dirty`) — the specification's
  mutation points report which modules changed; only those (a tiny set on
  sparse workloads) are re-evaluated, and the previous round's per-module
  :class:`~repro.runtime.dispatch.DispatchResult` is reused for the rest.
  Estelle guarantees this is sound: a transition's enabling depends only on
  the module's own state, variables and queue heads, all of which are
  covered by the tracked mutation points.
* **Fusion** (:func:`compile_plan_program`) — the scheduler walk and the
  per-module dispatch are compiled into one generated program per tree
  *shape*: the module tree is flattened into arrays, the parent/child
  precedence walk (parent precedence, process parallelism, activity
  exclusivity) is unrolled into straight-line code, and transition selection
  calls the per-(state, interaction) specialized selectors that
  :mod:`repro.runtime.codegen` emits — no interpreted ``_select_subtree``
  recursion, no strategy dispatch, no per-class cache lookups.
* **Shape-keyed programs** — the generated text is a function of the tree's
  shape (per module: class ordinal, ``EXTERNAL``, children-parallel, child
  count) and of nothing else, and the generated functions are handed the
  instance they run against instead of closing over it.  Module names and
  dynamic-child serials never reach the text, so a structure epoch
  (``init``/``release``) costs a cache lookup, not a codegen: a manager that
  spawns ``s1#1``, ``s1#2``, … one call after another keeps re-using the
  few programs its tree shapes map to.  A rebuild also keeps what it knows:
  the selections of surviving modules are carried over by identity and only
  newcomers plus the tracker's dirty set are evaluated.

The planner produces :class:`~repro.runtime.scheduler.RoundPlan` objects with
the *same firing list* (same modules, transitions and order) as a from-scratch
``plan_round`` rescan — that is the equivalence contract, property-tested by
``tests/test_scheduler_property.py``.  The plan's *examined* accounting
differs by design: it reports only the modules actually re-evaluated this
round, which is the planner's honest (and much smaller) selection cost.

In-process the planner is one dispatch among four, chosen by the name
``"planner"``: :class:`~repro.runtime.executor.SpecificationExecutor` then
swaps its scheduler walk for :meth:`IncrementalRoundPlanner.plan_round`.
The multiprocess backend and :mod:`repro.serve` sessions have no such
choice — it is how they plan: every mesh worker re-evaluates only the dirty
part of its shard through a :class:`PlannerDispatch` (reporting per-round
summary *deltas*) and whoever folds them, the coordinator or a relaxed
worker, runs the same fused walk (see :mod:`repro.runtime.parallel.fold`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Type

from ..estelle.dirty import DirtyTracker
from ..estelle.module import Module
from ..estelle.specification import Specification
from ..obs import NULL_OBS, Observability
from .clock import SimulatedClock
from .codegen import GeneratedDispatchStrategy, compile_module_class
from .dispatch import DispatchResult, DispatchStrategy, register_strategy
from .scheduler import PlannedFiring, RoundPlan

PLANNER_DISPATCH_NAME = "planner"


@register_strategy
class PlannerDispatch(GeneratedDispatchStrategy):
    """The ``"planner"`` dispatch name: generated selectors + fused planning.

    As a plain :class:`~repro.runtime.dispatch.DispatchStrategy` it behaves
    exactly like ``"generated"`` (same selectors, same costs) — that is what
    every multiprocess worker uses to re-evaluate its dirty shard.  In the
    in-process executor its *type* is the switch: round planning goes
    through :class:`IncrementalRoundPlanner` instead of
    ``Scheduler.plan_round``.
    """

    name = PLANNER_DISPATCH_NAME


@dataclass
class PlannerStats:
    """Evaluation-reuse counters (the planner's before/after story).

    ``rounds`` counts :meth:`IncrementalRoundPlanner.plan_round` invocations,
    which on delay-bearing specifications includes the empty re-plans the
    executor performs while jumping the clock over delay deadlines — so it
    can exceed the executor's computation-round count there.
    """

    rounds: int = 0
    #: per-module selections actually re-evaluated.
    evaluated: int = 0
    #: per-module selections served from the previous round's cache.
    reused: int = 0
    #: structure epochs seen (program re-bound to the changed module tree).
    rebuilds: int = 0

    @property
    def reuse_ratio(self) -> float:
        total = self.evaluated + self.reused
        return self.reused / total if total else 0.0


#: One node of a tree shape: (class ordinal in first-seen order, ``EXTERNAL``,
#: ``attribute.children_parallel``, child count).
_ShapeNode = Tuple[int, bool, bool, int]
#: The cache key: the pre-order node sequence (pre-order plus arities pins the
#: forest) and the constants baked into the evaluators.
_ShapeKey = Tuple[Tuple[_ShapeNode, ...], float, float, bool]


class _PlanShape(NamedTuple):
    """What one tree shape compiles to, shared by every instance of it."""

    #: the executed text, line by line — no instance data in it.
    lines: Tuple[str, ...]
    #: line number -> flat module index, where ``source`` names the path.
    notes: Dict[int, int]
    #: None for walk-only shapes (``with_evaluators=False``).
    evaluate: Optional[Callable[[Sequence[int], "FusedPlanProgram"], None]]
    walk: Callable[["FusedPlanProgram", List[PlannedFiring]], None]


@dataclass
class FusedPlanProgram:
    """The whole-specification planner for one instance of one tree shape.

    ``shape`` holds the generated functions — made once per tree shape and
    shared by every instance with that shape — so they close over nothing:
    each call is handed the program it runs against (the ``R`` of the
    generated text) and reads the instance through it.  ``modules`` is the
    flattened pre-order module array (system modules in declaration order,
    each followed by its subtree), ``selectors`` the per-class specialized
    selectors by class ordinal and ``results`` the per-module result slots.
    ``shape.evaluate(indices, program)`` refreshes the slots of the given
    flat indices (``None`` for walk-only programs,
    ``compile_plan_program(with_evaluators=False)``);
    ``shape.walk(program, out)`` replays the Estelle precedence rules over
    the slots as unrolled straight-line code, appending
    :class:`~repro.runtime.scheduler.PlannedFiring` objects in exactly the
    order ``Scheduler.plan_round`` would.
    """

    specification: Specification
    modules: Tuple[Module, ...]
    index_of: Dict[Module, int]
    #: ``None`` entries are EXTERNAL classes; empty for walk-only programs.
    selectors: Tuple[Optional[Callable[[Module], Tuple[object, int]]], ...]
    results: List[Optional[DispatchResult]]
    shape: _PlanShape

    @property
    def source(self) -> str:
        """The shape's text, annotated with this instance's module paths."""
        notes = self.shape.notes
        lines = [
            "# Generated whole-specification round planner for "
            f"{self.specification.name!r}."
        ]
        for number, line in enumerate(self.shape.lines):
            index = notes.get(number)
            lines.append(
                line if index is None else f"{line}  # {self.modules[index].path}"
            )
        return "\n".join(lines)


def _flatten(specification: Specification) -> Tuple[Module, ...]:
    """Pre-order module array: the scheduler walk's visit order, flattened."""
    modules: List[Module] = []
    for system in specification.system_modules():
        modules.extend(system.walk())
    return tuple(modules)


def _shape_of(
    modules: Sequence[Module],
) -> Tuple[Tuple[_ShapeNode, ...], Tuple[Type[Module], ...]]:
    """The node sequence of a flattened tree and its classes by ordinal.

    Classes are numbered in first-seen order (and keyed by identity: test
    suites reuse class names across specs), so two instances of one tree
    shape get the same nodes whatever their modules are called.
    """
    ordinals: Dict[Type[Module], int] = {}
    nodes = tuple(
        (
            ordinals.setdefault(type(module), len(ordinals)),
            module.EXTERNAL,
            module.attribute.children_parallel,
            len(module.children),
        )
        for module in modules
    )
    return nodes, tuple(ordinals)


def _emit_eval(
    lines: List[str],
    notes: Dict[int, int],
    index: int,
    node: _ShapeNode,
    scan_cost: float,
    overhead: float,
) -> None:
    ordinal, external = node[:2]
    notes[len(lines)] = index
    lines.append(f"def _eval_{index}(R):")
    if external:
        # Hand-coded bodies bypass transition scanning (their readiness is
        # their queue state), exactly like DispatchStrategy._external_result.
        lines.append(
            f"    R.results[{index}] = "
            f"_DR(None, 0, {overhead!r}, R.modules[{index}].external_ready())"
        )
    else:
        lines.append(f"    _t, _x = R.selectors[{ordinal}](R.modules[{index}])")
        lines.append(
            f"    R.results[{index}] = _DR(_t, _x, {overhead!r} + {scan_cost!r} * _x)"
        )
    lines.append("")


def _emit_walk_subtree(
    lines: List[str],
    notes: Dict[int, int],
    nodes: Sequence[_ShapeNode],
    index: int,
    depth: int,
    marker_counter: List[int],
) -> int:
    """Unroll the subtree rooted at ``index``; returns the index after it."""
    pad = "    " * depth
    _, _, children_parallel, child_count = nodes[index]
    notes[len(lines)] = index
    lines.append(f"{pad}r = _r[{index}]")
    lines.append(f"{pad}if r.transition is not None or r.external:")
    lines.append(f"{pad}    _a(_PF(_M[{index}], r))")
    index += 1
    if not child_count:
        return index
    lines.append(f"{pad}else:")
    if children_parallel:
        for _ in range(child_count):
            index = _emit_walk_subtree(
                lines, notes, nodes, index, depth + 1, marker_counter
            )
        return index
    # activity / systemactivity parent: the first child subtree that
    # contributes a firing suppresses its remaining siblings.
    marker = f"_n{marker_counter[0]}"
    marker_counter[0] += 1
    lines.append(f"{pad}    {marker} = len(out)")
    index = _emit_walk_subtree(lines, notes, nodes, index, depth + 1, marker_counter)
    for _ in range(child_count - 1):
        lines.append(f"{pad}    if len(out) == {marker}:")
        index = _emit_walk_subtree(
            lines, notes, nodes, index, depth + 2, marker_counter
        )
    return index


def _generate(key: _ShapeKey) -> _PlanShape:
    """Generate and compile one tree shape's planner.

    The key is all this function sees, so nothing outside it can reach the
    text: equal keys give byte-identical programs by construction.
    """
    nodes, scan_cost, overhead, with_evaluators = key
    lines: List[str] = [
        "# R is the FusedPlanProgram the call runs against: R.modules is its",
        "# flattened pre-order module array, R.selectors its per-class",
        "# selectors, R.results the per-module result slots.  _eval_<i>",
        "# refreshes slot i through the inlined per-class selector; _walk",
        "# unrolls the Estelle precedence rules over the slots.",
        "",
    ]
    notes: Dict[int, int] = {}
    if with_evaluators:
        for index, node in enumerate(nodes):
            _emit_eval(lines, notes, index, node, scan_cost, overhead)
        lines.append(
            "_EVAL = ("
            + ", ".join(f"_eval_{i}" for i in range(len(nodes)))
            + ("," if nodes else "")
            + ")"
        )
        lines.append("")
        lines.append("def _evaluate(indices, R):")
        lines.append("    for _i in indices:")
        lines.append("        _EVAL[_i](R)")
        lines.append("")
    lines.append("def _walk(R, out):")
    if nodes:
        lines.append("    _a = out.append")
        lines.append("    _M = R.modules")
        lines.append("    _r = R.results")
        marker_counter = [0]
        index = 0
        while index < len(nodes):
            index = _emit_walk_subtree(lines, notes, nodes, index, 1, marker_counter)
    else:
        lines.append("    pass")
    lines.append("")

    namespace: Dict[str, object] = {"_DR": DispatchResult, "_PF": PlannedFiring}
    exec(  # noqa: S102 - same trusted-codegen pattern as repro.runtime.codegen
        compile("\n".join(lines), "<generated planner>", "exec"), namespace
    )
    return _PlanShape(
        lines=tuple(lines),
        notes=notes,
        evaluate=namespace.get("_evaluate"),  # type: ignore[arg-type]
        walk=namespace["_walk"],  # type: ignore[arg-type]
    )


#: Tree shape -> generated planner, shared process-wide.  The program is a
#: function of the shape key and nothing else — module names, paths and
#: dynamic-child serials never reach the generated text — so every instance
#: of a specification, and every ``init``/``release`` epoch that returns a
#: tree to a shape it has had before (``s1#2`` re-dialling where ``s1#1``
#: hung up), is a lookup that re-uses the same function objects: no source
#: generation, no ``compile()``, no ``exec``.  That is what makes session
#: spawn in :mod:`repro.serve` and call churn inside one session cheap.  The
#: cache is a bounded FIFO so a process that keeps meeting new shapes cannot
#: grow it without bound.
_PLAN_CODE_CACHE: "OrderedDict[_ShapeKey, _PlanShape]" = OrderedDict()
_PLAN_CODE_CACHE_LIMIT = 256
_PLAN_CODE_CACHE_HITS = 0
_PLAN_CODE_CACHE_MISSES = 0


def _shape_for(key: _ShapeKey) -> _PlanShape:
    global _PLAN_CODE_CACHE_HITS, _PLAN_CODE_CACHE_MISSES
    shape = _PLAN_CODE_CACHE.get(key)
    if shape is None:
        _PLAN_CODE_CACHE_MISSES += 1
        shape = _generate(key)
        _PLAN_CODE_CACHE[key] = shape
        while len(_PLAN_CODE_CACHE) > _PLAN_CODE_CACHE_LIMIT:
            _PLAN_CODE_CACHE.popitem(last=False)
    else:
        _PLAN_CODE_CACHE_HITS += 1
    return shape


def plan_code_cache_info() -> Dict[str, int]:
    """Size and hit/miss history of the shared shape cache.

    One lookup per program build (every planner construction and every
    structure epoch); a miss is a shape this process had not generated yet.
    ``hits``/``misses`` are process-lifetime totals (the cache itself is
    process-wide); ``repro.serve`` surfaces them via ``/stats`` and the
    ``repro_planner_code_cache_*`` gauges on ``/metrics``.
    """
    return {
        "entries": len(_PLAN_CODE_CACHE),
        "limit": _PLAN_CODE_CACHE_LIMIT,
        "hits": _PLAN_CODE_CACHE_HITS,
        "misses": _PLAN_CODE_CACHE_MISSES,
    }


def compile_plan_program(
    specification: Specification,
    scan_cost: float = 0.08,
    overhead: float = 0.15,
    dispatch: Optional[GeneratedDispatchStrategy] = None,
    with_evaluators: bool = True,
    previous: Optional[FusedPlanProgram] = None,
) -> FusedPlanProgram:
    """Bind the current tree to the fused planner of its shape.

    ``scan_cost`` / ``overhead`` are baked into the generated evaluation code
    as constants (the modelled selection cost mirrors the generated dispatch
    strategy's).  Passing an existing ``dispatch`` strategy reuses its
    per-class selector cache — the multiprocess worker and the in-process
    executor then share one set of compiled selectors per process.

    ``with_evaluators=False`` binds the fused walk only (``shape.evaluate``
    is ``None``) and skips per-class selector compilation entirely — for
    consumers that refresh the result slots themselves: the interpreted
    (non-fused) planner and the multiprocess coordinator, whose results come
    from the workers.

    ``previous`` is the program this one replaces after a structure epoch:
    a module that survived it keeps its result slot (its selection is still
    good unless a mutation point marked it — the firing that ran the
    ``init``/``release`` marked its own module); only newcomers' slots start
    ``None``.
    """
    if dispatch is not None:
        scan_cost = dispatch.scan_cost
        overhead = dispatch.overhead
    modules = _flatten(specification)
    nodes, classes = _shape_of(modules)
    shape = _shape_for((nodes, scan_cost, overhead, with_evaluators))
    selectors: Tuple[Optional[Callable], ...] = ()
    if with_evaluators:
        compiled_for = (
            dispatch.compiled_for if dispatch is not None else compile_module_class
        )
        selectors = tuple(
            None if cls.EXTERNAL else compiled_for(cls).select for cls in classes
        )
    survivors = (
        dict(zip(previous.modules, previous.results)) if previous is not None else {}
    )
    return FusedPlanProgram(
        specification=specification,
        modules=modules,
        index_of={module: i for i, module in enumerate(modules)},
        selectors=selectors,
        results=[survivors.get(module) for module in modules],
        shape=shape,
    )


#: Rounds between registry syncs of the planner's tallies.  The batch keeps
#: counter locks off the planning hot path; an empty plan or the executor's
#: end-of-run flush closes the gap, so at-rest scrapes are always exact.
_METRICS_FLUSH_INTERVAL = 64


def _register_planner_metrics(obs: Observability) -> None:
    """Register the planner's derived/live gauges on ``obs``'s registry.

    The counters themselves are get-or-create (N planners sharing one
    registry aggregate into one series); the gauges here are scrape-time
    callbacks over that shared state — ``reuse_ratio`` derives from the
    registry's own evaluated/reused totals so it stays correct when many
    sessions share one registry, and the code-cache gauges read the
    process-wide compile cache.
    """
    registry = obs.registry
    if not registry.enabled:
        return
    evaluated = registry.counter(
        "repro_planner_evaluated_total",
        "Per-module selections re-evaluated (dirty set).",
    )
    reused = registry.counter(
        "repro_planner_reused_total",
        "Per-module selections served from the previous round's cache.",
    )

    def _reuse_ratio() -> float:
        evaluated_total = evaluated.value
        reused_total = reused.value
        total = evaluated_total + reused_total
        return reused_total / total if total else 0.0

    registry.gauge(
        "repro_planner_reuse_ratio",
        "Fraction of per-module selections served from cache (live).",
        callback=_reuse_ratio,
    )
    registry.gauge(
        "repro_planner_code_cache_entries",
        "Entries in the process-wide generated-planner compile cache.",
        callback=lambda: plan_code_cache_info()["entries"],
    )
    registry.gauge(
        "repro_planner_code_cache_hits",
        "Process-lifetime hits in the generated-planner compile cache.",
        callback=lambda: plan_code_cache_info()["hits"],
    )
    registry.gauge(
        "repro_planner_code_cache_misses",
        "Process-lifetime misses in the generated-planner compile cache.",
        callback=lambda: plan_code_cache_info()["misses"],
    )


class IncrementalRoundPlanner:
    """Dirty-set driven round planning with cached per-module selections.

    Drop-in producer of :class:`~repro.runtime.scheduler.RoundPlan` objects::

        planner = IncrementalRoundPlanner(specification)
        plan = planner.plan_round()        # instead of scheduler.plan_round()

    ``fused=True`` (default) evaluates dirty modules through the generated
    whole-spec program (:func:`compile_plan_program`); ``fused=False`` keeps
    the walk fused but re-evaluates through the given interpreted ``dispatch``
    strategy — useful to isolate the two optimisations and for property
    tests.  Module tree changes (``init``/``release``) are detected through
    the tracker's structure epoch: the program is re-bound to the new tree
    (a shape-cache lookup), surviving modules keep their selections and only
    the newcomers join the dirty set.

    Out-of-band mutations (poking ``module.variables`` between rounds without
    firing a transition) are outside the dirty-tracking contract — call
    :meth:`invalidate` (everything) or :meth:`mark_dirty` (one module) first.
    """

    def __init__(
        self,
        specification: Specification,
        dispatch: Optional[DispatchStrategy] = None,
        fused: bool = True,
        clock: Optional[SimulatedClock] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.specification = specification
        self.dispatch = dispatch if dispatch is not None else PlannerDispatch()
        self.fused = fused
        self.tracker = DirtyTracker.attach(specification)
        #: the simulated clock driving delay semantics.  When set (the
        #: executor shares its own), :meth:`plan_round` first wakes every
        #: module whose delay deadline has passed — time passing can enable
        #: a transition with no data mutation, which the dirty hooks alone
        #: cannot see.  When None, delay clauses are inert (legacy paths).
        self.clock = clock
        self.stats = PlannerStats()
        self._program: Optional[FusedPlanProgram] = None
        self._built_epoch = -1
        self._all_dirty = True
        self.obs = obs if obs is not None else NULL_OBS
        _register_planner_metrics(self.obs)
        registry = self.obs.registry
        self._m_rounds = registry.counter(
            "repro_planner_rounds_total", "plan_round invocations."
        )
        self._m_evaluated = registry.counter(
            "repro_planner_evaluated_total",
            "Per-module selections re-evaluated (dirty set).",
        )
        self._m_reused = registry.counter(
            "repro_planner_reused_total",
            "Per-module selections served from the previous round's cache.",
        )
        self._m_rebuilds = registry.counter(
            "repro_planner_rebuilds_total",
            "Structure epochs seen (program re-bound to the changed tree).",
        )
        # The per-round tallies already live in ``self.stats`` (plain ints,
        # no locks); the registry is synced from them in batches so the hot
        # path never pays counter locks (the obs_overhead gate).  High-water
        # marks of what has been flushed so far:
        self._flushed_rounds = 0
        self._flushed_evaluated = 0
        self._flushed_reused = 0

    # -- cache control ---------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every cached selection (next round re-evaluates everything)."""
        self._all_dirty = True

    def mark_dirty(self, module: Module) -> None:
        """Explicitly schedule one module for re-evaluation."""
        self.tracker.mark(module)

    # -- planning --------------------------------------------------------------------

    def _rebuild(self) -> None:
        previous = self._program
        generated_dispatch = (
            self.dispatch if isinstance(self.dispatch, GeneratedDispatchStrategy) else None
        )
        if self.fused and generated_dispatch is not None:
            program = compile_plan_program(
                self.specification, dispatch=generated_dispatch, previous=previous
            )
        else:
            # Interpreted re-evaluation (dispatch.select per dirty module):
            # only the fused walk is bound, no selectors are compiled.
            program = compile_plan_program(
                self.specification, with_evaluators=False, previous=previous
            )
        if previous is not None:
            # Survivors' selections were carried over; queue the newcomers.
            for module, result in zip(program.modules, program.results):
                if result is None:
                    self.tracker.mark(module)
        self._program = program
        self._built_epoch = self.tracker.structure_epoch
        self.stats.rebuilds += 1
        self._m_rebuilds.inc()
        self.obs.events.emit(
            "structure_epoch",
            specification=self.specification.name,
            epoch=self._built_epoch,
            modules=len(program.modules),
        )

    @property
    def program(self) -> FusedPlanProgram:
        """The generated program (built on demand; for inspection and tests)."""
        if self._program is None or self.tracker.structure_epoch != self._built_epoch:
            self._rebuild()
        return self._program  # type: ignore[return-value]

    def next_deadline(self) -> Optional[float]:
        """Earliest future delay deadline in the tracker's index (or None).

        After a :meth:`plan_round` at time ``now`` every remaining indexed
        deadline is strictly later than ``now``; an empty plan with a pending
        deadline means the round loop should jump the clock here and re-plan.
        """
        return self.tracker.next_deadline()

    def plan_round(self) -> RoundPlan:
        """Produce the next round's plan, re-evaluating only dirty modules."""
        program = self.program  # rebuilds on structure changes
        shape = program.shape
        results = program.results
        if self.clock is not None:
            # The time dimension of the dirty contract: wake modules whose
            # delay deadlines have passed, so their cached "nothing enabled"
            # selections are re-evaluated instead of trusted.
            self.tracker.wake_due(self.clock.now)
        if self._all_dirty:
            self.tracker.drain()
            indices: Sequence[int] = range(len(program.modules))
            self._all_dirty = False
        else:
            index_of = program.index_of
            dirty = self.tracker.drain()
            indices = sorted(
                index_of[module] for module in dirty if module in index_of
            )

        if shape.evaluate is not None:
            shape.evaluate(indices, program)
        else:
            select = self.dispatch.select
            for i in indices:
                results[i] = select(program.modules[i])

        plan = RoundPlan()
        examined_costs = plan.examined_costs
        for i in indices:
            examined_costs[program.modules[i].path] = results[i].cost  # type: ignore[union-attr]
        plan.examined_modules = len(indices)
        shape.walk(program, plan.firings)

        self.stats.rounds += 1
        self.stats.evaluated += len(indices)
        self.stats.reused += len(program.modules) - len(indices)
        # Flush on an empty plan (end of run / delay-waiting round) or when
        # the interval fills — one int compare per round, nothing else.
        if (
            not plan.firings
            or self.stats.rounds - self._flushed_rounds >= _METRICS_FLUSH_INTERVAL
        ):
            self.flush_metrics()
        return plan

    def flush_metrics(self) -> None:
        """Sync the registry counters from :attr:`stats`.

        Counters may lag the stats by up to :data:`_METRICS_FLUSH_INTERVAL`
        rounds mid-run; the executor flushes at the end of every ``run()``,
        so scraped values are exact whenever the planner is at rest.
        """
        stats = self.stats
        if stats.rounds > self._flushed_rounds:
            self._m_rounds.inc(stats.rounds - self._flushed_rounds)
            self._flushed_rounds = stats.rounds
        if stats.evaluated > self._flushed_evaluated:
            self._m_evaluated.inc(stats.evaluated - self._flushed_evaluated)
            self._flushed_evaluated = stats.evaluated
        if stats.reused > self._flushed_reused:
            self._m_reused.inc(stats.reused - self._flushed_reused)
            self._flushed_reused = stats.reused
