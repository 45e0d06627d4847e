"""The multiprocess execution backend: real OS processes per execution unit.

Where :class:`repro.runtime.executor.SpecificationExecutor` *models* the
paper's decentralised runtime (charging selection and firing costs to
simulated processors), this backend *is* one: every execution unit of the
mapping runs in its own worker process, transition selection over a unit's
modules happens concurrently across workers, and interactions cross unit
boundaries through batched, round-tagged transport links; one pipe lane
per worker carries the coordinator's commands and the worker's results.

The coordinator keeps the one job that is inherently global and cheap — the
Estelle precedence walk.  Workers report the selection results of the
modules that changed; the coordinator folds them (:mod:`.fold`: result
slots under the planner's generated walk, the one the in-process planner
runs) and sends each unit its share of the plan.  This is exactly the split
the paper describes: the per-module checks — the part measured at up to 80%
of runtime — run in parallel; the combination is a tree fold over booleans.
There is one way to plan on the mesh — dirty deltas, generated selectors,
the slot fold — and no dispatch strategy to choose: hard-coded against
table-driven is the in-process executor's measured comparison.

Equivalence with the in-process backend is *byte-level* on the canonical
firing trace (:mod:`repro.runtime.tracing`): same rounds, same
firings, same order, same state changes, same costs, same unit placement.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from ...estelle.errors import SchedulingError
from ...estelle.specification import Specification
from ...obs import NULL_OBS, Observability
from ...sim.machine import Cluster
from ..clock import SimulatedClock, firing_advance
from ..dispatch import dispatch_class_by_name
from ..executor import (
    BackendResult,
    ExecutionBackend,
    SpecSource,
    register_backend,
)
from ..mapping import MappingStrategy, SystemMapping, ThreadPerModuleMapping
from ..scheduler import RoundPlan
from ..tracing import ExecutionTrace, FiringEvent
from .fold import (
    AssignedFiring,
    ParallelExecutionError,
    SelectionSummary,
    _RoundPlanner,
    _root_of,
    assigned_firings,
)
from .transport import Transport, transport_by_name
from .worker import (
    FiringReport,
    UnitDescriptor,
    WorkerConfig,
    _declares_delay,
    worker_main,
)


#: How worker processes start.  ``"spawn"`` is the one start method that
#: behaves identically across Linux/macOS/Windows and never inherits threads,
#: at the price of each worker re-importing the package and rebuilding the
#: specification from its :class:`SpecSource` (which is the point — workers
#: must be able to reconstruct everything from picklable recipes).
START_METHOD = "spawn"


def _relaxable_units(
    specification: Specification,
    units: Tuple[UnitDescriptor, ...],
    owner_of: Dict[str, int],
) -> frozenset:
    """Units eligible for conservative lookahead (barrier relaxation).

    A unit may run its rounds locally when (a) every system subtree it
    touches is wholly owned by it — Estelle precedence never crosses system
    subtrees, so the unit's restricted precedence walk equals the global
    plan's projection onto its subtrees — and (b) none of its modules
    declares a delay transition, so its selection never depends on the
    coordinator-owned simulated clock (deadline jumps cannot change its
    local plan, and it reports no deadlines of its own).
    """
    shared: set = set()
    for root in specification.system_modules():
        owners = {
            owner_of[module.path]
            for module in root.walk()
            if module.path in owner_of
        }
        if len(owners) > 1:
            shared.update(owners)
    module_by_path = {module.path: module for module in specification.modules()}
    relaxed = set()
    for unit in units:
        if unit.uid in shared:
            continue
        if any(
            _declares_delay(type(module_by_path[path]))
            for path in unit.module_paths
        ):
            continue
        relaxed.add(unit.uid)
    return frozenset(relaxed)


class _Lane(NamedTuple):
    """One worker's control pipes: commands down, results up.

    Two one-way pipes rather than one duplex ``Pipe()``: the duplex kind is
    a socketpair, and its wake-ups cost the strict round loop an eighth
    more wall time (one op of the ruler's ``mesh_strict``: 519–530 ms
    against 460–465) for the two descriptors it saves.
    """

    commands: Any  # the coordinator writes
    results: Any  # the coordinator reads
    worker_commands: Any  # the worker reads
    worker_results: Any  # the worker writes


class _ControlPlane:
    """The mesh's one control mechanism: a pipe lane per worker.

    Commands go down a unit's lane, results ``(kind, round, payload)`` come
    back up it, and :meth:`gather` waits on every lane *and every worker's
    process sentinel* at once, so a death wakes the coordinator as promptly
    as a result does.  The coordinator keeps the worker's ends open too: a
    worker's exit therefore never reads as end-of-file, and the replacement
    of a crashed worker inherits the lane together with whatever commands
    its predecessor left unread.

    Barrier units answer in lockstep, so anything other than the awaited
    ``(kind, round)`` is a protocol violation.  Relaxed units stream
    ``lround``/``window_done`` at their own pace; those are kept per unit,
    in arrival order, until a later gather asks for them — and every gather
    reads every lane, so a streaming unit can never fill its pipe and stall.
    """

    _STREAMED = frozenset({"lround", "window_done"})

    def __init__(self, ctx, timeout_s: float) -> None:
        # Imported here, not at module level: every in-process user of
        # repro.runtime imports this module, and would carry it for nothing.
        from multiprocessing.connection import wait

        self._wait = wait
        self._ctx = ctx
        self._timeout_s = timeout_s
        self.processes: Dict[int, Any] = {}
        self._lanes: Dict[int, _Lane] = {}
        self._streamed: Dict[int, Deque[Tuple[str, int, Any]]] = {}
        self._replaced: set = set()  # respawned units whose "ready" is due

    def spawn(
        self, uid: int, config: WorkerConfig, endpoint, name: str
    ) -> None:
        """Start (or, on a known ``uid``, replace) the unit's worker."""
        if uid in self._lanes:
            self._replaced.add(uid)
        else:
            worker_commands, commands = self._ctx.Pipe(duplex=False)
            results, worker_results = self._ctx.Pipe(duplex=False)
            self._lanes[uid] = _Lane(
                commands, results, worker_commands, worker_results
            )
            self._streamed[uid] = deque()
        lane = self._lanes[uid]
        process = self._ctx.Process(
            target=worker_main,
            args=(config, lane.worker_commands, lane.worker_results, endpoint),
            daemon=True,
            name=name,
        )
        self.processes[uid] = process
        process.start()

    # A pipe write blocks once the pipe is full, so the coordinator must
    # never send while a worker can be blocked sending to it.  Barrier units
    # are in lockstep: they are reading when we write.  A relaxed unit may
    # well be mid-stream, but all it is ever sent — run_rounds, reconnect,
    # stop — is tens of bytes a window, far below a pipe buffer.
    def send(self, uid: int, command: Tuple) -> None:
        self._lanes[uid].commands.send(command)

    def broadcast(self, command: Tuple) -> None:
        for uid in self._lanes:
            self.send(uid, command)

    def gather(
        self,
        kind: str,
        round_index: int,
        uids: Iterable[int],
        recover: Optional[Callable[[int], None]] = None,
    ) -> Dict[int, Any]:
        """Exactly one ``kind`` payload per unit in ``uids`` for ``round_index``.

        An ``error`` result from any worker aborts the run with that
        worker's traceback.  A worker that exits is noticed at once; its
        lane is drained first, so a result written just before the exit
        still counts.  Without ``recover`` the death aborts the run, naming
        the exit code and the units still owed (as a timeout does); with it
        (the supervised select) ``recover(uid)`` respawns the worker and
        re-issues its command, the replacement's ``ready`` is skipped, and
        the ``round_timeout_s`` deadline restarts.
        """
        owed = tuple(uids)
        collected: Dict[int, Any] = {}

        def accept(uid: int, message: Tuple[str, int, Any]) -> None:
            got_kind, got_round, payload = message
            if got_kind == "error":
                raise ParallelExecutionError(
                    f"worker for unit {uid} failed:\n{payload}"
                )
            if got_kind == "ready" and uid in self._replaced:
                self._replaced.discard(uid)  # a respawned replacement booting
            elif got_kind == kind and got_round == round_index and uid in owed:
                if uid in collected:
                    raise ParallelExecutionError(
                        f"unit {uid} reported {kind!r} twice for round {round_index}"
                    )
                collected[uid] = payload
            elif got_kind in self._STREAMED and (
                uid not in owed or uid in collected
            ):
                self._streamed[uid].append(message)
            else:
                raise ParallelExecutionError(
                    f"protocol violation: expected {kind!r} for round "
                    f"{round_index}, unit {uid} sent {got_kind!r} for round "
                    f"{got_round}"
                )

        def still_owed() -> str:
            names = ", ".join(
                f"unit {uid} ({self.processes[uid].name})"
                for uid in owed
                if uid not in collected
            )
            return (
                f"{kind!r} of round {round_index}: still owed by "
                f"{names or 'nobody'} ({len(collected)}/{len(owed)} units reported)"
            )

        for uid in owed:
            if self._streamed[uid]:
                accept(uid, self._streamed[uid].popleft())
        deadline = time.perf_counter() + self._timeout_s
        while len(collected) < len(owed):
            lanes = {lane.results: uid for uid, lane in self._lanes.items()}
            sentinels = {
                process.sentinel: uid for uid, process in self.processes.items()
            }
            ready = self._wait(
                [*lanes, *sentinels], max(deadline - time.perf_counter(), 0.0)
            )
            if not ready:
                raise ParallelExecutionError(
                    f"timed out after {self._timeout_s:g}s waiting for {still_owed()}"
                )
            for results in ready:
                if results in lanes:
                    accept(lanes[results], results.recv())
            for uid in sorted(sentinels[s] for s in ready if s in sentinels):
                results = self._lanes[uid].results
                while results.poll():
                    accept(uid, results.recv())
                if len(collected) == len(owed):
                    # It reported before it died, and nothing else is owed:
                    # the next gather meets the death, at once.
                    return collected
                process = self.processes[uid]
                process.join(timeout=1.0)  # reap, so the exit code is known
                if recover is None:
                    raise ParallelExecutionError(
                        f"worker {process.name} (unit {uid}) died with exit "
                        f"code {process.exitcode} while the coordinator "
                        f"waited for {still_owed()}"
                        + (
                            "; when using the spawn start method the driving "
                            "script must be importable (a real file with an "
                            "'if __name__ == \"__main__\"' guard, not stdin)"
                            if kind == "ready"
                            else ""
                        )
                    )
                recover(uid)
                collected.pop(uid, None)  # the replacement answers afresh
                deadline = time.perf_counter() + self._timeout_s
        return collected

    def shutdown(self) -> None:
        """Stop every worker (escalating to SIGKILL) and close the lanes."""
        self.broadcast(("stop",))
        processes = self.processes.values()
        for process in processes:
            if process.is_alive():
                process.join(timeout=5.0)
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        # Escalate: a worker wedged in uninterruptible I/O can shrug off
        # SIGTERM; SIGKILL cannot be ignored, so teardown can never hang on
        # a stuck worker.
        for process in processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        for lane in self._lanes.values():
            for end in lane:
                end.close()


class _Supervisor:
    """Crash-recovery state for one supervised run.

    Workers ship a round-boundary checkpoint of their owned shard with
    every fired reply; when a *select* gather finds a worker dead,
    :meth:`respawn` starts a replacement process seeded with the last
    checkpoint (``WorkerConfig.restore``) and re-issues the select it
    consumed — the round then completes as if the crash never happened,
    which the chaos suite pins with byte-identical traces.

    A death during the *fire* phase is not recoverable: the crashed worker
    may have flushed some of the round's batches and not others, so the run
    still fails fast with :class:`ParallelExecutionError`.
    """

    #: give up after this many respawns of the same unit in one run — a
    #: worker that keeps dying without a scheduled crash is a real bug.
    MAX_RESPAWNS_PER_UNIT = 8

    def __init__(
        self,
        transport: Transport,
        control: _ControlPlane,
        configs: Dict[int, WorkerConfig],
        obs: Observability,
    ) -> None:
        self.transport = transport
        self.control = control
        self.configs = configs
        self.obs = obs
        self.checkpoints: Dict[int, Any] = {}
        self.recoveries = 0
        self._respawns: Dict[int, int] = {}
        registry = obs.registry
        self._m_crashes = registry.counter(
            "repro_resil_worker_crashes_total",
            "Worker processes found dead by the supervising coordinator.",
        )
        self._m_recoveries = registry.counter(
            "repro_resil_recoveries_total",
            "Crashed workers respawned from a shard checkpoint.",
        )
        self._m_checkpoints = registry.counter(
            "repro_resil_checkpoints_total",
            "Round-boundary shard checkpoints received from workers.",
        )

    def store_checkpoint(self, uid: int, checkpoint) -> None:
        self.checkpoints[uid] = checkpoint
        self._m_checkpoints.inc()

    def respawn(self, uid: int, round_index: int, now: float) -> None:
        count = self._respawns.get(uid, 0) + 1
        if count > self.MAX_RESPAWNS_PER_UNIT:
            raise ParallelExecutionError(
                f"worker for unit {uid} died {count} times in one run; "
                "giving up on recovery"
            )
        self._respawns[uid] = count
        exitcode = self.control.processes[uid].exitcode
        self._m_crashes.inc()
        self.obs.events.emit(
            "worker_crash", unit=uid, round_index=round_index, exitcode=exitcode
        )
        checkpoint = self.checkpoints.get(uid)
        config = dataclasses.replace(
            self.configs[uid],
            # The scheduled crash (if any) already happened; keep only
            # strictly later ones so a multi-crash schedule still plays out.
            crash_rounds=tuple(
                r for r in self.configs[uid].crash_rounds if r > round_index
            ),
            restore=checkpoint,
        )
        self.configs[uid] = config
        # A fresh endpoint from the transport: mp-queue re-wraps the shared
        # (surviving) queues; tcp re-dups the unit's still-bound listener so
        # peers' redials land on the replacement.
        self.control.spawn(
            uid,
            config,
            self.transport.endpoint_for(uid),
            f"estelle-unit-{uid}-respawn{count}",
        )
        # Tell every unit holding a link into the crashed one to redial it
        # and re-send its retransmit slot (the replacement needs the round's
        # inbound batches, which on connection-oriented transports died with
        # the process; mp-queue endpoints treat this as a no-op).  The
        # command lands before the sender's next "fire", so the redial
        # always precedes its next flush.
        for sender in self.transport.senders_to(uid):
            if sender != uid:
                self.control.send(sender, ("reconnect", uid))
        # Re-issue the select the dead worker consumed; the replacement
        # answers it right after rebuilding + restoring its shard (its
        # "ready" is skipped by the gather).
        self.control.send(uid, ("select", round_index, now))
        self.recoveries += 1
        self._m_recoveries.inc()
        self.obs.events.emit(
            "worker_recovered",
            unit=uid,
            round_index=round_index,
            from_round=checkpoint.round_index if checkpoint is not None else 0,
        )


@register_backend
class MultiprocessBackend(ExecutionBackend):
    """Run a specification with one worker process per execution unit.

    This backend *is* the decentralised scheduler made real: per-unit
    selection cost is paid in actual wall-clock on actual processes rather
    than charged to a simulated unit.  Workers are always spawned
    (:data:`START_METHOD`), and :meth:`execute` takes the shared
    :class:`ExecutionBackend` signature plus ``fault_plan``/``supervise``.

    ``transport`` picks the wire the batch mesh runs over (see
    :mod:`repro.runtime.parallel.transport`): ``"mp-queue"`` (default, one
    multiprocessing queue per link) or ``"tcp"`` (length-prefixed socket
    streams with an address-based peer table).  ``transport_options`` are
    forwarded to the transport's constructor (e.g. ``host``/``base_port``
    for tcp).  The control plane is one lane of two one-way pipes per worker
    (see :class:`_Lane`, :class:`_ControlPlane`) plus process spawning,
    whatever the transport; only the data plane is transport-pluggable.

    ``relax_barrier`` enables decentralised conservative time management:
    execution units that wholly own their system subtrees and declare no
    delay transitions run windows of ``lookahead_rounds`` rounds locally —
    no per-round coordinator round trips, no per-round coordinator fold — streaming
    per-round summaries the coordinator folds asynchronously, in
    (round, declaration) order, into the very same canonical trace the
    strict protocol produces.  Units that share a system subtree or carry
    delay timers keep the barrier protocol (over a masked fold), and
    supervised or fault-injected runs disable relaxation entirely — crash
    recovery reasons in whole global rounds.  ``relax_barrier=False`` is the
    same coordinator loop with nobody relaxed.
    """

    name = "multiprocess"

    def __init__(
        self,
        round_timeout_s: float = 120.0,
        transport: str = "mp-queue",
        transport_options: Optional[Dict[str, Any]] = None,
        relax_barrier: bool = False,
        lookahead_rounds: int = 16,
    ):
        if lookahead_rounds < 1:
            raise ValueError(
                f"lookahead_rounds must be >= 1, got {lookahead_rounds}"
            )
        self.round_timeout_s = round_timeout_s
        self.transport = transport
        self.transport_options = dict(transport_options or {})
        self.relax_barrier = relax_barrier
        self.lookahead_rounds = lookahead_rounds

    # -- orchestration -------------------------------------------------------------

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
        fault_plan: Optional[Any] = None,
        supervise: Optional[bool] = None,
    ) -> BackendResult:
        """Run ``source`` across one worker process per execution unit.

        ``fault_plan`` (a :class:`repro.faults.FaultPlan`) injects
        deterministic failures — worker crashes at round boundaries and
        wall-clock channel delays.  ``supervise`` enables round-boundary
        shard checkpointing plus crash recovery (respawn-from-checkpoint);
        it defaults to on exactly when a fault plan is present, and to off
        otherwise, so the unsupervised fast path is byte-for-byte the
        pre-resilience protocol.  ``dispatch`` selects nothing here: every
        worker evaluates its dirty modules through the generated selectors
        and every round plan is the slot fold of :mod:`.fold`.  It is in
        the signature because the ruler passes ``dispatch="planner"`` to
        both backends, and the name is held to the strategy registry, so a
        misspelt one fails here as it does in-process — before anything is
        spawned.
        """
        dispatch_class_by_name(dispatch)
        obs = obs if obs is not None else NULL_OBS
        supervised = supervise if supervise is not None else fault_plan is not None
        specification = source.build()
        specification.validate()
        external = [m.path for m in specification.modules() if m.EXTERNAL]
        if external:
            raise SchedulingError(
                "the multiprocess backend supports transition-based modules "
                f"only; hand-coded (EXTERNAL) bodies {external} may exchange "
                "state through shared in-process objects that cannot be "
                "replicated across workers — run them on the in-process backend"
            )
        mapping_strategy = mapping or ThreadPerModuleMapping()
        system_mapping: SystemMapping = mapping_strategy.compute(specification, cluster)
        units = tuple(
            UnitDescriptor(
                uid=unit.uid,
                machine=unit.machine,
                processor_index=unit.processor_index,
                module_paths=tuple(unit.module_paths),
                label=unit.label,
            )
            for unit in system_mapping.units
        )
        if not units:
            raise SchedulingError("the mapping produced no execution units")
        unit_by_uid = {unit.uid: unit for unit in units}
        owner_of = {
            path: unit.uid for unit in units for path in unit.module_paths
        }
        cost_scale = cluster.machines()[0].cost_model.transition_cost_scale

        # Conservative lookahead eligibility (decided statically, before
        # spawn): supervision and fault injection keep the strict barrier
        # protocol — crash recovery reasons in whole global rounds.
        relax_active = (
            self.relax_barrier and not supervised and fault_plan is None
        )
        relaxed_uids = (
            _relaxable_units(specification, units, owner_of)
            if relax_active
            else frozenset()
        )

        # Only unit pairs whose modules are actually connected need channels;
        # connectivity is read off the live IP peers (not just spec.connect)
        # so links wired by module initialisers are included.  A connection
        # created later at runtime is caught by the worker-side routing guard.
        pairs = set()
        for module in specification.modules():
            source_uid = owner_of.get(module.path)
            for point in module.ips.values():
                peer_owner = getattr(point.peer, "owner", None)
                target_uid = (
                    owner_of.get(peer_owner.path) if peer_owner is not None else None
                )
                if (
                    source_uid is not None
                    and target_uid is not None
                    and source_uid != target_uid
                ):
                    pairs.add((source_uid, target_uid))

        ctx = multiprocessing.get_context(START_METHOD)
        transport = transport_by_name(self.transport, **self.transport_options)
        control = _ControlPlane(ctx, self.round_timeout_s)
        try:
            # Inside the try that closes it: a tcp mesh binds its listeners
            # one by one, and a failed bind must release the ones before it.
            transport.open(ctx, [unit.uid for unit in units], pairs=pairs)
            # The workers start first: they spend ~0.2 s importing and
            # rebuilding the specification, and everything the coordinator
            # still has to set up below fits inside that.
            configs: Dict[int, WorkerConfig] = {}
            for unit in units:
                configs[unit.uid] = WorkerConfig(
                    source=source,
                    unit_uid=unit.uid,
                    units=units,
                    transition_cost_scale=cost_scale,
                    busy_work_us_per_cost=busy_work_us_per_cost,
                    channel_timeout_s=self.round_timeout_s,
                    crash_rounds=(
                        tuple(sorted(fault_plan.crash_rounds_for(unit.uid)))
                        if fault_plan is not None
                        else ()
                    ),
                    send_delays=(
                        fault_plan.send_delays_for(unit.uid)
                        if fault_plan is not None
                        else ()
                    ),
                    checkpoint=supervised,
                    relaxed=unit.uid in relaxed_uids,
                )
                control.spawn(
                    unit.uid,
                    configs[unit.uid],
                    transport.endpoint_for(unit.uid),
                    f"estelle-unit-{unit.uid}",
                )
            supervisor = (
                _Supervisor(transport, control, configs, obs) if supervised else None
            )

            planner = _RoundPlanner(specification)
            # A relaxed unit wholly owns every root it touches, and plans it.
            planner.mask_roots(
                _root_of(path)
                for uid in relaxed_uids
                for path in unit_by_uid[uid].module_paths
            )
            # The delay clock's single authority: the coordinator owns the
            # time, broadcasts it with every "select", and advances it by the
            # busiest unit's firing-cost sum per round — the identical
            # derivation the in-process executor uses, so FiringEvent.time
            # stays byte-equal.
            clock = SimulatedClock()
            trace = ExecutionTrace(enabled=True)
            metrics = self._metrics(obs, len(units))

            control.gather("ready", 0, configs)
            for unit in units:
                obs.events.emit(
                    "worker_spawn",
                    unit=unit.uid,
                    machine=unit.machine,
                    modules=len(unit.module_paths),
                )
            loop_started = time.perf_counter()
            rounds, transitions_fired, deadlocked, stop_reason = self._run_loop(
                specification=specification,
                owner_of=owner_of,
                unit_by_uid=unit_by_uid,
                relaxed_uids=relaxed_uids,
                control=control,
                planner=planner,
                clock=clock,
                trace=trace,
                max_rounds=max_rounds,
                metrics=metrics,
                supervisor=supervisor,
            )
            wall = time.perf_counter() - loop_started
        finally:
            control.shutdown()
            try:
                transport.close()
            except (ValueError, OSError):  # pragma: no cover - best-effort cleanup
                pass

        return BackendResult(
            backend=self.name,
            trace=trace,
            rounds=rounds,
            transitions_fired=transitions_fired,
            wall_seconds=wall,
            deadlocked=deadlocked,
            workers=len(units),
            metrics=None,
            simulated_time=clock.now,
            stop_reason=stop_reason,
            transport=transport.name,
        )

    @staticmethod
    def _metrics(obs: Observability, workers: int) -> Dict[str, Any]:
        """Coordinator-side folds of the workers' per-round obs deltas.

        All pure wall-clock measurement: the deltas never touch the plan,
        the costs or the simulated clock.
        """
        registry = obs.registry
        registry.gauge(
            "repro_parallel_workers", "Worker processes of the last run."
        ).set(workers)
        return {
            "rounds": registry.counter(
                "repro_parallel_rounds_total",
                "Computation rounds completed by the multiprocess backend.",
            ),
            "busy": registry.counter(
                "repro_parallel_unit_busy_seconds_total",
                "Wall-clock seconds each unit's worker spent firing + flushing.",
                labelnames=("unit",),
            ),
            "sync": registry.counter(
                "repro_parallel_unit_sync_seconds_total",
                "Wall-clock seconds each unit's worker waited for the round's "
                "inbound batches.",
                labelnames=("unit",),
            ),
            "messages": registry.counter(
                "repro_parallel_messages_total",
                "Cross-unit interactions routed through the channel mesh.",
            ),
            "batch": registry.histogram(
                "repro_parallel_batch_size",
                "Messages per per-peer channel batch (one batch per peer per round).",
                buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256),
            ),
            "barrier_rounds": registry.counter(
                "repro_parallel_barrier_rounds_total",
                "Unit-rounds run under the every-round protocol.",
            ),
            "lookahead_rounds": registry.counter(
                "repro_parallel_lookahead_rounds_total",
                "Unit-rounds run locally under conservative lookahead "
                "(relaxed barrier).",
            ),
        }

    # -- the coordinator loop --------------------------------------------------------

    def _run_loop(
        self,
        *,
        specification: Specification,
        owner_of: Dict[str, int],
        unit_by_uid: Dict[int, UnitDescriptor],
        relaxed_uids: frozenset,
        control: _ControlPlane,
        planner: _RoundPlanner,
        clock: SimulatedClock,
        trace: ExecutionTrace,
        max_rounds: int,
        metrics: Dict[str, Any],
        supervisor: Optional[_Supervisor],
    ) -> Tuple[int, int, bool, str]:
        """The coordinator loop: barrier units in lockstep, relaxed ones ahead.

        Barrier units follow the select/plan/fire protocol every round,
        folded over the masked specification (their roots only).  Relaxed
        units receive *windows* of rounds (``run_rounds``) and stream back
        one ``lround`` summary per round; this loop folds each global
        round's barrier reports and relaxed summaries — bucketed per system
        root, concatenated in declaration order — into the canonical trace.
        Pacing is delegated to the mesh's per-link round tags: a relaxed
        unit runs at most one round ahead of any peer it shares a link
        with, and arbitrarily far ahead of units it never exchanges
        interactions with.

        With ``relaxed_uids`` empty this is the strict protocol, every unit
        synchronising every round: no window is ever issued, the ``lround``
        gather over no units returns at once, nothing is masked, and at
        quiescence there is no window to drain.  Supervision (``supervisor``
        is not None) only ever runs that way.
        """
        rounds = 0
        transitions_fired = 0
        deadlocked = False
        stop_reason = "budget"
        barrier_uids = [uid for uid in unit_by_uid if uid not in relaxed_uids]
        relaxed_order = sorted(relaxed_uids)
        system_roots = [root.path for root in specification.system_modules()]
        window_end = 0

        for round_index in range(1, max_rounds + 1):
            if relaxed_order and round_index > window_end:
                if window_end:
                    control.gather("window_done", window_end, relaxed_order)
                window_end = min(
                    round_index + self.lookahead_rounds - 1, max_rounds
                )
                for uid in relaxed_order:
                    control.send(uid, ("run_rounds", round_index, window_end))
            summaries, deadlines = self._select_round(
                control, barrier_uids, round_index, clock, supervisor
            )
            plan = planner.plan(summaries)
            lrounds = control.gather("lround", round_index, relaxed_order)
            relaxed_planned = sum(payload[0] for payload in lrounds.values())
            # An empty round with delay timers still running means time is
            # the missing enabler: jump the clock to the earliest worker-
            # reported deadline and re-select (same round index — a jump is
            # not a computation round).  Each jump strictly advances the
            # clock, so the loop terminates.  Only the barrier units take
            # part: a relaxed unit is delay-free, so its (already executed)
            # local plan for this round is invariant under clock jumps.
            resume_at = clock.now
            while plan.empty and relaxed_planned == 0 and deadlines:
                next_deadline = min(deadlines)
                if next_deadline <= clock.now:
                    break
                clock.now = next_deadline
                summaries, deadlines = self._select_round(
                    control, barrier_uids, round_index, clock, supervisor
                )
                plan = planner.plan(summaries)
            if plan.empty and relaxed_planned == 0:
                # Quiescent: rewind jumps taken chasing stale deadline
                # entries, mirroring the in-process executor, so the final
                # simulated_time matches across dispatches.
                clock.now = resume_at
                deadlocked = planner.has_pending() or any(
                    payload[3] > 0 for payload in lrounds.values()
                )
                stop_reason = "quiescent"
                for uid, payload in lrounds.items():
                    self._fold_delta(metrics, uid, payload[2])
                if relaxed_order:
                    self._drain_windows(
                        control,
                        barrier_uids,
                        relaxed_order,
                        round_index,
                        window_end,
                        metrics,
                    )
                break

            assignments = self._build_assignments(plan, owner_of, barrier_uids)
            round_started = time.perf_counter()
            for uid in barrier_uids:
                # Every barrier unit fires every round — an empty assignment
                # still flushes empty batches, pacing relaxed downstreams.
                control.send(uid, ("fire", round_index, tuple(assignments[uid])))
            report_sets = control.gather("fired", round_index, barrier_uids)
            round_wall = time.perf_counter() - round_started

            barrier_reports: List[Tuple[int, FiringReport]] = []
            for uid, payload in report_sets.items():
                reports, delta = payload[0], payload[1]
                if supervisor is not None and len(payload) > 2:
                    supervisor.store_checkpoint(uid, payload[2])
                self._fold_delta(metrics, uid, delta)
                barrier_reports.extend((uid, report) for report in reports)
            barrier_reports.sort(key=lambda item: item[1][0])  # masked plan order

            # Reassemble the global round order without global plan indices:
            # the in-process plan walks system roots in declaration order,
            # and each root's firings come from exactly one source — the
            # masked coordinator plan (barrier roots, already in plan order)
            # or one relaxed unit's local plan (in its report order).
            buckets: Dict[str, List[Tuple[int, FiringReport]]] = {}
            for uid, report in barrier_reports:
                buckets.setdefault(_root_of(report[1]), []).append((uid, report))
            for uid in relaxed_order:
                _planned, reports, delta, _pending = lrounds[uid]
                self._fold_delta(metrics, uid, delta)
                for report in reports:
                    buckets.setdefault(_root_of(report[1]), []).append(
                        (uid, report)
                    )
            ordered = [
                item for root in system_roots for item in buckets.get(root, [])
            ]

            trace.start_round(round_index)
            unit_firing_costs = self._record_reports(
                trace,
                round_index,
                ordered,
                unit_by_uid,
                clock,
                specification,
                owner_of,
                planner,
                # A relaxed unit's subtree is masked out of the fold, so its
                # topology events never replay on the coordinator replica.
                replay_uids=frozenset(barrier_uids),
            )
            trace.finish_round(makespan=round_wall, serial_overhead=0.0)
            clock.advance(firing_advance(unit_firing_costs))
            rounds += 1
            transitions_fired += len(ordered)
            metrics["rounds"].inc()
            metrics["barrier_rounds"].inc(len(barrier_uids))
            metrics["lookahead_rounds"].inc(len(relaxed_order))
        return rounds, transitions_fired, deadlocked, stop_reason

    def _drain_windows(
        self,
        control: _ControlPlane,
        barrier_uids: List[int],
        relaxed_order: List[int],
        round_index: int,
        window_end: int,
        metrics: Dict[str, Any],
    ) -> None:
        """Run the already-issued lookahead windows out on empty rounds.

        At quiescence the relaxed units still hold windows reaching
        ``window_end``; each is blocked (or about to block) on its barrier
        in-peers' next batch.  Firing the barrier units with empty
        assignments keeps the per-link round tags flowing, so every relaxed
        unit finishes its window with provably empty rounds — a non-empty
        drained round is a soundness violation and fails loud — and every
        queue drains clean before shutdown.
        """
        for drain_round in range(round_index, window_end):
            for uid in barrier_uids:
                control.send(uid, ("fire", drain_round, ()))
            fired = control.gather("fired", drain_round, barrier_uids)
            for uid, payload in fired.items():
                self._fold_delta(metrics, uid, payload[1])
        for drain_round in range(round_index + 1, window_end + 1):
            lrounds = control.gather("lround", drain_round, relaxed_order)
            for uid, (planned, _reports, delta, _pending) in lrounds.items():
                self._fold_delta(metrics, uid, delta)
                if planned:
                    raise ParallelExecutionError(
                        f"unit {uid} planned {planned} firing(s) in round "
                        f"{drain_round}, after the specification quiesced "
                        f"in round {round_index}; conservative lookahead "
                        "drained a non-empty round"
                    )
        control.gather("window_done", window_end, relaxed_order)

    @staticmethod
    def _build_assignments(
        plan: RoundPlan, owner_of: Dict[str, int], unit_uids
    ) -> Dict[int, List[AssignedFiring]]:
        """Split the plan's firings into per-unit assignment lists."""
        assignments: Dict[int, List[AssignedFiring]] = {
            uid: [] for uid in unit_uids
        }
        for firing in assigned_firings(plan):
            path = firing[1]
            try:
                target_uid = owner_of[path]
            except KeyError as exc:
                raise SchedulingError(
                    f"module {path!r} has no execution unit; statically "
                    "mapped modules must be covered by the mapping, and "
                    "dynamically created ones inherit their parent's "
                    "unit through the topology replay"
                ) from exc
            if target_uid not in assignments:
                raise ParallelExecutionError(
                    f"the round plan assigned {path!r} to unit {target_uid}, "
                    "which is not part of this fold (a relaxed unit's module "
                    "leaked into the masked coordinator plan?)"
                )
            assignments[target_uid].append(firing)
        return assignments

    def _record_reports(
        self,
        trace: ExecutionTrace,
        round_index: int,
        ordered: List[Tuple[int, FiringReport]],
        unit_by_uid: Dict[int, UnitDescriptor],
        clock: SimulatedClock,
        specification: Specification,
        owner_of: Dict[str, int],
        planner: _RoundPlanner,
        replay_uids: frozenset,
    ) -> Dict[int, float]:
        """Record one round's merged firing reports on the canonical trace.

        ``replay_uids`` limits whose topology events replay on the
        coordinator replica: barrier units' events must (the precedence
        fold needs the tree), a relaxed unit's must not (its subtree is
        masked out of the fold and stays frozen coordinator-side).
        """
        unit_firing_costs: Dict[int, float] = {}
        for uid, report in ordered:
            # A FiringReport's path and fired fields are the row's middle.
            cost, topology = report[6], report[7]
            unit = unit_by_uid[uid]
            unit_firing_costs[uid] = unit_firing_costs.get(uid, 0.0) + cost
            trace.record_firing(
                FiringEvent(
                    round_index, *report[1:7], unit.uid, unit.machine, clock.now
                )
            )
            if topology and uid in replay_uids:
                # Replay worker-side init/release on the coordinator
                # replica, in global plan order, so the precedence
                # fold sees the same tree as the in-process executor.
                self._replay_topology(specification, owner_of, planner, topology)
        return unit_firing_costs

    @staticmethod
    def _fold_delta(metrics: Dict[str, Any], uid: int, delta) -> None:
        """Fold one worker round's obs delta into the coordinator counters."""
        busy_seconds, sync_seconds, messages, batch_sizes = delta
        metrics["busy"].labels(unit=str(uid)).inc(busy_seconds)
        metrics["sync"].labels(unit=str(uid)).inc(sync_seconds)
        if messages:
            metrics["messages"].inc(messages)
        for size in batch_sizes:
            metrics["batch"].observe(size)

    # -- protocol helpers ----------------------------------------------------------

    @staticmethod
    def _replay_topology(
        specification: Specification,
        owner_of: Dict[str, int],
        planner: _RoundPlanner,
        events,
    ) -> None:
        """Mirror worker-reported tree-shape changes on the coordinator.

        A dynamically created child is placed on its parent's execution unit
        (``owner_of`` inherits the parent's uid for the whole new subtree);
        a released child's subtree is retired from the ownership map so it
        can never be assigned a firing again.  ``init`` replays are
        idempotent: a child already present (created by a replica-side
        ``initialise`` cascade of an earlier event this round) is kept.
        """
        for event in events:
            if event[0] == "init":
                _, parent_path, child_name, class_name, variables = event
                parent = specification.find(parent_path)
                child = parent.children.get(child_name)
                if child is None:
                    module_class = specification.body_classes.get(class_name)
                    if module_class is None:
                        raise SchedulingError(
                            f"cannot replay dynamic init of "
                            f"{parent_path}/{child_name}: module class "
                            f"{class_name!r} is not registered on the "
                            "specification; register it with "
                            "Specification.register_body_class"
                        )
                    child = parent.create_child(
                        module_class, child_name, **dict(variables)
                    )
                try:
                    unit_uid = owner_of[parent_path]
                except KeyError as exc:
                    raise SchedulingError(
                        f"dynamic init under {parent_path!r}, which has no "
                        "execution unit"
                    ) from exc
                for descendant in child.walk():
                    owner_of[descendant.path] = unit_uid
            else:  # release
                _, parent_path, child_name = event
                parent = specification.find(parent_path)
                child = parent.children.get(child_name)
                if child is not None:
                    for descendant in child.walk():
                        owner_of.pop(descendant.path, None)
                    parent.release_child(child_name)
            planner.note_structure_change()

    @staticmethod
    def _select_round(
        control: _ControlPlane,
        uids: List[int],
        round_index: int,
        clock: SimulatedClock,
        supervisor: Optional[_Supervisor] = None,
    ) -> Tuple[Dict[str, SelectionSummary], List[float]]:
        """Send ``uids`` one select at the clock's current time; fold the replies.

        Returns the merged per-module summaries plus every worker-reported
        future delay deadline (empty when no timers are running anywhere).
        With a supervisor, a worker found dead mid-gather is respawned from
        its last shard checkpoint and its select re-issued, transparently.
        """
        now = clock.now
        for uid in uids:
            control.send(uid, ("select", round_index, now))
        summary_sets = control.gather(
            "summaries",
            round_index,
            uids,
            recover=(
                None
                if supervisor is None
                else lambda uid: supervisor.respawn(uid, round_index, now)
            ),
        )
        summaries: Dict[str, SelectionSummary] = {}
        deadlines: List[float] = []
        for per_unit, unit_deadline in summary_sets.values():
            for summary in per_unit:
                summaries[summary[0]] = summary
            if unit_deadline is not None:
                deadlines.append(unit_deadline)
        return summaries, deadlines
