"""The per-unit worker process of the multiprocess backend.

Each worker owns one execution unit (a group of modules from the mapping
layer) and runs the unit's share of the paper's decentralised scheduler:
*"each part only has to check the transition of one module — this can be
done in parallel."*  Concretely, per computation round a worker

1. **delivers** the previous round's inbound interaction batches (one per
   peer unit, merged into global order) into its modules' IP queues,
2. **selects** — evaluates the generated selectors against the owned modules
   that changed since its last report (the dirty set; the whole shard in
   round 1 and after a local ``init``/``release``) and reports the results
   to the coordinator, which folds them through the Estelle precedence walk
   into the global round plan,
3. **fires** the transitions the plan assigned to this unit, capturing the
   interactions that cross unit boundaries, and flushes exactly one
   round-tagged batch per peer unit before it replies ``fired``.

Nothing else synchronises a round: the coordinator sends the next ``select``
only after every unit's ``fired``, and step 1 blocks per inbound link until
the batch carrying the awaited round tag is there.  Commands and results
travel over the unit's *lane* — a pair of one-way pipes to the coordinator,
see ``_ControlPlane`` in :mod:`.backend`; interactions travel over the
:class:`~.transport.TransportEndpoint`.

Workers never exchange module state — only interactions.  Every process
(including the coordinator) rebuilds the *same* specification from the
picklable :class:`~repro.runtime.executor.SpecSource`, so a worker holds a
full replica of the module tree but treats only its own unit's modules as
authoritative: remote modules' replicas are never fired and never read, and
interactions a local module sends to a remote-owned IP are intercepted and
routed through the channel mesh instead of the replica's queues.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ...estelle.dirty import DirtyTracker
from ...estelle.errors import SchedulingError
from ...estelle.interaction import Interaction
from ...estelle.module import Module
from ..checkpoint import (
    WorkerCheckpoint,
    capture_modules,
    feed_deadline_hooks,
    restore_modules,
)
from ..clock import SimulatedClock
from ..executor import SpecSource, busy_work_for, fire_planned
from ..planner import PlannerDispatch
from .channels import ChannelTimeout, RoutedMessage, merge_batches
from .fold import (
    AssignedFiring,
    SelectionSummary,
    _RoundPlanner,
    _root_of,
    assigned_firings,
)
from .transport import TransportEndpoint

#: Exit code of a deterministically injected worker crash (repro.faults).
#: Distinct from 0/None so the coordinator's liveness check classifies the
#: process as dead-abnormally, exactly like a SIGKILL'd worker.
CRASH_EXIT_CODE = 17


@dataclass(frozen=True)
class UnitDescriptor:
    """A picklable snapshot of one ExecutionUnit of the mapping."""

    uid: int
    machine: str
    processor_index: int
    module_paths: Tuple[str, ...]
    label: str = ""


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to rebuild its shard (all picklable)."""

    source: SpecSource
    unit_uid: int
    units: Tuple[UnitDescriptor, ...]
    transition_cost_scale: float = 1.0
    busy_work_us_per_cost: float = 0.0
    channel_timeout_s: float = 60.0
    #: rounds at whose select command this worker hard-exits
    #: (deterministic fault injection; see repro.faults.FaultPlan).
    crash_rounds: Tuple[int, ...] = ()
    #: ``(target unit, round, seconds)`` wall-clock delays applied before
    #: flushing the matching outgoing batch (trace-neutral by construction:
    #: the simulated clock never observes them).
    send_delays: Tuple[Tuple[int, int, float], ...] = ()
    #: ship a WorkerCheckpoint of the owned shard with every fired reply,
    #: enabling the coordinator's supervised crash recovery.
    checkpoint: bool = False
    #: shard checkpoint to resume from instead of the fresh initial state
    #: (set by the coordinator when respawning a crashed worker).
    restore: Optional[WorkerCheckpoint] = None
    #: this unit runs under conservative lookahead: it wholly owns its
    #: system subtrees and none of its modules declares a delay transition,
    #: so the coordinator grants it windows of rounds to plan and fire
    #: locally (``run_rounds``) instead of folding it into the global
    #: barrier round (see MultiprocessBackend ``relax_barrier``).
    relaxed: bool = False


#: A tree-shape change caused by a firing, replayable on another replica:
#: ("init", parent path, child name, class name, ((var, value), ...)) or
#: ("release", parent path, child name).
TopologyEvent = Tuple

#: One executed firing, reported for the global trace: (plan index, path,
#: then :func:`~repro.runtime.executor.fire_planned`'s transition name, state
#: before, state after, interaction name and cost, then the topology events
#: the firing caused — in execution order).
FiringReport = Tuple[
    int,
    str,
    str,
    Optional[str],
    Optional[str],
    Optional[str],
    float,
    Tuple[TopologyEvent, ...],
]

#: Per-round observability delta a worker ships with its firing reports:
#: (busy wall seconds of fire+flush, wall seconds ``deliver_pending`` waited
#: for the round's inbound batches, cross-unit messages routed, per-peer
#: batch sizes).  Pure
#: measurement — deltas never feed back into scheduling, costs or the
#: simulated clock, so shipping them cannot perturb canonical traces.
ObsDelta = Tuple[float, float, int, Tuple[int, ...]]


def _declares_delay(module_class: type) -> bool:
    """Whether any transition declared on ``module_class`` is delay-bearing."""
    declarations = getattr(module_class, "_transition_declarations", {})
    return any(
        t.delay > 0 or t.delay_max is not None for t in declarations.values()
    )


class WorkerRuntime:
    """The in-process core of a worker (separated from the process entry
    point so the round protocol is unit-testable without spawning)."""

    def __init__(
        self,
        config: WorkerConfig,
        endpoint: TransportEndpoint,
    ) -> None:
        self.config = config
        self.endpoint = endpoint
        # Fault-plan send delays apply inside the transport's send_batch so
        # they are uniform across transports (mp-queue and tcp alike), and
        # the operator's round timeout becomes the endpoint's default
        # receive window (no hardcoded 60 s on any receive_batch call site).
        endpoint.configure(
            config.send_delays, receive_timeout_s=config.channel_timeout_s
        )
        self.specification = config.source.build()
        self.specification.validate()
        self.modules: Dict[str, Module] = {
            module.path: module for module in self.specification.modules()
        }
        self.owner_of: Dict[str, int] = {
            path: unit.uid for unit in config.units for path in unit.module_paths
        }
        (self.unit,) = [u for u in config.units if u.uid == config.unit_uid]
        missing = [p for p in self.owner_of if p not in self.modules]
        if missing:
            raise SchedulingError(
                f"unit mapping names modules the rebuilt specification lacks: {missing}"
            )
        self.dispatch = PlannerDispatch()
        # The delay clock is coordinator-authoritative: every "select"
        # command carries the current simulated time, which the worker copies
        # onto its replica's clock before evaluating (delay timers and
        # eligibility then read exactly the coordinator's time).
        self.clock = SimulatedClock.attach(self.specification)
        self.busy_work = busy_work_for(config.busy_work_us_per_cost)
        self._undelivered_round: Optional[int] = None
        # Reused per-peer send buffers: one list per outbound peer, cleared
        # per round instead of rebuilding a dict of lists every fire().
        self._outgoing: Dict[int, List[RoutedMessage]] = {
            peer: [] for peer in endpoint.peers_out
        }
        # The *dynamic* shard: seeded with the mapping's static assignment,
        # grown when a local firing creates a child (dynamic children run on
        # their parent's execution unit) and shrunk when one is released
        # (retired from dispatch).  Kept as a dict for deterministic
        # insertion order.
        self._owned: Dict[str, None] = {
            path: None for path in self.unit.module_paths
        }
        # A worker re-evaluates only the dirty part of its shard and reports
        # summary *deltas*; whoever folds them caches the rest.
        self._tracker = DirtyTracker.attach(self.specification)
        #: the structure epoch the last full-shard report covered (None:
        #: nothing reported yet, or a restore invalidated it).
        self._reported_epoch: Optional[int] = None
        # Tree-shape changes caused by local firings, captured through the
        # module-level topology hook and reported to the coordinator with
        # the firing that caused them (ISSUE 5).  Installing the hook after
        # DirtyTracker.attach is safe: the hooks are independent attributes.
        self._topology_events: List[TopologyEvent] = []
        for module in self.specification.root.walk():
            module._topology_hook = self._topology_events.append
        # Conservative lookahead (relaxed units only): the unit folds its
        # own summaries, as the coordinator does the barrier units', over
        # its live tree with every system root it does not own masked.
        # System modules are mutually independent — precedence never crosses
        # system subtrees — so that fold yields exactly the global plan's
        # projection onto this unit.
        self._fold: Optional[_RoundPlanner] = None
        if config.relaxed:
            own_roots = {_root_of(path) for path in self.unit.module_paths}
            self._fold = _RoundPlanner(self.specification)
            self._fold.mask_roots(
                root.path
                for root in self.specification.system_modules()
                if root.path not in own_roots
            )

    # -- the three phases ----------------------------------------------------------

    def deliver_pending(self) -> None:
        """Drain one batch per peer for the round whose firings precede this
        selection, and enqueue the interactions in global order."""
        if self._undelivered_round is None:
            return
        round_index = self._undelivered_round
        self._undelivered_round = None
        batches = [
            self.endpoint.receive_batch(peer, round_index)
            for peer in self.endpoint.peers_in
        ]
        for message in merge_batches(batches):
            module = self.modules.get(message.target_path)
            if module is None:
                # A remote firing's replica-side send raced a local release:
                # the in-process executor would have raised a ChannelError at
                # output time (release disconnects the subtree's IPs), so a
                # silent drop here would diverge silently — fail loud instead.
                raise SchedulingError(
                    f"interaction {message.interaction_name!r} arrived for "
                    f"module {message.target_path!r}, which was released; "
                    "cross-unit sends to releasable modules are not "
                    "supported (a released module's IPs are disconnected)"
                )
            module.ips[message.ip_name].enqueue(
                Interaction(message.interaction_name, dict(message.params))
            )

    def select(self, now: float = 0.0) -> Tuple[List[SelectionSummary], Optional[float]]:
        """Phase 2: per-module transition selection over the owned shard.

        ``now`` is the coordinator's simulated time (delay semantics); the
        returned pair is ``(summaries, next_deadline)`` where the deadline is
        the earliest future delay-timer expiry among the owned modules (None
        when no timer is running) — the coordinator jumps the clock to the
        minimum over all workers when a round plan comes up empty.

        The evaluated set is the shard's *dirty* modules (changed state or
        queues since the previous round, plus modules woken by an expired
        delay deadline) and the returned summaries are a delta.
        """
        self.clock.now = now
        self._tracker.wake_due(now)
        epoch = self._tracker.structure_epoch
        if epoch == self._reported_epoch:
            dirty = self._tracker.drain()
            paths: List[str] = sorted(
                module.path for module in dirty if module.path in self._owned
            )
        else:
            # Round 1 seeds the fold's slots with the full shard; a
            # structure-epoch bump (a local init/release last round)
            # re-reports the full — possibly re-shaped — shard so the
            # rebuilt walk program has every slot filled.
            self._tracker.drain()
            paths = list(self._owned)
            self._reported_epoch = epoch
        summaries: List[SelectionSummary] = []
        for path in paths:
            module = self.modules[path]
            result = self.dispatch.select(module)
            summaries.append(
                (
                    path,
                    result.transition.name if result.transition else None,
                    result.external,
                    module.pending_interactions(),
                )
            )
        return summaries, self._tracker.next_deadline()

    def fire(
        self, round_index: int, firings: Tuple[AssignedFiring, ...]
    ) -> Tuple[List[FiringReport], Dict[int, List[RoutedMessage]]]:
        """Phase 3: execute this unit's share of the round plan."""
        reports: List[FiringReport] = []
        outgoing = self._outgoing
        for bucket in outgoing.values():
            bucket.clear()
        scale = self.config.transition_cost_scale

        for plan_index, path, transition_name, is_external in firings:
            module = self.modules.get(path)
            if module is None or module.released:
                # Released by an earlier firing of this same round: the plan
                # was built before the release, but a released module must
                # never fire — skip it, exactly like the in-process executor.
                continue
            events_before = len(self._topology_events)

            fired = fire_planned(
                module,
                None
                if is_external
                else type(module)._transition_declarations[transition_name],
                scale,
            )

            if self.busy_work is not None:
                self.busy_work(fired[-1])
            module.note_fired()
            topology = tuple(self._topology_events[events_before:])
            if topology:
                self._apply_topology_locally(topology)
            reports.append((plan_index, path, *fired, topology))
            self._capture_remote_sends(module, plan_index, outgoing)

        self._topology_events.clear()
        return reports, outgoing

    def flush(self, round_index: int, outgoing: Dict[int, List[RoutedMessage]]) -> None:
        """Send exactly one batch (possibly empty) to every peer unit.

        Fault-plan send delays and the oversized-batch guard live inside the
        endpoint's ``send_batch``, identically for every transport.
        """
        for peer in self.endpoint.peers_out:
            self.endpoint.send_batch(peer, round_index, outgoing.get(peer, ()))
        self._undelivered_round = round_index

    def obs_delta(
        self,
        busy_seconds: float,
        sync_seconds: float,
        outgoing: Dict[int, List[RoutedMessage]],
    ) -> ObsDelta:
        """The observability delta of one fired-and-flushed round."""
        batch_sizes = tuple(
            len(outgoing.get(peer, ())) for peer in self.endpoint.peers_out
        )
        return busy_seconds, sync_seconds, sum(batch_sizes), batch_sizes

    # -- conservative lookahead (relaxed units) ------------------------------------

    def local_round(
        self, round_index: int
    ) -> Tuple[int, List[FiringReport], ObsDelta, int]:
        """Run one computation round entirely locally (no coordinator fold).

        A relaxed unit wholly owns its system subtrees, so folding its own
        ``select()`` over them *is* the global plan's projection onto this
        unit; and it is delay-free, so the plan does not depend on the
        simulated clock.  The round is still paced by the
        mesh: ``deliver_pending`` blocks per inbound link on the previous
        round's batch (a peer — barrier or relaxed — that has not finished
        that round yet holds this unit back exactly one round), and the
        flush ships this round's batches so downstream peers can proceed.

        Returns ``(planned, reports, obs_delta, pending)``: the number of
        *planned* firings (before any released-module skip, i.e. the local
        plan's emptiness as the in-process executor would see it), the
        firing reports, the usual observability delta (sync is the
        inbound-pacing wait, as in a strict round), and whether any owned
        module has interactions queued (1 or 0; only looked at when the plan
        was empty — the coordinator's deadlock verdict needs it then).
        """
        phase_started = time.perf_counter()
        self.deliver_pending()
        sync_seconds = time.perf_counter() - phase_started
        summaries, _ = self.select()
        plan = self._fold.plan({summary[0]: summary for summary in summaries})
        firings = tuple(assigned_firings(plan))
        fire_started = time.perf_counter()
        reports, outgoing = self.fire(round_index, firings)
        self.flush(round_index, outgoing)
        delta = self.obs_delta(
            time.perf_counter() - fire_started, sync_seconds, outgoing
        )
        pending = int(not firings and self._fold.has_pending())
        return len(firings), reports, delta, pending

    # -- checkpoint/restore --------------------------------------------------------

    def snapshot_shard(
        self,
        round_index: int,
        outgoing: Dict[int, List[RoutedMessage]],
    ) -> WorkerCheckpoint:
        """Capture the owned shard at the end of ``round_index`` (after this
        round's outgoing batches were flushed)."""
        return WorkerCheckpoint(
            round_index=round_index,
            owned_paths=tuple(self._owned),
            modules=capture_modules(
                self.specification, self._owned.__contains__
            ),
            outgoing=tuple(
                (peer, tuple(outgoing.get(peer, ())))
                for peer in self.endpoint.peers_out
            ),
        )

    def restore_shard(self, checkpoint: WorkerCheckpoint) -> None:
        """Resume a freshly rebuilt worker from a shard checkpoint.

        Only the statically owned scope is pruned/overwritten — replicas of
        remote units' modules keep their fresh-build state, exactly as they
        would in a worker that never crashed (workers never apply remote
        topology events to their replicas).  The next select re-reports the
        full shard, so the coordinator's planner cache refills.
        """
        static_owned = frozenset(self.unit.module_paths)
        restore_modules(
            self.specification,
            checkpoint.modules,
            static_owned.__contains__,
        )
        self.modules = {
            module.path: module for module in self.specification.modules()
        }
        self._owned = {path: None for path in checkpoint.owned_paths}
        for path in [
            p
            for p, owner in self.owner_of.items()
            if owner == self.unit.uid and p not in self._owned
        ]:
            del self.owner_of[path]
        for path in checkpoint.owned_paths:
            self.owner_of[path] = self.unit.uid
        feed_deadline_hooks(self.specification, checkpoint.modules)
        self._reported_epoch = None
        self._topology_events.clear()
        # The crash happened at a select, i.e. *before* the previous round's
        # batches were consumed — deliver them on the next select.  On
        # mp-queue they still sit in the surviving shared queues; on tcp
        # they died with the process, and the supervisor's "reconnect"
        # broadcast makes every live sender re-send its retransmit slot
        # (exactly that round's batch) over a fresh connection.
        self._undelivered_round = checkpoint.round_index
        # The crashed process's original flush may not have reached every
        # peer (an mp queue's feeder thread dies with os._exit before
        # draining; a TCP stream dies with its socket).  Re-send the whole
        # checkpointed round over the fresh endpoint: a receiver that
        # already consumed the original discards the duplicate by its stale
        # round tag, on every transport.
        for peer, messages in checkpoint.outgoing:
            self.endpoint.send_batch(peer, checkpoint.round_index, messages)

    # -- internals -----------------------------------------------------------------

    def _apply_topology_locally(self, events: Tuple[TopologyEvent, ...]) -> None:
        """Register/retire dynamic modules in this worker's shard.

        Only *local* firings cause events here (a worker never fires remote
        replicas), and a dynamically created child always runs on its
        parent's execution unit — so every event extends or shrinks this
        unit's own shard.
        """
        if self._fold is not None:
            self._fold.note_structure_change()
        for event in events:
            if event[0] == "init":
                parent_path, child_name = event[1], event[2]
                parent = self.modules[parent_path]
                child = parent.children[child_name]
                for descendant in child.walk():
                    if self.config.relaxed and _declares_delay(type(descendant)):
                        # Relaxation eligibility was decided statically from
                        # the initial tree; a dynamically created delay
                        # transition would need the coordinator's clock
                        # authority this unit deliberately runs without.
                        raise SchedulingError(
                            f"dynamically created module {descendant.path!r} "
                            "declares a delay transition, but its execution "
                            "unit runs with the round barrier relaxed "
                            "(delay-free conservative lookahead); run this "
                            "specification with relax_barrier=False"
                        )
                    self.modules[descendant.path] = descendant
                    self._owned[descendant.path] = None
                    self.owner_of[descendant.path] = self.unit.uid
            else:  # release: retire the whole subtree by path prefix
                _, parent_path, child_name = event
                root_path = f"{parent_path}/{child_name}"
                prefix = root_path + "/"
                for path in [
                    p
                    for p in self.modules
                    if p == root_path or p.startswith(prefix)
                ]:
                    self.modules.pop(path, None)
                    self._owned.pop(path, None)
                    self.owner_of.pop(path, None)

    def _capture_remote_sends(
        self,
        module: Module,
        plan_index: int,
        outgoing: Dict[int, List[RoutedMessage]],
    ) -> None:
        """Route interactions the firing pushed into remote-owned IP queues.

        A replica enqueues sends through the real connection objects, so the
        just-sent interactions sit at the *tail* of the (stale) local copy of
        the remote module's queue; they are removed here and forwarded so the
        owning worker — whose copy is authoritative — enqueues them instead.
        The module's send log names them: per IP, in first-send order.
        """
        for point, count in module.send_log.items():
            if point.peer is None:
                continue
            peer_owner = point.peer.owner
            if not isinstance(peer_owner, Module):
                continue
            target_uid = self.owner_of.get(peer_owner.path)
            if target_uid is None:
                raise SchedulingError(
                    f"module {peer_owner.path!r} has no execution unit; the "
                    "multiprocess backend requires a complete static mapping"
                )
            if target_uid == self.unit.uid:
                continue  # stayed inside this unit: the local enqueue stands
            if target_uid not in self._outgoing:
                raise SchedulingError(
                    f"{module.path} sent an interaction to unit {target_uid} "
                    "but no channel exists for that unit pair; was the "
                    "connection created after the mesh was derived (runtime "
                    "connect)?"
                )
            newest_first = [point.peer.queue.pop() for _ in range(count)]
            for seq, interaction in enumerate(reversed(newest_first)):
                outgoing[target_uid].append(
                    RoutedMessage(
                        plan_index=plan_index,
                        seq=seq,
                        target_path=peer_owner.path,
                        ip_name=point.peer.name,
                        interaction_name=interaction.name,
                        params=tuple(sorted(interaction.params.items())),
                    )
                )


def worker_main(
    config: WorkerConfig, commands, results, endpoint: TransportEndpoint
) -> None:
    """Process entry point: serve the coordinator's round protocol.

    ``commands`` and ``results`` are this unit's ends of its control lane
    (two one-way pipes to the coordinator).  Commands are ``("select", round, now)``,
    ``("fire", round, firings)``, ``("run_rounds", start, end)`` (relaxed
    units: a window of locally planned rounds, answered with one ``lround``
    per round plus a ``window_done``), ``("reconnect", peer)`` and
    ``("stop",)``; every select/fire is answered with exactly one result
    tuple ``(kind, round, payload)``.  A ``select`` may repeat for the same
    round with a later ``now`` when the coordinator jumps the simulated
    clock over a delay deadline; a ``reconnect`` (sent by the supervisor
    after respawning a crashed peer, unanswered) makes connection-oriented
    transports redial that peer and re-send their retransmit slot.  Any
    exception is reported as an ``("error", -1, traceback)`` result instead
    of dying silently, so the coordinator can fail fast with the worker's
    stack trace.
    """
    uid = config.unit_uid
    crash_rounds = frozenset(config.crash_rounds)
    try:
        endpoint.connect()
        runtime = WorkerRuntime(config, endpoint)
        if config.restore is not None:
            runtime.restore_shard(config.restore)
        results.send(("ready", 0, len(runtime.unit.module_paths)))
        # Wall seconds this round's selects spent waiting for inbound
        # batches; shipped as the sync share of the round's "fired" delta.
        inbound_wait = 0.0
        while True:
            try:
                command = commands.recv()
            except EOFError:
                break  # the coordinator is gone: nobody left to serve
            kind = command[0]
            if kind == "select":
                round_index, now = command[1], command[2]
                if round_index in crash_rounds:
                    # Deterministic fault injection (repro.faults): hard exit
                    # with no error report and the previous round's inbound
                    # batches left unconsumed (the supervisor's respawn picks
                    # them up).  The data plane is quiesced first: an mp
                    # queue's feeder threads share write locks with live
                    # processes, and dying inside a feeder's lock window
                    # would wedge every other worker — the model here is
                    # "death at a round boundary", not a torn write mid-pipe
                    # (which no respawn could repair).  The lane is written
                    # synchronously, so it has nothing in flight to lose.
                    endpoint.close()
                    commands.close()
                    results.close()
                    os._exit(CRASH_EXIT_CODE)
                wait_started = time.perf_counter()
                runtime.deliver_pending()
                inbound_wait += time.perf_counter() - wait_started
                summaries, deadline = runtime.select(now)
                results.send(("summaries", round_index, (tuple(summaries), deadline)))
            elif kind == "fire":
                round_index, firings = command[1], command[2]
                phase_started = time.perf_counter()
                reports, outgoing = runtime.fire(round_index, firings)
                # One round-tagged batch per out-peer leaves *before* the
                # "fired" reply; the next round's deliver_pending blocks on
                # exactly these tags, so no unit can observe a partial round.
                runtime.flush(round_index, outgoing)
                delta = runtime.obs_delta(
                    time.perf_counter() - phase_started, inbound_wait, outgoing
                )
                inbound_wait = 0.0
                payload: Tuple[Any, ...] = (tuple(reports), delta)
                if config.checkpoint:
                    # Round-boundary checkpoint, piggybacked on the reply so
                    # supervision costs no extra protocol round trip.
                    payload = payload + (
                        runtime.snapshot_shard(round_index, outgoing),
                    )
                results.send(("fired", round_index, payload))
            elif kind == "run_rounds":
                # Conservative lookahead: run a window of rounds entirely
                # locally, streaming one "lround" result per round (the
                # coordinator folds them asynchronously, in round order)
                # and a terminal "window_done" marker.  Pacing is purely
                # per-link: deliver_pending inside local_round blocks on
                # each inbound peer's previous-round batch.
                start_round, end_round = command[1], command[2]
                for local_index in range(start_round, end_round + 1):
                    planned, reports, delta, pending = runtime.local_round(
                        local_index
                    )
                    results.send(
                        (
                            "lround",
                            local_index,
                            (planned, tuple(reports), delta, pending),
                        )
                    )
                results.send(("window_done", end_round, None))
            elif kind == "reconnect":
                # A crashed peer was respawned; redial it (and re-send the
                # retransmit slot) on transports whose links died with it.
                endpoint.reconnect_peer(command[1])
            elif kind == "stop":
                break
            else:  # pragma: no cover - coordinator never sends other kinds
                raise ValueError(f"unknown worker command {kind!r}")
    except ChannelTimeout as exc:
        peer = "?" if exc.peer is None else exc.peer
        results.send(
            (
                "error",
                -1,
                f"channel timeout: unit {uid} waited {exc.timeout_s:.0f}s for "
                f"the round-{exc.round_index} batch from unit {peer}; that "
                "peer worker is dead or deadlocked\n"
                + traceback.format_exc(),
            )
        )
    except BaseException:
        results.send(("error", -1, traceback.format_exc()))
