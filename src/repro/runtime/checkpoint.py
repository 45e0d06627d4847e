"""Checkpoint/restore for executor and worker-shard state.

A checkpoint is a *cut state* in the IC3 sense: everything the round
executor needs so that execution resumed from the checkpoint produces a
canonical trace byte-identical to the uninterrupted run's suffix.  That
inventory is small and rng-free by construction — control states,
variables, IP queues, armed delay timers, dynamic-topology
shape (which modules exist, their IP arrays, their connections), the
``<var>#<serial>`` init counters behind trace-stable naming, and the
simulated clock / round cursor.  Deliberately *not* captured: wall-time
metrics, planner caches (rebuilt via the dirty-tracking contract's
explicit ``invalidate()``), and ``Module.uid`` / ``Interaction.uid``
(global instance counters that never reach the canonical trace).

Restore is a direct tree reconstruction, **not** a replay: user
``initialise()`` code never runs, no dirty/structure/topology hooks fire
(callers invalidate their planner explicitly afterwards), and dynamic
modules are rebuilt through ``Specification.body_classes`` with their
exact saved state.  The same helpers serve three consumers with different
scopes — :meth:`SpecificationExecutor.snapshot` (whole tree), the
multiprocess worker's per-round shard checkpoint (owned modules only,
used by the supervising coordinator to respawn a crashed worker), and
``repro.serve``'s session persistence (whole tree, pickled to a state
dir).
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..estelle.errors import EstelleError
from ..estelle.interaction import Interaction
from ..estelle.module import Module
from ..estelle.specification import Specification

__all__ = [
    "CheckpointError",
    "ExecutorSnapshot",
    "IPSnapshot",
    "ModuleRef",
    "ModuleSnapshot",
    "WorkerCheckpoint",
    "capture_modules",
    "feed_deadline_hooks",
    "restore_modules",
]

_ARRAY_IP = re.compile(r"^(?P<base>.+)\[(?P<index>\d+)\]$")


class CheckpointError(EstelleError):
    """A module tree cannot be captured or restored faithfully."""


@dataclass(frozen=True)
class ModuleRef:
    """Placeholder for a module variable that holds a child instance.

    Estelle ``init`` stores the created child in its module variable; the
    instance itself is neither picklable nor meaningful across processes,
    so snapshots encode it by trace-stable path and restore re-resolves it
    against the rebuilt tree.
    """

    path: str


def _encode_variable(owner_path: str, key: str, value: Any) -> Any:
    if isinstance(value, Module):
        if value.released:
            raise CheckpointError(
                f"cannot checkpoint {owner_path}: variable {key!r} holds "
                f"released module {value.path!r}"
            )
        return ModuleRef(value.path)
    return copy.deepcopy(value)


@dataclass(frozen=True)
class IPSnapshot:
    """One interaction point: queued messages, and who it was connected to
    (``(owner_path, ip_name)``) so restore can reconcile connections without
    replaying topology events."""

    name: str
    peer: Optional[Tuple[str, str]]
    queue: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]


@dataclass(frozen=True)
class ModuleSnapshot:
    """Full per-module cut state, keyed by trace-stable path."""

    path: str
    name: str
    class_name: str
    state: Optional[str]
    variables: Tuple[Tuple[str, Any], ...]
    fired_count: int
    initialised: bool
    delay_since: Tuple[Tuple[str, float], ...]
    init_serial: Tuple[Tuple[str, int], ...]
    array_counters: Tuple[Tuple[str, int], ...]
    ips: Tuple[IPSnapshot, ...]


@dataclass(frozen=True)
class ExecutorSnapshot:
    """What :meth:`SpecificationExecutor.snapshot` returns: the module cut
    plus the executor's round/clock cursors and accumulated metrics."""

    spec_name: str
    round_index: int
    clock_now: float
    deadlocked: bool
    structure_epoch: int
    modules: Tuple[ModuleSnapshot, ...]
    metrics: Any


@dataclass(frozen=True)
class WorkerCheckpoint:
    """A worker's owned shard at the end of round ``round_index`` (after its
    outgoing batches were flushed, before the round-``round_index + 1``
    deliveries were consumed)."""

    round_index: int
    owned_paths: Tuple[str, ...]
    modules: Tuple[ModuleSnapshot, ...]
    #: the per-peer batches this worker flushed for ``round_index``, keyed by
    #: peer unit uid.  A crash can lose in-flight batches — an mp-queue
    #: ``put()`` not yet written by the feeder thread, or a TCP frame on a
    #: connection that died with the worker — so a respawned worker re-sends
    #: them through its transport endpoint; receivers discard the duplicates
    #: by round tag, whatever the transport.
    outgoing: Tuple[Tuple[int, Tuple[Any, ...]], ...] = ()


def _snapshot_ip(point) -> IPSnapshot:
    peer = None
    if point.peer is not None:
        peer = (point.peer.owner.path, point.peer.name)
    queue = tuple(
        (
            interaction.name,
            tuple(
                (key, copy.deepcopy(value))
                for key, value in interaction.params.items()
            ),
        )
        for interaction in point.queue
    )
    return IPSnapshot(name=point.name, peer=peer, queue=queue)


def _snapshot_module(module: Module) -> ModuleSnapshot:
    if module.EXTERNAL:
        raise CheckpointError(
            f"cannot checkpoint {module.path}: EXTERNAL bodies hold "
            "hand-coded Python state outside the Estelle state inventory"
        )
    return ModuleSnapshot(
        path=module.path,
        name=module.name,
        class_name=type(module).__name__,
        state=module.state,
        variables=tuple(
            (key, _encode_variable(module.path, key, value))
            for key, value in module.variables.items()
        ),
        fired_count=module.fired_count,
        initialised=module.initialised,
        delay_since=tuple(sorted(module._delay_since.items())),
        init_serial=tuple(sorted(module._init_serial.items())),
        array_counters=tuple(sorted(module._array_counters.items())),
        ips=tuple(_snapshot_ip(point) for point in module.ips.values()),
    )


def capture_modules(
    specification: Specification,
    in_scope: Callable[[str], bool],
) -> Tuple[ModuleSnapshot, ...]:
    """Snapshot every live module whose path satisfies ``in_scope``,
    in pre-order (parents before children — the order restore relies on)."""
    snapshots: List[ModuleSnapshot] = []
    for module in specification.root.walk():
        if module is specification.root:
            continue
        if not in_scope(module.path):
            continue
        snapshots.append(_snapshot_module(module))
    return tuple(snapshots)


def _prune_extra_modules(
    specification: Specification,
    live_paths: set,
    in_scope: Callable[[str], bool],
) -> None:
    """Detach in-scope modules that do not exist in the checkpoint.

    Used when restoring onto a tree that ran ahead of the cut (or onto a
    fresh build whose ``initialise()`` created children the checkpoint had
    already released).  No structure/topology hooks fire — a restore is
    not a topology *event*, and worker-side it must not be re-reported to
    the coordinator.
    """
    for module in list(specification.root.walk()):
        if module is specification.root or module.parent is None:
            continue
        path = module.path
        if not in_scope(path) or path in live_paths:
            continue
        parent = module.parent
        if parent.children.get(module.name) is not module:
            continue  # already detached with an ancestor
        parent.children.pop(module.name)
        for descendant in module.walk():
            descendant.released = True
            for point in descendant.ips.values():
                point.disconnect()


def _create_missing_module(
    specification: Specification,
    by_path: Dict[str, Module],
    snapshot: ModuleSnapshot,
) -> Module:
    """Rebuild a dynamic module directly: resolve the body class, construct
    with the saved variables, propagate hooks/clock from the parent —
    without running ``initialise()`` or firing any hook."""
    parent_path, _, name = snapshot.path.rpartition("/")
    parent = by_path.get(parent_path)
    if parent is None:
        raise CheckpointError(
            f"cannot restore {snapshot.path}: parent {parent_path!r} missing"
        )
    module_class = specification.body_classes.get(snapshot.class_name)
    if module_class is None:
        raise CheckpointError(
            f"cannot restore {snapshot.path}: body class "
            f"{snapshot.class_name!r} is not registered on the specification"
        )
    module = module_class(name, parent=parent, **dict(snapshot.variables))
    module._dirty_hook = parent._dirty_hook
    module._structure_hook = parent._structure_hook
    module._deadline_hook = parent._deadline_hook
    module._topology_hook = parent._topology_hook
    module._sim_clock = parent._sim_clock
    parent.children[name] = module
    return module


def _restore_module_state(module: Module, snapshot: ModuleSnapshot) -> None:
    if type(module).__name__ != snapshot.class_name:
        raise CheckpointError(
            f"cannot restore {snapshot.path}: live module is "
            f"{type(module).__name__}, checkpoint recorded {snapshot.class_name}"
        )
    module.state = snapshot.state
    module.variables = {
        key: value if isinstance(value, ModuleRef) else copy.deepcopy(value)
        for key, value in snapshot.variables
    }
    module.fired_count = snapshot.fired_count
    module.initialised = snapshot.initialised
    module.released = False
    module._delay_since = dict(snapshot.delay_since)
    module._init_serial = dict(snapshot.init_serial)

    saved_ips = {ip.name for ip in snapshot.ips}
    extra = sorted(set(module.ips) - saved_ips)
    if extra:
        raise CheckpointError(
            f"cannot restore {snapshot.path}: live interaction points "
            f"{extra} are absent from the checkpoint"
        )
    # Recreate missing array elements in index order so pts[i] naming and
    # iteration order match the original instance exactly.
    missing = [ip for ip in snapshot.ips if ip.name not in module.ips]
    missing.sort(key=lambda ip: _array_index(snapshot.path, ip.name))
    for ip_snapshot in missing:
        match = _ARRAY_IP.match(ip_snapshot.name)
        if match is None:
            raise CheckpointError(
                f"cannot restore {snapshot.path}: interaction point "
                f"{ip_snapshot.name!r} is not declared and not an array element"
            )
        declaration = type(module)._ip_declarations.get(match.group("base"))
        if declaration is None or not declaration.array:
            raise CheckpointError(
                f"cannot restore {snapshot.path}: no array declaration "
                f"{match.group('base')!r} for {ip_snapshot.name!r}"
            )
        point = declaration.instantiate(module, index=int(match.group("index")))
        module.ips[point.name] = point
    module._array_counters = dict(snapshot.array_counters)

    for ip_snapshot in snapshot.ips:
        point = module.ips[ip_snapshot.name]
        point.queue.clear()
        for interaction_name, params in ip_snapshot.queue:
            point.queue.append(Interaction(interaction_name, dict(params)))


def _array_index(path: str, ip_name: str) -> int:
    match = _ARRAY_IP.match(ip_name)
    if match is None:
        raise CheckpointError(
            f"cannot restore {path}: interaction point {ip_name!r} "
            "is not declared and not an array element"
        )
    return int(match.group("index"))


def _reconcile_connections(
    by_path: Dict[str, Module],
    snapshots: Tuple[ModuleSnapshot, ...],
) -> None:
    """Make live IP connections match the checkpoint.

    Two passes (disconnect-then-connect) so a connection that *moved* —
    possible once ``release``/``init`` recycle peers — never trips
    ``connect_to``'s already-connected check.
    """
    def live_peer(point) -> Optional[Tuple[str, str]]:
        if point.peer is None:
            return None
        return (point.peer.owner.path, point.peer.name)

    for snapshot in snapshots:
        module = by_path[snapshot.path]
        for ip_snapshot in snapshot.ips:
            point = module.ips[ip_snapshot.name]
            if live_peer(point) != ip_snapshot.peer and point.peer is not None:
                point.disconnect()
    for snapshot in snapshots:
        module = by_path[snapshot.path]
        for ip_snapshot in snapshot.ips:
            if ip_snapshot.peer is None:
                continue
            point = module.ips[ip_snapshot.name]
            if point.peer is not None:
                continue  # the reverse-direction pass already connected it
            peer_path, peer_ip = ip_snapshot.peer
            peer_module = by_path.get(peer_path)
            if peer_module is None or peer_ip not in peer_module.ips:
                raise CheckpointError(
                    f"cannot restore connection {snapshot.path}.{ip_snapshot.name}"
                    f" -> {peer_path}.{peer_ip}: peer does not exist"
                )
            peer_point = peer_module.ips[peer_ip]
            if peer_point.peer is not None:
                peer_point.disconnect()
            point.connect_to(peer_point)


def restore_modules(
    specification: Specification,
    snapshots: Tuple[ModuleSnapshot, ...],
    in_scope: Callable[[str], bool],
) -> None:
    """Impose ``snapshots`` onto the live tree.

    ``in_scope`` bounds the *prune* step only: modules outside it (a
    worker's replicas of remote shards) are never touched, while every
    snapshotted module is created/overwritten unconditionally.
    """
    live_paths = {snapshot.path for snapshot in snapshots}
    _prune_extra_modules(specification, live_paths, in_scope)

    by_path = {
        module.path: module
        for module in specification.root.walk()
        if module is not specification.root
    }
    by_path[specification.root.path] = specification.root
    for snapshot in snapshots:  # pre-order: parents restored first
        module = by_path.get(snapshot.path)
        if module is None:
            module = _create_missing_module(specification, by_path, snapshot)
            by_path[snapshot.path] = module
        _restore_module_state(module, snapshot)

    # Second pass: module variables holding child instances (Estelle
    # ``init`` modvars) were captured as ModuleRef placeholders; resolve
    # them now that every snapshotted module exists.
    for snapshot in snapshots:
        module = by_path[snapshot.path]
        for key, value in module.variables.items():
            if isinstance(value, ModuleRef):
                target = by_path.get(value.path)
                if target is None:
                    raise CheckpointError(
                        f"cannot restore {snapshot.path}: variable {key!r} "
                        f"references missing module {value.path!r}"
                    )
                module.variables[key] = target

    _reconcile_connections(by_path, snapshots)


def feed_deadline_hooks(
    specification: Specification,
    snapshots: Tuple[ModuleSnapshot, ...],
) -> None:
    """Re-announce every restored armed delay timer to the deadline heap.

    The tracker's heap tolerates stale entries but cannot invent missing
    ones — without this, an empty round after restore would jump the clock
    past a pending deadline instead of to it.
    """
    by_path = {
        module.path: module
        for module in specification.root.walk()
        if module is not specification.root
    }
    for snapshot in snapshots:
        module = by_path.get(snapshot.path)
        if module is None or module._deadline_hook is None:
            continue
        declarations = type(module)._transition_declarations
        for transition_name, since in snapshot.delay_since:
            transition = declarations.get(transition_name)
            if transition is None or not transition.delay:
                continue
            module._deadline_hook(module, since + transition.delay)


def capture_executor(executor) -> ExecutorSnapshot:
    """Snapshot a :class:`SpecificationExecutor` (whole tree)."""
    specification = executor.specification
    planner = getattr(executor, "planner", None)
    epoch = 0
    if planner is not None:
        epoch = planner.tracker.structure_epoch
    return ExecutorSnapshot(
        spec_name=specification.name,
        round_index=executor._round_index,
        clock_now=executor.clock.now,
        deadlocked=executor.deadlocked,
        structure_epoch=epoch,
        modules=capture_modules(specification, lambda path: True),
        metrics=copy.deepcopy(executor.metrics),
    )


def restore_executor(executor, snapshot: ExecutorSnapshot) -> None:
    """Impose ``snapshot`` onto a (typically fresh) executor for the same
    specification; the trace restarts empty so continued execution yields
    exactly the uninterrupted run's *suffix*."""
    specification = executor.specification
    if specification.name != snapshot.spec_name:
        raise CheckpointError(
            f"snapshot is for specification {snapshot.spec_name!r}, "
            f"executor runs {specification.name!r}"
        )
    restore_modules(specification, snapshot.modules, lambda path: True)
    executor.clock.now = snapshot.clock_now
    executor._round_index = snapshot.round_index
    executor.deadlocked = snapshot.deadlocked
    executor.metrics = copy.deepcopy(snapshot.metrics)
    executor.trace.clear()
    executor._dynamic_unit.clear()
    executor._topology_changed = False
    executor._delayed_modules = None
    planner = getattr(executor, "planner", None)
    if planner is not None:
        feed_deadline_hooks(specification, snapshot.modules)
        # Dirty-tracking contract: state was mutated outside the four
        # invalidation points, so invalidate explicitly (epoch bump forces
        # the generated program to rebuild over the restored topology).
        planner.tracker.note_structure_change(specification.root)
        planner.invalidate()
