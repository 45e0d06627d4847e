"""The session engine: N independent spec instances behind one service.

Each :class:`Session` owns a full, private execution stack — specification
instance, :class:`~repro.runtime.executor.SpecificationExecutor`, simulated
clock, dirty tracker, trace — built from the compile-once registry
(:mod:`repro.serve.registry`), so spawning a session never re-runs the
front-end.  Sessions are mutually invisible: the only shared objects are
immutable-after-build per-class artefacts (module classes, compiled
selectors, planner code objects), which is what makes the isolation
contract hold — stepping sessions interleaved yields, per session, the
byte-identical canonical trace a sequential run yields.

Concurrency model
-----------------

Operations on one session are serialized by the session's lock; different
sessions proceed independently.  :meth:`SessionEngine.step_all` fans a
step over the engine's thread pool (one task per session) — the idiom for
driving thousands of sessions a timeslice at a time.  Threads (not
processes) are the right pool here: sessions share the per-class compiled
artefacts, and a session step is dominated by the Python round loop which
interleaves fairly under the GIL; the multiprocess axis is ROADMAP item 3.

Lifecycle
---------

::

    engine = SessionEngine()
    sid = engine.create_session(SpecSource.from_estelle_file(path))
    engine.inject(sid, "alice", "ctl", "CallAccept")      # optional ingress
    engine.step(sid, rounds=50)                           # -> health dict
    events, cursor = engine.stream_firings(sid, since=0)  # firing stream
    engine.close_session(sid)                             # -> final stats
    engine.shutdown()

``step`` reports the executor's honest ``stop_reason`` ("quiescent" |
"budget" | "deadline"), so a supervisor can distinguish a finished call
from one that merely exhausted its timeslice.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..estelle.errors import EstelleError
from ..estelle.interaction import Interaction
from ..faults import FailingSink, FaultPlan, InjectedFault
from ..obs import Observability
from ..runtime.executor import SpecSource, SpecificationExecutor
from ..runtime.planner import PlannerDispatch, plan_code_cache_info
from ..sim.machine import cluster_from_placements
from .registry import CompiledSpec, SpecRegistry

#: rounds per executor.run() slice when a step carries a wall-clock budget;
#: run() is timeslicing-safe, so slicing cannot change the trace.
STEP_SLICE_ROUNDS = 32

#: threads in the pool :meth:`SessionEngine.step_all` fans out over.  The
#: HTTP front never touches it — its handler threads call ``step`` directly.
STEP_POOL_WORKERS = 8

#: processors of each machine in a session's cluster, one machine per
#: placement location of the spec (see ``cluster_from_placements``).
SESSION_PROCESSORS = 2

#: on-disk session checkpoint format version.
CHECKPOINT_VERSION = 1

_SERIAL_SID = re.compile(r"^s-(\d+)$")


class ServeError(Exception):
    """An invalid service request (unknown names, bad payloads)."""


class SessionUnknown(ServeError):
    """The referenced session does not exist (or was already closed)."""


class StepTimeout(ServeError):
    """A step exhausted its wall-clock budget before its round budget.

    The session is left healthy at a round boundary (``rounds_completed``
    rounds were run); the caller can simply step again.  Mapped to HTTP
    503 + ``Retry-After`` by the ingress layer.
    """

    def __init__(
        self, session_id: str, rounds_completed: int, budget_s: float
    ) -> None:
        self.session_id = session_id
        self.rounds_completed = rounds_completed
        self.budget_s = budget_s
        super().__init__(
            f"session {session_id!r}: step exceeded its {budget_s:.3f}s "
            f"wall-clock budget after {rounds_completed} rounds "
            "(state is intact at a round boundary; step again to continue)"
        )


class Session:
    """One hosted specification instance with its private executor."""

    def __init__(
        self,
        session_id: str,
        entry: CompiledSpec,
        executor: SpecificationExecutor,
    ):
        self.id = session_id
        self.entry = entry
        self.executor = executor
        self.created_at = time.time()
        self.closed = False
        #: serialize operations on this session (sessions are independent,
        #: one session's ops are not).
        self.lock = threading.Lock()
        self._stream_cursor = 0

    # All methods below are called with ``self.lock`` held by the engine.

    def step(
        self,
        rounds: int,
        deadline: Optional[float] = None,
        budget_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        if budget_s is None or rounds <= 0:
            metrics = self.executor.run(max_rounds=rounds, deadline=deadline)
            return self.health(stop_reason=metrics.stop_reason)
        # With a wall-clock budget, run in round slices and check the clock
        # between them.  run() is documented timeslicing-safe, so slicing
        # cannot change the trace; a timeout always leaves the session at a
        # round boundary with at least one slice of progress made.
        started = time.monotonic()
        remaining = rounds
        while True:
            chunk = min(remaining, STEP_SLICE_ROUNDS)
            metrics = self.executor.run(max_rounds=chunk, deadline=deadline)
            remaining -= chunk
            if metrics.stop_reason != "budget" or remaining <= 0:
                return self.health(stop_reason=metrics.stop_reason)
            if time.monotonic() - started >= budget_s:
                raise StepTimeout(self.id, rounds - remaining, budget_s)

    def inject(
        self,
        module_path: str,
        ip_name: str,
        interaction_name: str,
        params: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        try:
            module = self.executor.specification.find(module_path)
        except EstelleError as exc:
            raise ServeError(str(exc)) from None
        point = module.ips.get(ip_name)
        if point is None:
            raise ServeError(
                f"module {module_path!r} has no interaction point {ip_name!r} "
                f"(declared: {sorted(module.ips)})"
            )
        # Ingress plays the *peer* role: only interactions the peer may send
        # can arrive in this queue, the same check output() applies.
        peer_role = point.role.peer
        if not peer_role.allows(interaction_name):
            raise ServeError(
                f"{point.full_name} (role {point.role.name!r} of channel "
                f"{point.role.channel.name!r}) cannot receive "
                f"{interaction_name!r}; receivable: {sorted(peer_role.interactions)}"
            )
        # An interaction owns its params: copy the caller's dict.
        point.enqueue(Interaction(interaction_name, dict(params or {})))
        return {"queued": point.pending()}

    def stream_firings(self, since: int) -> Tuple[List[Dict[str, Any]], int]:
        events = self.executor.trace.all_firings()
        if since < 0 or since > len(events):
            raise ServeError(
                f"firing cursor {since} out of range (0..{len(events)})"
            )
        return [e._asdict() for e in events[since:]], len(events)

    def health(self, stop_reason: Optional[str] = None) -> Dict[str, Any]:
        metrics = self.executor.metrics
        return {
            "session_id": self.id,
            "spec": self.entry.name,
            "rounds": metrics.rounds,
            "transitions_fired": metrics.transitions_fired,
            "simulated_time": self.executor.clock.now,
            "stop_reason": stop_reason
            if stop_reason is not None
            else metrics.stop_reason,
            "quiescent": (stop_reason or metrics.stop_reason) == "quiescent",
            "deadlocked": self.executor.deadlocked,
        }


class SessionEngine:
    """Hosts and multiplexes independent protocol sessions.

    All state is per-engine (registry, sessions, pool, counters) — no
    module-level globals — so several engines can coexist in one process
    (each test gets a private one) and the whole engine is garbage once
    :meth:`shutdown` returns.
    """

    def __init__(
        self,
        registry: Optional[SpecRegistry] = None,
        max_sessions: Optional[int] = None,
        obs: Optional[Observability] = None,
        state_dir: Optional[str] = None,
        step_timeout_s: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.registry = registry if registry is not None else SpecRegistry()
        self.max_sessions = max_sessions
        self._sessions: Dict[str, Session] = {}
        self._sessions_lock = threading.Lock()
        self._serial = itertools.count(1)
        self._pool = ThreadPoolExecutor(
            max_workers=STEP_POOL_WORKERS, thread_name_prefix="repro-serve"
        )
        self._closed = False
        self._shutting_down = False
        #: durability: a directory of per-session checkpoints.  Sessions are
        #: persisted on shutdown (and via persist_session/persist_all) and
        #: restored on the next engine start with byte-identical trace
        #: suffixes.
        self._state_dir = Path(state_dir) if state_dir is not None else None
        self._step_timeout_s = step_timeout_s
        #: deterministic fault injection (repro.faults): per-session typed
        #: exceptions and sink failures.  None (the default) is the
        #: zero-overhead path — nothing below ever checks it per-round.
        self._fault_plan = fault_plan if fault_plan is not None and not fault_plan.empty else None
        self._fault_calls: Dict[Tuple[str, str], int] = {}
        self._faults_lock = threading.Lock()
        self.started_at = time.time()
        #: lifetime counters for the service's own story.  These plain ints
        #: stay the single source of truth; the metric families below read
        #: them through scrape-time callbacks, so ``/stats`` and
        #: ``/metrics`` cannot drift apart.
        self.sessions_created = 0
        self.sessions_closed = 0
        self.peak_sessions = 0
        #: per-engine observability — *live* by default: the engine is the
        #: long-running service layer, exactly what wants watching.  Shared
        #: with every session's executor/planner, so executor and planner
        #: series aggregate across the whole session population.
        self._owns_obs = obs is None
        self.obs = obs if obs is not None else Observability()
        self._register_metrics()
        if self._fault_plan is not None and self._fault_plan.sink_failures:
            self.obs.events.attach(FailingSink(self._fault_plan.sink_failures))
        if self._state_dir is not None:
            self._state_dir.mkdir(parents=True, exist_ok=True)
            self._restore_sessions()

    def _register_metrics(self) -> None:
        registry = self.obs.registry
        self._h_spawn = registry.histogram(
            "repro_serve_spawn_seconds",
            "Wall-clock seconds to create one session (compile-once path).",
        )
        self._h_step = registry.histogram(
            "repro_serve_step_seconds",
            "Wall-clock seconds of one per-session step call.",
        )
        self._m_faults = registry.counter(
            "repro_resil_faults_injected_total",
            "Faults injected by the engine's FaultPlan, by kind.",
            labelnames=("kind",),
        )
        self._m_ckpt_written = registry.counter(
            "repro_resil_checkpoints_written_total",
            "Session checkpoints written to the engine's state directory.",
        )
        self._m_restored = registry.counter(
            "repro_resil_sessions_restored_total",
            "Sessions restored from the state directory at engine start.",
        )
        self._m_step_timeouts = registry.counter(
            "repro_serve_step_timeouts_total",
            "Step calls that exhausted their wall-clock budget.",
        )
        if not registry.enabled:
            return
        registry.counter(
            "repro_serve_sessions_created_total",
            "Sessions created over the engine's lifetime.",
            callback=lambda: self.sessions_created,
        )
        registry.counter(
            "repro_serve_sessions_closed_total",
            "Sessions closed over the engine's lifetime.",
            callback=lambda: self.sessions_closed,
        )
        registry.gauge(
            "repro_serve_sessions_active",
            "Sessions currently hosted.",
            callback=lambda: len(self.session_ids()),
        )
        registry.gauge(
            "repro_serve_sessions_peak",
            "Highest concurrent session population seen.",
            callback=lambda: self.peak_sessions,
        )
        registry.counter(
            "repro_serve_registry_hits_total",
            "Spec registry lookups served without recompiling.",
            callback=lambda: self.registry.hits,
        )
        registry.counter(
            "repro_serve_registry_misses_total",
            "Spec registry lookups that compiled a new entry.",
            callback=lambda: self.registry.misses,
        )
        registry.gauge(
            "repro_serve_registry_entries",
            "Distinct compiled specifications in the registry.",
            callback=lambda: len(self.registry),
        )

    # -- lifecycle ---------------------------------------------------------------

    def create_session(
        self,
        source: SpecSource,
        session_id: Optional[str] = None,
    ) -> str:
        """Spawn one session; returns its id.

        The spawn path never recompiles a previously seen Estelle source:
        the registry entry's template instantiates the module tree (O(its
        size)), and the executor plans through the selectors stored on the
        shared module classes, so per-class selector compilation also
        happens at most once per spec.
        """
        if self._closed:
            raise ServeError("engine is shut down")
        with self._h_spawn.time():
            try:
                entry = self.registry.get(source)
            except (EstelleError, OSError) as exc:
                # The caller's text does not compile, or their path cannot
                # be read: an invalid request, said with the located message.
                raise ServeError(f"cannot compile the specification: {exc}") from exc
            executor = self._executor_for(entry)
            with self._sessions_lock:
                if self.max_sessions is not None and len(self._sessions) >= self.max_sessions:
                    raise ServeError(
                        f"session limit reached ({self.max_sessions}); close one first"
                    )
                sid = session_id or f"s-{next(self._serial)}"
                if sid in self._sessions:
                    raise ServeError(f"session id {sid!r} already in use")
                self._sessions[sid] = Session(sid, entry, executor)
                self.sessions_created += 1
                self.peak_sessions = max(self.peak_sessions, len(self._sessions))
        self.obs.events.emit("session_create", session_id=sid, spec=entry.name)
        return sid

    def _executor_for(self, entry: CompiledSpec) -> SpecificationExecutor:
        """A fresh instance of ``entry`` under the planner — the one way a
        session plans (hard-coded against table-driven selection is the
        in-process executor's comparison, E4 and E6 of
        ``tests/test_paper_claims.py``, not a service option)."""
        specification = entry.instantiate()
        return SpecificationExecutor(
            specification,
            cluster_from_placements(specification, SESSION_PROCESSORS),
            dispatch=PlannerDispatch(),
            trace=True,
            obs=self.obs,
        )

    def _session(self, session_id: str) -> Session:
        with self._sessions_lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionUnknown(f"unknown session {session_id!r}")
        return session

    # -- durability (state_dir checkpoints) ---------------------------------------

    def _checkpoint_path(self, session_id: str) -> Path:
        assert self._state_dir is not None
        digest = hashlib.sha256(session_id.encode("utf-8")).hexdigest()[:24]
        return self._state_dir / f"{digest}.ckpt"

    def persist_session(self, session_id: str) -> str:
        """Write one session's checkpoint; returns the file path.

        The checkpoint pairs the session's :class:`SpecSource` recipe with
        an :class:`ExecutorSnapshot`, so a fresh engine can rebuild the
        compiled artefacts and resume the executor with byte-identical
        trace suffixes.  Written atomically (tmp file + rename), so a
        crash mid-write leaves the previous checkpoint intact — and under
        the session's lock, the one :meth:`close_session` unlinks under, so
        a persist racing a close cannot leave a closed session's checkpoint
        behind for the next start to resurrect.
        """
        if self._state_dir is None:
            raise ServeError("engine has no state directory (state_dir=None)")
        session = self._session(session_id)
        path = self._checkpoint_path(session_id)
        tmp = path.with_name(path.name + ".tmp")
        with session.lock:
            if session.closed:
                raise SessionUnknown(f"unknown session {session_id!r}")
            document = {
                "version": CHECKPOINT_VERSION,
                "session_id": session.id,
                "source": session.entry.source,
                "created_at": session.created_at,
                "snapshot": session.executor.snapshot(),
            }
            with open(tmp, "wb") as stream:
                pickle.dump(document, stream, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        self._m_ckpt_written.inc()
        self.obs.events.emit(
            "session_checkpoint", session_id=session_id, path=str(path)
        )
        return str(path)

    def persist_all(self) -> List[str]:
        """Checkpoint every live session; returns the written paths."""
        paths: List[str] = []
        for sid in self.session_ids():
            try:
                paths.append(self.persist_session(sid))
            except SessionUnknown:
                pass  # closed concurrently — nothing to persist
        return paths

    def _restore_sessions(self) -> None:
        """Rehydrate sessions from the state directory (engine start).

        Per-file failure isolation: an unreadable or stale checkpoint is
        reported as a ``session_restore_failed`` event and skipped — one
        corrupt file must not take the whole service down.
        """
        assert self._state_dir is not None
        restored_serials: List[int] = []
        for path in sorted(self._state_dir.glob("*.ckpt")):
            try:
                with open(path, "rb") as stream:
                    document = pickle.load(stream)
                version = document.get("version")
                if version != CHECKPOINT_VERSION:
                    raise ServeError(
                        f"unsupported checkpoint version {version!r}"
                    )
                # A document written before the service planned one way
                # also carries "dispatch"; it names nothing any more.
                sid = document["session_id"]
                entry = self.registry.get(document["source"])
                executor = self._executor_for(entry)
                executor.restore(document["snapshot"])
            except Exception as exc:
                self.obs.events.emit(
                    "session_restore_failed",
                    path=str(path),
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            session = Session(sid, entry, executor)
            session.created_at = document["created_at"]
            with self._sessions_lock:
                if sid in self._sessions:
                    continue  # duplicate checkpoint — first one wins
                self._sessions[sid] = session
                self.sessions_created += 1
                self.peak_sessions = max(self.peak_sessions, len(self._sessions))
            match = _SERIAL_SID.match(sid)
            if match:
                restored_serials.append(int(match.group(1)))
            self._m_restored.inc()
            self.obs.events.emit("session_restore", session_id=sid, spec=entry.name)
        if restored_serials:
            # Never hand out an id a restored session already holds.
            self._serial = itertools.count(max(restored_serials) + 1)

    # -- fault injection (repro.faults) -------------------------------------------

    def _maybe_inject(self, session_id: str, op: str) -> None:
        """Raise the scheduled :class:`InjectedFault` for (session, op), if any.

        Counts calls per (session, op) so ``call_index`` selects exactly one
        occurrence; with no fault plan this method is never called.
        """
        assert self._fault_plan is not None
        with self._faults_lock:
            count = self._fault_calls.get((session_id, op), 0) + 1
            self._fault_calls[(session_id, op)] = count
        for fault in self._fault_plan.session_faults:
            if (
                fault.session_id == session_id
                and fault.op == op
                and fault.call_index == count
            ):
                self._m_faults.labels(kind="session").inc()
                self.obs.events.emit(
                    "fault_injected",
                    fault_kind="session",
                    session_id=session_id,
                    op=op,
                    call_index=count,
                )
                raise InjectedFault(fault.message)

    def close_session(self, session_id: str) -> Dict[str, Any]:
        """Retire a session; returns its final health record."""
        with self._sessions_lock:
            session = self._sessions.pop(session_id, None)
            if session is not None:
                self.sessions_closed += 1
        if session is None:
            raise SessionUnknown(f"unknown session {session_id!r}")
        with session.lock:
            session.closed = True
            if self._state_dir is not None and not self._shutting_down:
                # An explicitly closed session is finished — its checkpoint
                # must not resurrect it on the next start.  (Shutdown-time
                # closes keep theirs: that's the durability path.)  Under the
                # lock: a persist that got in first has finished writing, a
                # later one sees ``closed``.
                try:
                    self._checkpoint_path(session_id).unlink(missing_ok=True)
                except OSError:
                    pass
            final = session.health()
        self.obs.events.emit(
            "session_close",
            session_id=session_id,
            spec=session.entry.name,
            rounds=final["rounds"],
            stop_reason=final["stop_reason"],
        )
        return final

    # -- per-session operations --------------------------------------------------

    def step(
        self,
        session_id: str,
        rounds: int = 1,
        deadline: Optional[float] = None,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Run up to ``rounds`` rounds (optionally until a simulated-time
        deadline); returns the session's health including ``stop_reason``.

        ``timeout_s`` (or the engine-wide ``step_timeout_s``) bounds the
        call's wall-clock time: on expiry :class:`StepTimeout` is raised
        with the session intact at a round boundary.
        """
        if rounds < 0:
            raise ServeError(f"rounds must be >= 0, got {rounds}")
        if self._fault_plan is not None:
            self._maybe_inject(session_id, "step")
        session = self._session(session_id)
        budget = timeout_s if timeout_s is not None else self._step_timeout_s
        try:
            with session.lock, self._h_step.time():
                return session.step(rounds, deadline=deadline, budget_s=budget)
        except StepTimeout as exc:
            self._m_step_timeouts.inc()
            self.obs.events.emit(
                "step_timeout",
                session_id=session_id,
                rounds_completed=exc.rounds_completed,
                budget_s=exc.budget_s,
            )
            raise

    def run_to_quiescence(
        self, session_id: str, max_rounds: int = 10_000
    ) -> Dict[str, Any]:
        return self.step(session_id, rounds=max_rounds)

    def inject(
        self,
        session_id: str,
        module_path: str,
        ip_name: str,
        interaction_name: str,
        params: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Enqueue an interaction at a module's interaction point (ingress)."""
        if self._fault_plan is not None:
            self._maybe_inject(session_id, "inject")
        session = self._session(session_id)
        with session.lock:
            return session.inject(module_path, ip_name, interaction_name, params)

    def stream_firings(
        self, session_id: str, since: int = 0
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Firing events after cursor ``since``; returns (events, new cursor)."""
        session = self._session(session_id)
        with session.lock:
            return session.stream_firings(since)

    def health(self, session_id: str) -> Dict[str, Any]:
        session = self._session(session_id)
        with session.lock:
            return session.health()

    # -- fan-out -----------------------------------------------------------------

    def step_all(
        self,
        session_ids: Optional[Sequence[str]] = None,
        rounds: int = 1,
        deadline: Optional[float] = None,
    ) -> Dict[str, Dict[str, Any]]:
        """Step many sessions concurrently over the worker pool.

        Returns {session_id: health}.  Sessions closed mid-flight by another
        caller are skipped rather than failed: a supervisor sweeping all
        sessions should not race session teardown.  A session whose step
        *raises* yields an ``{"session_id": ..., "error": ...}`` record
        instead — one failing session neither hides the others' results
        nor poisons the pool.
        """
        if session_ids is None:
            with self._sessions_lock:
                session_ids = list(self._sessions)

        def _one(sid: str) -> Optional[Dict[str, Any]]:
            try:
                return self.step(sid, rounds=rounds, deadline=deadline)
            except SessionUnknown:
                return None
            except Exception as exc:
                return {
                    "session_id": sid,
                    "error": f"{type(exc).__name__}: {exc}",
                }

        results = list(self._pool.map(_one, session_ids))
        return {
            sid: health
            for sid, health in zip(session_ids, results)
            if health is not None
        }

    def session_ids(self) -> List[str]:
        with self._sessions_lock:
            return list(self._sessions)

    # -- service-level introspection ---------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The service's stats document (shape pinned by ``test_serve_api``).

        Every number here is a *view* over the same state the metric
        families scrape — the counters read these attributes through
        callbacks, so this dict and ``/metrics`` cannot disagree.
        """
        with self._sessions_lock:
            active = len(self._sessions)
        return {
            "active_sessions": active,
            "peak_sessions": self.peak_sessions,
            "sessions_created": self.sessions_created,
            "sessions_closed": self.sessions_closed,
            "uptime_seconds": time.time() - self.started_at,
            "registry": self.registry.stats(),
            "plan_code_cache": plan_code_cache_info(),
            "obs": self.obs.stats(),
        }

    def shutdown(self) -> Dict[str, Any]:
        """Close every session and stop the pool; returns final stats.

        Order matters: sessions are checkpointed *before* being closed (so
        a state_dir engine restarts where it left off), and the event bus
        is flushed — and closed, when the engine owns its observability —
        *after* the pool drains, so a tailing JSONL sink holds every
        lifecycle event up to and including the closes.
        """
        if self._state_dir is not None and not self._closed:
            self.persist_all()
        self._shutting_down = True
        with self._sessions_lock:
            remaining = list(self._sessions)
        for sid in remaining:
            try:
                self.close_session(sid)
            except SessionUnknown:
                pass
        self._closed = True
        self._pool.shutdown(wait=True)
        self.obs.events.flush()
        stats = self.stats()
        if self._owns_obs:
            self.obs.events.close()
        return stats

    # -- context manager ----------------------------------------------------------

    def __enter__(self) -> "SessionEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
