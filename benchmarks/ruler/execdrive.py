"""Driver of the ``inproc_*`` and ``mesh_*`` workloads.

One op is one ``ExecutionBackend.execute()`` of the generated text — source
build to result, spawn and teardown included on the mesh — issued by a single
closed-loop driver thread: the next op starts when the previous one returned.
All ops use ``dispatch="planner"``; the oracle every op's canonical trace is
checked against is the same text run in-process under ``"table-driven"``
(the interpreted walk, not the planner under test).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.obs import Observability
from repro.runtime import (
    InProcessBackend,
    MultiprocessBackend,
    SequentialMapping,
    SpecSource,
)
from repro.runtime.parallel import canonical_trace_bytes, trace_diff
from repro.sim import Cluster, Machine

from spans import NULL_RECORDER
from workloads import Workload

DISPATCH = "planner"
ORACLE_DISPATCH = "table-driven"
MAX_ROUNDS = 100_000
#: per-round receive window of the mesh — the timeout of every blocking
#: coordinator/worker call, so a wedged worker fails the op instead of the run.
MESH_ROUND_TIMEOUT_S = 60.0


def cluster_of(machines) -> Cluster:
    """One 2-processor machine per name, in the given order."""
    cluster = Cluster()
    for name in machines:
        cluster.add(Machine(name, 2))
    return cluster


def mesh_backend(workload: Workload) -> MultiprocessBackend:
    return MultiprocessBackend(
        transport=workload.transport,
        relax_barrier=workload.relax_barrier,
        round_timeout_s=MESH_ROUND_TIMEOUT_S,
    )


def backend_for(workload: Workload):
    return mesh_backend(workload) if workload.kind == "mesh" else InProcessBackend()


def execute(workload: Workload, backend, obs: Optional[Observability] = None, dispatch: str = DISPATCH):
    """One op: ``(caller-side wall seconds, BackendResult)``."""
    source = SpecSource.from_estelle_text(workload.texts[0], filename=workload.name)
    started = time.perf_counter()
    result = backend.execute(
        source,
        cluster_of(workload.machines),
        mapping=SequentialMapping(),
        dispatch=dispatch,
        max_rounds=MAX_ROUNDS,
        obs=obs,
    )
    return time.perf_counter() - started, result


def trace_digest(trace) -> str:
    return hashlib.sha256(canonical_trace_bytes(trace)).hexdigest()


def series_value(obs: Observability, name: str) -> float:
    """Current value of an unlabelled counter or gauge (0 if never created)."""
    family = obs.registry.get(name)
    return family.value if family is not None else 0.0


def histogram_sum(obs: Observability, name: str) -> float:
    family = obs.registry.get(name)
    return family.sum if family is not None else 0.0


def labelled_values(obs: Observability, name: str) -> List[float]:
    family = obs.registry.get(name)
    return [child.value for _, child in family.children()] if family is not None else []


@dataclass
class ExecWindow:
    """What one measured window of ops produced."""

    op_walls: List[float] = field(default_factory=list)
    loop_walls: List[float] = field(default_factory=list)
    firings: int = 0
    digests: List[str] = field(default_factory=list)
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    last_trace: object = None

    @property
    def busy_s(self) -> float:
        return sum(self.op_walls)


def run_window(
    workload: Workload,
    seconds: float,
    recorder=NULL_RECORDER,
    obs: Optional[Observability] = None,
    max_ops: Optional[int] = None,
) -> ExecWindow:
    """Issue ops back to back until ``seconds`` have passed (at least one).

    The digest of each op's trace is taken between ops, outside every timed
    region; ``firings_per_s`` divides by the time ops were running, so the
    generator's own bookkeeping is not charged to the program.
    """
    window = ExecWindow()
    backend = backend_for(workload)
    mesh = workload.kind == "mesh"
    started = time.perf_counter()
    while True:
        window.attempted += 1
        plan_before = histogram_sum(obs, "repro_executor_plan_seconds") if obs else 0.0
        fire_before = histogram_sum(obs, "repro_executor_fire_seconds") if obs else 0.0
        busy_before = labelled_values(obs, "repro_parallel_unit_busy_seconds_total") if obs else []
        try:
            with recorder.span("execute", "backend" if mesh else "executor", op=window.attempted) as span:
                wall, result = execute(workload, backend, obs=obs)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            window.errors.append(f"op {window.attempted}: {type(exc).__name__}: {exc}")
        else:
            window.op_walls.append(wall)
            window.loop_walls.append(result.wall_seconds)
            window.firings += result.transitions_fired
            window.digests.append(trace_digest(result.trace))
            window.last_trace = result.trace
            if span is not None:
                outside = "spawn + rebuild + teardown" if mesh else "source build + construct"
                recorder.aggregate(span, outside, "backend.spawn_teardown" if mesh else "frontend", wall - result.wall_seconds)
                loop = recorder.aggregate(span, "round loop", "backend.loop" if mesh else "executor.loop", result.wall_seconds)
                if mesh:
                    busy_after = labelled_values(obs, "repro_parallel_unit_busy_seconds_total")
                    busy_before += [0.0] * (len(busy_after) - len(busy_before))
                    busiest = max((a - b for a, b in zip(busy_after, busy_before)), default=0.0)
                    recorder.aggregate(loop, "busiest worker firing", "worker", busiest)
                else:
                    recorder.aggregate(loop, "plan", "planner", histogram_sum(obs, "repro_executor_plan_seconds") - plan_before)
                    recorder.aggregate(loop, "fire", "executor.fire", histogram_sum(obs, "repro_executor_fire_seconds") - fire_before)
        if time.perf_counter() - started >= seconds or (max_ops and window.attempted >= max_ops):
            break
    return window


def oracle(workload: Workload):
    """The independent reference run: in-process, interpreted table walk."""
    _, result = execute(workload, InProcessBackend(), dispatch=ORACLE_DISPATCH)
    return result


def verify(workload: Workload, windows: List[ExecWindow], corrupt: bool = False):
    """``(failed ops, error strings)`` of ``windows`` against the oracle."""
    reference = oracle(workload)
    digest = trace_digest(reference.trace)
    if corrupt:  # test hook: a wrong oracle must fail every op
        digest = digest[::-1]
    errors: List[str] = []
    expected = workload.expected_firings[0]
    if expected is not None and reference.transitions_fired != expected:
        errors.append(
            f"generator: oracle fired {reference.transitions_fired}, closed form says {expected}"
        )
    failed = len(errors)
    for window in windows:
        failed += len(window.errors)
        errors += window.errors
        mismatched = sum(1 for d in window.digests if d != digest)
        failed += mismatched
        if mismatched:
            where = trace_diff(reference.trace, window.last_trace) or "digest only (corrupted oracle)"
            errors.append(f"{mismatched} op trace(s) differ from the oracle; last op: {where}")
    return failed, errors
