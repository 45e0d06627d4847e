"""E-RESIL — cost and fidelity of the resilience machinery (ISSUE 8).

Two questions, recorded under the ``resilience`` key of
``BENCH_results.json``:

* **What does recovery cost?**  Run the multiprocess backend on the same
  workload fault-free and with a scheduled worker crash; record both wall
  times and their ratio.  A crash costs a respawn (process start + shard
  restore + batch re-send), so the ratio is > 1 — the record tracks its
  trajectory, the gate only checks fidelity.
* **What does it preserve?**  The recovered run's canonical trace must be
  byte-identical to the fault-free one, and a session engine restarted
  from its ``state_dir`` must produce the exact reference trace as
  prefix (pre-crash) + suffix (post-restore).  Checkpoint write/restore
  latencies are recorded per session.

Environment knobs: ``RESIL_SESSIONS`` (persisted-session population,
default 50), ``RESIL_MAX_ROUNDS`` (default 60).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.faults import FaultPlan, WorkerCrash
from repro.obs import Observability
from repro.runtime import GroupedMapping, InProcessBackend, MultiprocessBackend
from repro.runtime.executor import SpecSource
from repro.runtime.parallel.trace import (
    canonical_rounds,
    canonical_trace_bytes,
    trace_diff,
)
from repro.serve.engine import SessionEngine
from repro.sim import Cluster, Machine
from repro.sim.metrics import percentile

SPEC_PATH = Path(__file__).parent.parent / "examples" / "specs" / "mcam_sessions.estelle"
SESSIONS = int(os.environ.get("RESIL_SESSIONS", "50"))
MAX_ROUNDS = int(os.environ.get("RESIL_MAX_ROUNDS", "60"))
CRASH = WorkerCrash(unit=1, round_index=2)


def _cluster() -> Cluster:
    cluster = Cluster()
    for name in ("ksr1", "client-ws-1", "client-ws-2", "sun-1"):
        cluster.add(Machine(name, 2))
    return cluster


def recovery_overhead(source: SpecSource) -> dict:
    """Fault-free vs crashed-and-recovered multiprocess runs."""
    reference = InProcessBackend().execute(
        source, _cluster(), mapping=GroupedMapping(), max_rounds=MAX_ROUNDS,
    )
    reference_bytes = canonical_trace_bytes(reference.trace)

    started = time.perf_counter()
    clean = MultiprocessBackend().execute(
        source, _cluster(), mapping=GroupedMapping(), max_rounds=MAX_ROUNDS,
    )
    clean_seconds = time.perf_counter() - started

    obs = Observability()
    plan = FaultPlan(worker_crashes=(CRASH,))
    started = time.perf_counter()
    recovered = MultiprocessBackend().execute(
        source, _cluster(), mapping=GroupedMapping(), max_rounds=MAX_ROUNDS, obs=obs, fault_plan=plan,
    )
    recovered_seconds = time.perf_counter() - started

    clean_ok = canonical_trace_bytes(clean.trace) == reference_bytes
    recovered_ok = canonical_trace_bytes(recovered.trace) == reference_bytes
    recoveries = obs.registry.get("repro_resil_recoveries_total")
    return {
        "crash": {"unit": CRASH.unit, "round_index": CRASH.round_index},
        "clean_seconds": clean_seconds,
        "recovered_seconds": recovered_seconds,
        "recovery_overhead_ratio": (
            recovered_seconds / clean_seconds if clean_seconds > 0 else 0.0
        ),
        "recoveries": recoveries.value if recoveries is not None else 0,
        "clean_trace_identical": clean_ok,
        "recovered_trace_identical": recovered_ok,
        "trace_divergence": (
            None if recovered_ok else trace_diff(reference.trace, recovered.trace)
        ),
    }


def persistence_latency(source: SpecSource, sessions: int, state_dir: str) -> dict:
    """Checkpoint + restart a session population; verify one trace suffix."""
    with SessionEngine() as reference_engine:
        ref_id = reference_engine.create_session(source)
        reference_engine.run_to_quiescence(ref_id)
        reference_rounds = canonical_rounds(
            reference_engine._session(ref_id).executor.trace
        )

    first = SessionEngine(state_dir=state_dir)
    ids = [first.create_session(source) for _ in range(sessions)]
    for sid in ids:
        first.step(sid, rounds=5)
    prefix = canonical_rounds(first._session(ids[0]).executor.trace)

    write_latencies = []
    for sid in ids:
        op_started = time.perf_counter()
        first.persist_session(sid)
        write_latencies.append((time.perf_counter() - op_started) * 1e3)
    first.shutdown()

    restore_started = time.perf_counter()
    second = SessionEngine(state_dir=state_dir)
    restore_seconds = time.perf_counter() - restore_started
    try:
        restored = len(second.session_ids())
        second.run_to_quiescence(ids[0])
        suffix = canonical_rounds(second._session(ids[0]).executor.trace)
        suffix_ok = prefix + suffix == reference_rounds
    finally:
        second.shutdown()

    return {
        "sessions": sessions,
        "checkpoint_p50_ms": percentile(write_latencies, 0.50),
        "checkpoint_p99_ms": percentile(write_latencies, 0.99),
        "restore_seconds_total": restore_seconds,
        "restore_ms_per_session": (
            restore_seconds * 1e3 / sessions if sessions else 0.0
        ),
        "sessions_restored": restored,
        "all_sessions_restored": restored == sessions,
        "restored_suffix_identical": suffix_ok,
    }


def resilience_results(sessions: int = SESSIONS) -> dict:
    """Run both scenarios; returns the ``resilience`` record."""
    import tempfile

    source = SpecSource.from_estelle_file(SPEC_PATH)
    record = {
        "workload": str(SPEC_PATH.relative_to(SPEC_PATH.parents[2])),
        "max_rounds": MAX_ROUNDS,
        "recovery": recovery_overhead(source),
    }
    with tempfile.TemporaryDirectory(prefix="resil-bench-") as state_dir:
        record["persistence"] = persistence_latency(source, sessions, state_dir)
    return record


# -- pytest gates (run by run_all.py / CI with --benchmark-disable) -------------

_RESULTS_CACHE = {}


def _results() -> dict:
    if "record" not in _RESULTS_CACHE:
        _RESULTS_CACHE["record"] = resilience_results()
    return _RESULTS_CACHE["record"]


def test_recovered_trace_identical():
    recovery = _results()["recovery"]
    assert recovery["clean_trace_identical"], "fault-free MP trace diverged"
    assert recovery["recovered_trace_identical"], recovery["trace_divergence"]
    assert recovery["recoveries"] == 1


def test_restart_preserves_traces():
    persistence = _results()["persistence"]
    assert persistence["all_sessions_restored"], (
        f"only {persistence['sessions_restored']}/{persistence['sessions']} "
        "sessions restored"
    )
    assert persistence["restored_suffix_identical"], (
        "restored session's trace suffix diverged from the reference"
    )


if __name__ == "__main__":
    import json

    print(json.dumps(resilience_results(), indent=2))
