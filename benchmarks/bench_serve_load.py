"""E-SERVE — load generator for the multi-session service (ISSUE 6).

Drives ``repro.serve`` the way a call-control deployment would: spawn a
large population of ``mcam_sessions`` instances (one per simulated
user/call), then sweep them to quiescence a timeslice at a time over the
engine's worker pool.  Records, under the ``serve_load`` key of
``BENCH_results.json``:

* ``sessions_per_sec`` — completed sessions per second of total wall time
  (spawn + drive),
* ``p50_latency_ms`` / ``p99_latency_ms`` — per-operation latency of the
  service's unit of work (one ``engine.step`` timeslice of one session),
* ``spawn_p50_ms`` / ``spawn_p99_ms`` — session-creation latency, the
  number the compile-once registry exists to keep flat,
* ``peak_sessions`` — the concurrent-instance high-water mark (the
  acceptance floor is 1000),
* the **compile-once contract**: the registry must report exactly one
  front-end compile for the spec regardless of population size,
* the **isolation contract**: a sample of session traces must be
  byte-identical to a sequential single-session reference run.

Environment knobs: ``SERVE_LOAD_SESSIONS`` (default 1000),
``SERVE_LOAD_SLICE`` (rounds per timeslice, default 7).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.runtime.executor import SpecSource
from repro.runtime.parallel.trace import canonical_trace_bytes, trace_diff
from repro.serve.engine import SessionEngine
from repro.sim.metrics import percentile

SPEC_PATH = Path(__file__).parent.parent / "examples" / "specs" / "mcam_sessions.estelle"
SESSIONS = int(os.environ.get("SERVE_LOAD_SESSIONS", "1000"))
SLICE_ROUNDS = int(os.environ.get("SERVE_LOAD_SLICE", "7"))
#: sessions whose full trace is compared against the sequential reference.
EQUIVALENCE_SAMPLE = 25
#: CI floor: the service must clear this on a 1-CPU runner with headroom
#: (the container this was tuned on sustains ~450/s).
SESSIONS_PER_SEC_FLOOR = 25.0


def reference_trace_bytes(source: SpecSource):
    """Canonical bytes of one session run sequentially to quiescence."""
    with SessionEngine() as engine:
        sid = engine.create_session(source)
        engine.run_to_quiescence(sid)
        trace = engine._session(sid).executor.trace
        return canonical_trace_bytes(trace), trace


def serve_load_results(sessions: int = SESSIONS) -> dict:
    """Run the load scenario; returns the ``serve_load`` record."""
    source = SpecSource.from_estelle_file(SPEC_PATH)
    reference_bytes, reference = reference_trace_bytes(source)

    engine = SessionEngine()
    started = time.perf_counter()

    spawn_latencies = []
    ids = []
    for _ in range(sessions):
        op_started = time.perf_counter()
        ids.append(engine.create_session(source))
        spawn_latencies.append((time.perf_counter() - op_started) * 1e3)
    spawned = time.perf_counter()

    # Drive all sessions to quiescence, a timeslice at a time, measuring the
    # latency of each step operation (the service's unit of work) from the
    # caller's side — queueing on the pool included, like a client would see.
    step_latencies = []
    live = set(ids)
    sweeps = 0

    def step_one(sid: str):
        op_started = time.perf_counter()
        health = engine.step(sid, rounds=SLICE_ROUNDS)
        return sid, health, (time.perf_counter() - op_started) * 1e3

    with ThreadPoolExecutor(max_workers=8) as pool:
        while live:
            sweeps += 1
            for sid, health, latency in pool.map(step_one, sorted(live)):
                step_latencies.append(latency)
                if health["stop_reason"] == "quiescent":
                    live.discard(sid)
    finished = time.perf_counter()

    sample = ids[:: max(1, len(ids) // EQUIVALENCE_SAMPLE)][:EQUIVALENCE_SAMPLE]
    divergence = None
    for sid in sample:
        trace = engine._session(sid).executor.trace
        if canonical_trace_bytes(trace) != reference_bytes:
            divergence = f"{sid}: {trace_diff(reference, trace)}"
            break

    stats = engine.stats()
    entry = stats["registry"]["specs"][0]
    engine.shutdown()

    total_seconds = finished - started
    return {
        "workload": str(SPEC_PATH.relative_to(SPEC_PATH.parents[2])),
        "sessions": sessions,
        "peak_sessions": stats["peak_sessions"],
        "slice_rounds": SLICE_ROUNDS,
        "sweeps": sweeps,
        "spawn_seconds": spawned - started,
        "drive_seconds": finished - spawned,
        "total_seconds": total_seconds,
        "sessions_per_sec": sessions / total_seconds if total_seconds > 0 else 0.0,
        "p50_latency_ms": percentile(step_latencies, 0.50),
        "p99_latency_ms": percentile(step_latencies, 0.99),
        "spawn_p50_ms": percentile(spawn_latencies, 0.50),
        "spawn_p99_ms": percentile(spawn_latencies, 0.99),
        "step_operations": len(step_latencies),
        "registry_compile_count": entry["compile_count"],
        "registry_instantiations": entry["instantiations"],
        "compile_once": entry["compile_count"] == 1,
        "equivalence_sample": len(sample),
        "sampled_traces_identical": divergence is None,
        "trace_divergence": divergence,
        "sessions_per_sec_floor": SESSIONS_PER_SEC_FLOOR,
    }


# -- pytest gates (run by run_all.py / CI with --benchmark-disable) -------------

_RESULTS_CACHE = {}


def _results() -> dict:
    if "record" not in _RESULTS_CACHE:
        _RESULTS_CACHE["record"] = serve_load_results()
    return _RESULTS_CACHE["record"]


def test_sustains_target_population():
    record = _results()
    assert record["peak_sessions"] >= min(1000, SESSIONS), (
        f"peak concurrent sessions {record['peak_sessions']} below target"
    )
    assert record["sessions_per_sec"] >= SESSIONS_PER_SEC_FLOOR, (
        f"throughput {record['sessions_per_sec']:.1f}/s below the "
        f"{SESSIONS_PER_SEC_FLOOR}/s floor"
    )


def test_compile_once_contract():
    record = _results()
    assert record["compile_once"], (
        "registry compiled the spec "
        f"{record['registry_compile_count']}x for "
        f"{record['registry_instantiations']} instantiations"
    )


def test_sampled_traces_identical():
    record = _results()
    assert record["sampled_traces_identical"], record["trace_divergence"]


if __name__ == "__main__":
    import json

    print(json.dumps(serve_load_results(), indent=2))
