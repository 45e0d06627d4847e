"""CLI for the session service: serve over HTTP, or run the smoke self-check.

Serve (the deployment entrypoint — the Dockerfile runs exactly this)::

    PYTHONPATH=src python -m repro.serve --host 0.0.0.0 --port 8070

Smoke mode (what the ``serve-smoke`` CI job runs): boot an engine, spawn N
sessions of one spec, step them interleaved to quiescence, and assert

* the registry compiled the source exactly once (compile-once contract),
* every session's canonical trace is byte-identical to a sequential
  reference run of the same source (isolation contract),
* shutdown leaves zero active sessions (clean-teardown contract).

::

    PYTHONPATH=src python -m repro.serve --smoke 50 \
        --spec examples/specs/mcam_sessions.estelle
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

DEFAULT_SPEC = str(
    Path(__file__).resolve().parents[3]
    / "examples"
    / "specs"
    / "mcam_sessions.estelle"
)


def smoke(spec_path: str, sessions: int, rounds_per_slice: int) -> int:
    from ..runtime.executor import SpecSource
    from ..runtime.parallel.trace import canonical_trace_bytes, trace_diff
    from .engine import SessionEngine

    source = SpecSource.from_estelle_file(spec_path)

    # Sequential reference: one session, run to quiescence on its own engine.
    with SessionEngine() as reference_engine:
        ref_id = reference_engine.create_session(source)
        reference_engine.run_to_quiescence(ref_id)
        reference_trace = reference_engine._session(ref_id).executor.trace
        reference_bytes = canonical_trace_bytes(reference_trace)

    engine = SessionEngine()
    started = time.perf_counter()
    ids = [engine.create_session(source) for _ in range(sessions)]
    spawn_seconds = time.perf_counter() - started

    # Interleave: timeslice every session until all report quiescence.
    live = set(ids)
    sweeps = 0
    while live:
        sweeps += 1
        for sid, health in engine.step_all(sorted(live), rounds=rounds_per_slice).items():
            if health["stop_reason"] == "quiescent":
                live.discard(sid)

    divergent = []
    for sid in ids:
        trace = engine._session(sid).executor.trace
        if canonical_trace_bytes(trace) != reference_bytes:
            divergent.append((sid, trace_diff(reference_trace, trace)))

    entry_stats = engine.registry.stats()["specs"][0]
    stats = engine.shutdown()

    print(
        f"serve-smoke: {sessions} sessions of {Path(spec_path).name!r} "
        f"spawned in {spawn_seconds * 1e3:.1f} ms, "
        f"interleaved to quiescence in {sweeps} sweeps"
    )
    print(
        f"  registry: compile_count={entry_stats['compile_count']}, "
        f"instantiations={entry_stats['instantiations']}; "
        f"peak_sessions={stats['peak_sessions']}, "
        f"active_after_shutdown={stats['active_sessions']}"
    )

    failures = []
    if entry_stats["compile_count"] != 1:
        failures.append(
            f"compile-once violated: compile_count={entry_stats['compile_count']}"
        )
    if divergent:
        sid, diff = divergent[0]
        failures.append(
            f"{len(divergent)} session trace(s) diverged from the sequential "
            f"reference; first ({sid}): {diff}"
        )
    if stats["active_sessions"] != 0:
        failures.append(
            f"unclean shutdown: {stats['active_sessions']} sessions still active"
        )
    for failure in failures:
        print(f"  FAIL: {failure}")
    if not failures:
        print("  all sessions byte-identical to the reference; clean shutdown")
    return 1 if failures else 0


def serve(
    host: str,
    port: int,
    verbose: bool,
    state_dir=None,
    max_inflight=None,
    max_body_bytes=None,
    step_timeout_s=None,
) -> int:
    from .api import DEFAULT_MAX_BODY_BYTES, make_http_server
    from .engine import SessionEngine

    engine = SessionEngine(state_dir=state_dir, step_timeout_s=step_timeout_s)
    restored = engine.session_ids()
    server = make_http_server(
        host=host,
        port=port,
        engine=engine,
        verbose=verbose,
        max_inflight=max_inflight,
        max_body_bytes=(
            max_body_bytes if max_body_bytes is not None else DEFAULT_MAX_BODY_BYTES
        ),
    )
    if restored:
        print(f"repro.serve restored {len(restored)} session(s) from {state_dir}")
    print(f"repro.serve listening on http://{host}:{server.port} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.api.engine.shutdown()
        server.server_close()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8070, help="bind port")
    parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    parser.add_argument(
        "--smoke",
        type=int,
        metavar="N",
        help="run the N-session self-check instead of serving",
    )
    parser.add_argument(
        "--spec", default=DEFAULT_SPEC, help="spec for --smoke sessions"
    )
    parser.add_argument(
        "--rounds-per-slice",
        type=int,
        default=7,
        help="rounds per interleaving timeslice in --smoke",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        help="directory for session checkpoints (persist on shutdown, "
        "restore on start)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="shed POST requests beyond N in flight with HTTP 429",
    )
    parser.add_argument(
        "--max-body-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="refuse request bodies larger than BYTES with HTTP 413 "
        "(default 1 MiB)",
    )
    parser.add_argument(
        "--step-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per step call (exceeding it returns HTTP 503)",
    )
    args = parser.parse_args(argv)

    if args.smoke is not None:
        return smoke(args.spec, args.smoke, args.rounds_per_slice)
    return serve(
        args.host,
        args.port,
        args.verbose,
        state_dir=args.state_dir,
        max_inflight=args.max_inflight,
        max_body_bytes=args.max_body_bytes,
        step_timeout_s=args.step_timeout,
    )


if __name__ == "__main__":
    sys.exit(main())
