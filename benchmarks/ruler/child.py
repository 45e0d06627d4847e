"""The workload subprocess: set-up, one measured pass, verification.

``run.py`` starts one of these per pass (and a few more with ``--phase setup``
that stop after set-up, so ``setup_s`` is a median).  The last line of stdout
is one JSON document; everything a pass starts is reaped before it exits.

Untraced pass (``--trace 0``): warm-ups, one measured window with spans off,
then the oracle run and verification — the end-to-end metrics.

Traced pass (``--trace 1``): warm-ups, a short untraced window, a short window
with spans on and a live ``Observability`` registry attached, then the layer
probes — the per-layer metrics, the self-time shares and the span file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import hygiene  # noqa: E402
import metrics as catalogue  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: share of ``--seconds`` each of the traced pass's two windows gets; the
#: probes take the rest.
TRACED_WINDOW_SHARE = 0.25
WARMUPS = 2


def entry(name: str, value: float, n: int) -> Dict[str, object]:
    return {"value": value, "unit": catalogue.BY_NAME[name].unit, "n": n}


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Pass:
    """What both workload families share: arguments, the result document."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.workload = workloads.build(args.workload, args.seed, quick=args.quick)
        self.max_ops = 1 if args.quick else None
        self.warmups = 1 if args.quick else WARMUPS
        self.recorder = SpanRecorder()
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.shares: Dict[str, float] = {}

    def put(self, name: str, value: float, n: int) -> None:
        """Record a metric — on the workloads the catalogue lists it for;
        elsewhere the cell stays absent, not 0."""
        if catalogue.BY_NAME[name].applies_to(self.workload.name):
            self.metrics[name] = entry(name, value, n)

    def setup_done(self) -> float:
        return time.monotonic() - self.args.spawned_at

    def traced_window_seconds(self) -> float:
        return self.args.seconds * TRACED_WINDOW_SHARE

    def finish_traced(self, traced_rate: float, plain_rate: float) -> None:
        """Close the traced window (its spans alone give the self-time
        shares), then run the layer probes and write every span out."""
        import layers

        self.put("obs.traced_overhead_ratio", traced_rate / plain_rate, 1)
        self.shares = self.recorder.self_shares()
        readings = layers.probe_all(self.workload, self.recorder, layers.QUICK if self.args.quick else layers.FULL)
        for name, (value, n) in readings.items():
            self.put(name, value, n)
        # A probe whose output disagrees with its reference is a failed op
        # too: planner vs table-driven, planner vs generated, mesh vs in-process.
        self.attempted += 3
        self.failed += len(readings.errors)
        self.errors += readings.errors
        out = Path(self.args.out)
        out.mkdir(parents=True, exist_ok=True)
        self.recorder.write_chrome(str(out / f"spans-{self.workload.name}-seed{self.args.seed}.json"))

    def document(self, setup_s: float) -> Dict[str, object]:
        if not self.args.trace:  # end-to-end numbers never come from the traced pass
            self.put("failed_share", self.failed / self.attempted, self.attempted)
        found = hygiene.leaks()
        return {
            "workload": self.workload.name,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "seconds": self.args.seconds,
            "setup_s": setup_s,
            "correct": self.failed == 0 and not found,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "leaks": found,
            "metrics": self.metrics,
            "self_time_shares": self.shares,
            "loadavg_end": list(os.getloadavg()),
        }


def exec_pass(run: Pass) -> Dict[str, object]:
    from repro.estelle.frontend import compile_source
    from repro.obs import Observability

    import execdrive

    workload, args = run.workload, run.args
    compile_source(workload.texts[0])  # compile the spec once: the generator's output is valid
    backend = execdrive.backend_for(workload)
    for _ in range(run.warmups):
        execdrive.execute(workload, backend)
    setup_s = run.setup_done()
    if args.phase == "setup":
        return {"setup_s": setup_s}

    if not args.trace:
        window = execdrive.run_window(workload, args.seconds, max_ops=run.max_ops)
        # Peak RSS of the processes that are the system, read before the
        # oracle run: this process, plus the largest mesh worker.
        rss = _maxrss_mb(resource.RUSAGE_SELF)
        if workload.kind == "mesh":
            rss += _maxrss_mb(resource.RUSAGE_CHILDREN)
        windows = [window]
        ops = len(window.op_walls)
        if ops:
            overheads = [wall - loop for wall, loop in zip(window.op_walls, window.loop_walls)]
            run.put("firings_per_s", window.firings / window.busy_s, ops)
            run.put("run_wall_ms", catalogue.median(window.op_walls) * 1e3, ops)
            run.put("mesh_overhead_ms", catalogue.median(overheads) * 1e3, ops)
        run.put("peak_rss_mb", rss, 1)
    else:
        seconds = run.traced_window_seconds()
        plain = execdrive.run_window(workload, seconds, max_ops=run.max_ops)
        traced = execdrive.run_window(workload, seconds, run.recorder, Observability(), max_ops=run.max_ops)
        windows = [plain, traced]
        run.finish_traced(traced.firings / traced.busy_s, plain.firings / plain.busy_s)
    failed, errors = execdrive.verify(workload, windows, corrupt=args.corrupt_oracle)
    run.attempted += sum(window.attempted for window in windows)
    run.failed += failed
    run.errors += errors
    return run.document(setup_s)


def serve_pass(run: Pass) -> Dict[str, object]:
    import servedrive

    workload, args = run.workload, run.args
    server = servedrive.ServerProcess()
    try:
        with servedrive.Client(server.port) as client:
            # The first session of every distinct text exists before the
            # window opens: the registry misses are set-up, not traffic.
            for index in range(max(run.warmups, len(workload.texts))):
                servedrive.lifecycle(client, workload, index % len(workload.texts), defaultdict(list))
        setup_s = run.setup_done()
        if args.phase == "setup":
            return {"setup_s": setup_s}
        # The oracle runs in this process, between set-up and the window:
        # part of neither, and nothing of it touches the server.
        oracles, oracle_errors = servedrive.oracle_events(workload, corrupt=args.corrupt_oracle)

        if not args.trace:
            window = servedrive.run_window(server.port, workload, oracles, args.seconds, max_ops=run.max_ops)
            windows = [window]
            done = len(window.session_walls)
            if done:
                steps, creates, reads = (window.latencies[kind] for kind in ("step", "create", "firings"))
                run.put("firings_per_s", window.events_per_s, done)
                run.put("sessions_per_s", window.sessions_per_s, done)
                run.put("run_wall_ms", catalogue.median(window.session_walls) * 1e3, done)
                run.put("step_p50_ms", catalogue.median(steps) * 1e3, len(steps))
                run.put("step_p95_ms", catalogue.percentile(steps, 95) * 1e3, len(steps))
                run.put("create_p50_ms", catalogue.median(creates) * 1e3, len(creates))
                run.put("firings_reply_p50_ms", catalogue.median(reads) * 1e3, len(reads))
                if catalogue.supported_tail(len(steps)) == 99:  # ungated, once the sample supports it
                    run.metrics["step_p99_ms"] = {"value": catalogue.percentile(steps, 99) * 1e3, "unit": "ms", "n": len(steps)}
            run.put("peak_rss_mb", server.peak_rss_mb(), 1)
        else:
            seconds = run.traced_window_seconds()
            plain = servedrive.run_window(server.port, workload, oracles, seconds, max_ops=run.max_ops)
            with servedrive.Client(server.port) as client:
                before = client.request("GET", "/metrics")[1].decode()
            traced = servedrive.run_window(server.port, workload, oracles, seconds, run.recorder, max_ops=run.max_ops)
            with servedrive.Client(server.port) as client:
                after = client.request("GET", "/metrics")[1].decode()
            # The server-side share of each traced step request, known only
            # as a total: spread it evenly over the step spans.
            step_spans = [span for span in run.recorder.spans if span.name.endswith("/step")]
            stepping = servedrive.scrape(after, "repro_serve_step_seconds_sum") - servedrive.scrape(
                before, "repro_serve_step_seconds_sum"
            )
            for span in step_spans:
                run.recorder.aggregate(span, "engine step (server-side mean)", "engine", stepping / len(step_spans))
            windows = [plain, traced]
        with servedrive.Client(server.port) as client:
            counts = servedrive.compile_counts(client)
    finally:
        stop_leaks = server.stop()
    if args.trace:
        run.finish_traced(traced.events_per_s, plain.events_per_s)
    failed, errors = servedrive.verify(workload, windows, counts)
    run.attempted += sum(window.attempted for window in windows) + 1  # + the compile-count check
    run.failed += failed + len(stop_leaks) + len(oracle_errors)
    run.errors += oracle_errors + errors + stop_leaks
    return run.document(setup_s)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--phase", choices=("setup", "run"), default="run")
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() of the parent at spawn")
    parser.add_argument("--out", required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--corrupt-oracle", action="store_true")
    args = parser.parse_args(argv)

    run = Pass(args)
    document = serve_pass(run) if run.workload.kind == "serve" else exec_pass(run)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
