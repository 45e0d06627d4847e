"""Per-layer probes of the traced pass (layer = module name under ``src/repro``).

Every probe measures one layer **from outside** — by timing calls into its
public functions under a span and by reading the ``repro.obs`` series the
program already publishes (an ``obs=`` registry, ``GET /metrics``) — on the
workload's own generated text.  A layer is probed on every workload, also
where the workload's end-to-end path does not cross it (the mesh for an
``inproc_*`` input, the HTTP front for a ``mesh_*`` input): the numbers then
say what that layer *would* cost this input, and the README's table says which
end-to-end metric each is expected to move.

End-to-end numbers never come from here.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.estelle.frontend import compile_source, compile_template, parse_source
from repro.obs import Observability
from repro.runtime import (
    InProcessBackend,
    SequentialMapping,
    SpecificationExecutor,
    SpecSource,
    compile_plan_program,
    compile_specification,
    dispatch_by_name,
)
from repro.runtime.parallel import RoutedMessage, canonical_trace_bytes, trace_diff, transport_by_name
from repro.runtime.planner import plan_code_cache_info
from repro.serve import SessionEngine, SpecRegistry

import execdrive
import servedrive
from execdrive import histogram_sum, labelled_values, series_value
from metrics import median
from spans import SpanRecorder
from workloads import Workload

API_MAX_STEPS = 12


@dataclass(frozen=True)
class Effort:
    """How many samples each probe takes."""

    repeats: int = 5
    fresh_connections: int = 8
    healthz_requests: int = 20
    transport_rounds: int = 200
    registry_hits: int = 200
    mesh_warmups: int = 2


FULL = Effort()
QUICK = Effort(repeats=1, fresh_connections=2, healthz_requests=3, transport_rounds=20, registry_hits=20, mesh_warmups=0)


class Readings(Dict[str, Tuple[float, int]]):
    """``name -> (value, sample count)``, plus what failed verification."""

    def __init__(self) -> None:
        super().__init__()
        self.errors: List[str] = []

    def put(self, name: str, value: float, n: int = 1) -> None:
        self[name] = (value, n)


def timed(recorder: SpanRecorder, name: str, layer: str, call: Callable, repeats: int):
    """``(median seconds, last result)`` of ``call`` under a span."""
    seconds: List[float] = []
    result = None
    for _ in range(repeats):
        with recorder.span(name, layer) as span:
            result = call()
        seconds.append(span.duration)
    return median(seconds), result


def frontend_and_codegen(workload: Workload, recorder: SpanRecorder, repeats: int, out: Readings) -> None:
    text = workload.texts[0]
    parse_s, _ = timed(recorder, "parse_source", "frontend", lambda: parse_source(text), repeats)
    source_s, specification = timed(recorder, "compile_source", "frontend", lambda: compile_source(text), repeats)
    template_s, template = timed(recorder, "compile_template", "frontend", lambda: compile_template(text), repeats)
    instantiate_s, _ = timed(recorder, "SpecificationTemplate.instantiate", "frontend", template.instantiate, repeats)
    codegen_s, program = timed(recorder, "compile_specification", "codegen", lambda: compile_specification(specification), repeats)
    plan_s, _ = timed(recorder, "compile_plan_program", "planner", lambda: compile_plan_program(specification), repeats)
    out.put("frontend.parse_ms", parse_s * 1e3, repeats)
    out.put("frontend.compile_source_ms", source_s * 1e3, repeats)
    out.put("frontend.compile_template_ms", template_s * 1e3, repeats)
    out.put("frontend.instantiate_ms", instantiate_s * 1e3, repeats)
    out.put("frontend.source_bytes", len(text.encode()))
    out.put("codegen.compile_specification_ms", codegen_s * 1e3, repeats)
    out.put("codegen.generated_source_bytes", len(program.source().encode()))
    out.put("planner.compile_plan_program_ms", plan_s * 1e3, repeats)


def _executor_run(workload: Workload, recorder: SpanRecorder, dispatch: str):
    """One in-process run through the executor's public constructor and
    ``run()``, with a live registry: ``(construct s, run s, obs, executor)``."""
    specification = compile_source(workload.texts[0])
    obs = Observability()
    with recorder.span(f"SpecificationExecutor({dispatch})", "executor") as construct:
        executor = SpecificationExecutor(
            specification,
            execdrive.cluster_of(workload.machines),
            mapping=SequentialMapping(),
            dispatch=dispatch_by_name(dispatch),
            trace=True,
            obs=obs,
        )
    with recorder.span(f"SpecificationExecutor.run({dispatch})", "executor") as run:
        executor.run(max_rounds=execdrive.MAX_ROUNDS)
    recorder.aggregate(run, "plan", "planner" if dispatch == "planner" else "scheduler", histogram_sum(obs, "repro_executor_plan_seconds"))
    recorder.aggregate(run, "fire", "executor.fire", histogram_sum(obs, "repro_executor_fire_seconds"))
    return construct.duration, run.duration, obs, executor


def executor_planner_scheduler_trace(workload: Workload, recorder: SpanRecorder, repeats: int, out: Readings) -> None:
    """The in-process stack under all three dispatch names; the table-driven
    and generated runs double as the oracle of the planner's trace."""
    constructs, runs, plans, fires = [], [], [], []
    cache_before = plan_code_cache_info()
    for _ in range(repeats):
        construct_s, run_s, obs, executor = _executor_run(workload, recorder, "planner")
        constructs.append(construct_s)
        runs.append(run_s)
        plans.append(histogram_sum(obs, "repro_executor_plan_seconds"))
        fires.append(histogram_sum(obs, "repro_executor_fire_seconds"))
    cache_after = plan_code_cache_info()
    hits = cache_after["hits"] - cache_before["hits"]
    lookups = hits + cache_after["misses"] - cache_before["misses"]
    rounds = series_value(obs, "repro_executor_rounds_total")
    firings = series_value(obs, "repro_executor_firings_total")
    out.put("executor.construct_ms", median(constructs) * 1e3, repeats)
    out.put("executor.run_ms", median(runs) * 1e3, repeats)
    out.put("executor.round_us", median(runs) / rounds * 1e6, repeats)
    out.put("executor.fire_us_per_firing", median(fires) / firings * 1e6, repeats)
    out.put("executor.rounds", rounds)
    out.put("executor.firings", firings)
    out.put("executor.deadline_jumps", series_value(obs, "repro_executor_deadline_jumps_total"))
    out.put("planner.plan_round_us", median(plans) / rounds * 1e6, repeats)
    out.put("planner.rebuilds", series_value(obs, "repro_planner_rebuilds_total"))
    out.put("planner.reuse_ratio", series_value(obs, "repro_planner_reuse_ratio"))
    out.put("planner.code_cache_hit_ratio", hits / lookups if lookups else 0.0, lookups)

    canonical_s, _ = timed(recorder, "canonical_trace_bytes", "trace", lambda: canonical_trace_bytes(executor.trace), repeats)
    out.put("trace.canonical_bytes_ms", canonical_s * 1e3, repeats)
    planner_digest = execdrive.trace_digest(executor.trace)
    matches = 0
    for dispatch in ("table-driven", "generated"):
        _, _, other_obs, other = _executor_run(workload, recorder, dispatch)
        out.put(
            f"scheduler.plan_round_us.{dispatch}",
            histogram_sum(other_obs, "repro_executor_plan_seconds")
            / series_value(other_obs, "repro_executor_rounds_total")
            * 1e6,
        )
        if execdrive.trace_digest(other.trace) == planner_digest:
            matches += 1
        else:
            out.errors.append(f"probe: planner trace differs from {dispatch}: {trace_diff(other.trace, executor.trace)}")
    out.put("trace.sha256_match", matches, 2)


def _ping_pong(name: str, batch: int, rounds: int) -> float:
    """Median round trip (seconds) of one ``batch``-message exchange between
    two endpoints of transport ``name`` in this process."""
    transport = transport_by_name(name)
    transport.open(multiprocessing.get_context("spawn"), [1, 2], pairs=[(1, 2), (2, 1)])
    endpoints = {uid: transport.endpoint_for(uid) for uid in (1, 2)}
    messages = [
        RoutedMessage(index, 0, "r_sess_c1", "wire", "DT", (("seq", index),))
        for index in range(batch)
    ]
    trips: List[float] = []
    try:
        for endpoint in endpoints.values():
            endpoint.connect()
        for round_index in range(1, rounds + 1):
            started = time.perf_counter()
            endpoints[1].send_batch(2, round_index, messages)
            endpoints[2].receive_batch(1, round_index, timeout=10.0)
            endpoints[2].send_batch(1, round_index, messages)
            endpoints[1].receive_batch(2, round_index, timeout=10.0)
            trips.append(time.perf_counter() - started)
    finally:
        for endpoint in endpoints.values():
            endpoint.close()
        transport.close()
    return median(trips)


def backend_worker_transport(workload: Workload, recorder: SpanRecorder, effort: Effort, out: Readings) -> None:
    """The input on the mesh next to the same input in-process.

    The first two mesh runs of a process are slower than the rest (465, 377,
    then 212 ms of spawn/teardown on the ``serve_bulk`` input): a ``mesh_*``
    workload's warm-ups have been through that already, another workload's
    have not, so for those the probe warms the mesh itself.
    """
    with recorder.span("InProcessBackend.execute", "executor"):
        inproc_wall, inproc = execdrive.execute(workload, InProcessBackend())
    for _ in range(0 if workload.kind == "mesh" else effort.mesh_warmups):
        execdrive.execute(workload, execdrive.mesh_backend(workload))
    obs = Observability()
    with recorder.span("MultiprocessBackend.execute", "backend") as span:
        wall, result = execdrive.execute(workload, execdrive.mesh_backend(workload), obs=obs)
    loop_s = result.wall_seconds
    busy = labelled_values(obs, "repro_parallel_unit_busy_seconds_total")
    sync = labelled_values(obs, "repro_parallel_unit_sync_seconds_total")
    recorder.aggregate(span, "spawn + rebuild + teardown", "backend.spawn_teardown", wall - loop_s)
    loop = recorder.aggregate(span, "round loop", "backend.loop", loop_s)
    recorder.aggregate(loop, "busiest worker firing", "worker", max(busy))
    divergence = trace_diff(inproc.trace, result.trace)
    if divergence is not None:
        out.errors.append(f"probe: mesh trace differs from in-process: {divergence}")
    batches = obs.registry.get("repro_parallel_batch_size")
    batch_mean = batches.sum / batches.count if batches.count else 0.0
    out.put("backend.execute_ms", wall * 1e3)
    out.put("backend.loop_ms", loop_s * 1e3)
    out.put("backend.spawn_teardown_ms", (wall - loop_s) * 1e3)
    out.put("backend.loop_us_per_round", loop_s / result.rounds * 1e6, result.rounds)
    out.put("backend.coord_overhead_us_per_round", (loop_s - max(busy)) / result.rounds * 1e6, result.rounds)
    out.put("backend.barrier_rounds", series_value(obs, "repro_parallel_barrier_rounds_total"))
    out.put("backend.lookahead_rounds", series_value(obs, "repro_parallel_lookahead_rounds_total"))
    out.put("backend.slowdown_vs_inproc", wall / inproc_wall)
    out.put("worker.busy_s_max", max(busy), len(busy))
    out.put("worker.sync_s_max", max(sync), len(sync))
    out.put("worker.busy_share", sum(busy) / (sum(busy) + sum(sync)), len(busy))
    out.put("transport.messages", series_value(obs, "repro_parallel_messages_total"))
    out.put("transport.batch_size_mean", batch_mean, batches.count)
    for name in ("mp-queue", "tcp"):
        with recorder.span(f"{name} ping-pong", "transport"):
            out.put(f"transport.{name}.batch_rtt_us", _ping_pong(name, max(1, round(batch_mean)), effort.transport_rounds) * 1e6, effort.transport_rounds)


def registry_and_engine(workload: Workload, recorder: SpanRecorder, effort: Effort, out: Readings) -> None:
    repeats = effort.repeats
    source = SpecSource.from_estelle_text(workload.texts[0])
    registry = SpecRegistry()
    miss_s, entry = timed(recorder, "SpecRegistry.get (miss)", "registry", lambda: registry.get(source), 1)
    hit_s, _ = timed(recorder, "SpecRegistry.get (hit)", "registry", lambda: registry.get(source), effort.registry_hits)
    instantiate_s, _ = timed(recorder, "CompiledSpec.instantiate", "registry", entry.instantiate, repeats)
    out.put("registry.miss_compile_ms", miss_s * 1e3)
    out.put("registry.hit_us", hit_s * 1e6, effort.registry_hits)
    out.put("registry.instantiate_ms", instantiate_s * 1e3, repeats)
    out.put("registry.compile_count", entry.compile_count)
    # The service's call sequence on a private engine in this process.
    with SessionEngine(registry=registry) as engine:
        create_s, sid = timed(recorder, "SessionEngine.create_session", "engine", lambda: engine.create_session(source), 1)
        steps: List[float] = []
        while True:
            with recorder.span("SessionEngine.step", "engine") as span:
                health = engine.step(sid, rounds=workload.step_rounds)
            steps.append(span.duration)
            if health["quiescent"]:
                break
        stream_s, (events, _) = timed(recorder, "SessionEngine.stream_firings", "engine", lambda: engine.stream_firings(sid, since=0), repeats)
        close_s, _ = timed(recorder, "SessionEngine.close_session", "engine", lambda: engine.close_session(sid), 1)
    out.put("engine.create_session_ms", create_s * 1e3)
    out.put("engine.step_p50_ms", median(steps) * 1e3, len(steps))
    out.put("engine.step_us_per_firing", sum(steps) / len(events) * 1e6, len(events))
    out.put("engine.stream_firings_ms", stream_s * 1e3, repeats)
    out.put("engine.close_session_ms", close_s * 1e3)


def api_and_obs(workload: Workload, recorder: SpanRecorder, effort: Effort, out: Readings) -> None:
    """The HTTP front on a fresh server: empty-request floor, one (truncated)
    lifecycle, the same step over fresh connections, and ``GET /metrics``."""
    text = workload.texts[0]
    server = servedrive.ServerProcess()
    try:
        with servedrive.Client(server.port, recorder) as client:
            healthz = [client.request("GET", "/healthz")[2] for _ in range(effort.healthz_requests)]
            latencies: Dict[str, List[float]] = defaultdict(list)
            _, sizes = servedrive.lifecycle(client, workload, 0, latencies, max_steps=API_MAX_STEPS)
            sid = json.loads(client.request("POST", "/sessions", {"spec_text": text})[1])["session_id"]
        fresh: List[float] = []
        for _ in range(effort.fresh_connections):
            started = time.perf_counter()
            with servedrive.Client(server.port, recorder) as one_shot:
                one_shot.request("POST", f"/sessions/{sid}/step", {"rounds": workload.step_rounds})
            fresh.append(time.perf_counter() - started)
        with servedrive.Client(server.port, recorder) as client:
            client.request("DELETE", f"/sessions/{sid}")
            renders = [client.request("GET", "/metrics") for _ in range(3)]
        exposition = renders[-1][1].decode()
    finally:
        out.errors += server.stop()
    step_count = servedrive.scrape(exposition, "repro_serve_step_seconds_count")
    server_step_ms = servedrive.scrape(exposition, "repro_serve_step_seconds_sum") / step_count * 1e3
    requests = servedrive.scrape(exposition, "repro_serve_http_requests_total")
    ok = sum(
        servedrive.scrape(exposition, "repro_serve_http_requests_total", status=code)
        for code in ("200", "201")
    )
    step_p50_ms = median(latencies["step"]) * 1e3
    out.put("api.healthz_p50_ms", median(healthz) * 1e3, len(healthz))
    out.put("api.step_p50_ms", step_p50_ms, len(latencies["step"]))
    out.put("api.http_overhead_ms", step_p50_ms - server_step_ms, len(latencies["step"]))
    out.put("api.fresh_connection_p50_ms", median(fresh) * 1e3, len(fresh))
    out.put("api.firings_reply_p50_ms", median(latencies["firings"]) * 1e3, len(latencies["firings"]))
    out.put("api.firings_reply_bytes_mean", sum(sizes) / len(sizes), len(sizes))
    out.put("api.requests", requests)
    out.put("api.non2xx", requests - ok)
    out.put("engine.server_step_ms_mean", server_step_ms, int(step_count))
    out.put("obs.metrics_render_ms", median([seconds for _, _, seconds in renders]) * 1e3, len(renders))


def probe_all(workload: Workload, recorder: SpanRecorder, effort: Effort = FULL) -> Readings:
    """Every per-layer metric except ``obs.traced_overhead_ratio`` (which the
    two windows of the traced pass give)."""
    out = Readings()
    frontend_and_codegen(workload, recorder, effort.repeats, out)
    executor_planner_scheduler_trace(workload, recorder, min(effort.repeats, 2), out)
    backend_worker_transport(workload, recorder, effort, out)
    registry_and_engine(workload, recorder, effort, out)
    api_and_obs(workload, recorder, effort, out)
    return out
