"""The obs layer as wired into the runtime and the serve layer.

``test_obs_core.py`` proves the instruments work; this file proves the
*instrumentation* does — that the executor, planner, and session engine
actually record what they claim into a live registry, that events narrate
the lifecycle, and that the consolidated ``stats()``/``/metrics`` views
agree because they read the same state.
"""

from pathlib import Path

import pytest

from repro.obs import Observability, RingBufferSink
from repro.runtime import GroupedMapping, InProcessBackend, SpecSource
from repro.runtime.planner import plan_code_cache_info
from repro.serve import SessionEngine
from repro.serve.api import ServeAPI, _route_template
from repro.sim import Cluster, Machine
from repro.sim.metrics import ExecutionMetrics, STOP_REASONS

SPEC_DIR = Path(__file__).parent.parent / "examples" / "specs"
MCAM_CORE = SPEC_DIR / "mcam_core.estelle"
XMOVIE = SPEC_DIR / "xmovie_stream.estelle"
MCAM_SESSIONS = SPEC_DIR / "mcam_sessions.estelle"
OSI_TRANSFER = SPEC_DIR / "osi_transfer.estelle"


def two_machine_cluster(processors: int = 2) -> Cluster:
    cluster = Cluster()
    cluster.add(Machine("ksr1", processors))
    cluster.add(Machine("client-ws-1", processors))
    return cluster


def run_observed(spec_path, dispatch="table-driven"):
    obs = Observability()
    ring = obs.events.attach(RingBufferSink())
    result = InProcessBackend().execute(
        SpecSource.from_estelle_file(spec_path),
        two_machine_cluster(),
        mapping=GroupedMapping(),
        dispatch=dispatch,
        obs=obs,
    )
    return obs, ring, result


class TestExecutorInstrumentation:
    def test_counters_match_execution_metrics(self):
        obs, _, result = run_observed(MCAM_CORE)
        registry = obs.registry
        assert registry.get("repro_executor_rounds_total").value == result.rounds
        assert (
            registry.get("repro_executor_firings_total").value
            == result.transitions_fired
        )

    def test_stop_reason_labelled_counter(self):
        obs, _, result = run_observed(MCAM_CORE)
        stops = obs.registry.get("repro_executor_stops_total")
        reason = result.metrics.stop_reason
        assert reason in STOP_REASONS
        assert stops.labels(reason=reason).value == 1.0

    def test_phase_histograms_observe_every_round(self):
        obs, _, result = run_observed(MCAM_CORE)
        # One plan per round, plus the final (empty) plan that stops the run.
        assert obs.registry.get("repro_executor_plan_seconds").count >= result.rounds
        assert obs.registry.get("repro_executor_fire_seconds").count == result.rounds

    def test_lifecycle_events_narrate_the_run(self):
        _, ring, result = run_observed(MCAM_CORE)
        assert len(ring.events("round_start")) == result.rounds
        assert len(ring.events("round_end")) == result.rounds
        (stop,) = ring.events("run_stop")
        assert stop["stop_reason"] == result.metrics.stop_reason
        assert stop["rounds"] == result.rounds
        fired = sum(e["fired"] for e in ring.events("round_end"))
        assert fired == result.transitions_fired

    def test_deadline_jumps_counted_and_narrated(self):
        """The delay-paced workload forces clock jumps; each is one counter
        tick and one event, and the event's times move forward."""
        obs, ring, _ = run_observed(XMOVIE)
        jumps = obs.registry.get("repro_executor_deadline_jumps_total").value
        events = ring.events("deadline_jump")
        assert jumps == len(events) > 0
        for event in events:
            assert event["to_time"] > event["from_time"]


class TestPlannerInstrumentation:
    def test_reuse_ratio_is_derived_from_the_counters(self):
        obs, _, result = run_observed(MCAM_CORE, dispatch="planner")
        registry = obs.registry
        # One plan per round, plus the empty plan that finds quiescence.
        assert registry.get("repro_planner_rounds_total").value == result.rounds + 1
        evaluated = registry.get("repro_planner_evaluated_total").value
        reused = registry.get("repro_planner_reused_total").value
        ratio = registry.get("repro_planner_reuse_ratio").value
        assert evaluated > 0
        assert ratio == pytest.approx(reused / (evaluated + reused))

    def test_counters_equal_stats_across_interval_flushes(self):
        """Past two flush intervals the registry counters still equal the
        planner's own stats — right after every flush, and after ``run()``
        — so no flush may re-add what an earlier one sent.  The osi stack
        with long transfers plans > 2 intervals of rounds without an empty
        plan; a delay-bearing spec (xmovie) plans empty, and so flushes,
        every few rounds and never reaches an interval flush."""
        from repro.runtime import SpecificationExecutor, dispatch_by_name
        from repro.runtime.planner import _METRICS_FLUSH_INTERVAL

        text = OSI_TRANSFER.read_text()
        assert "to_send := 6 " in text
        obs = Observability()
        executor = SpecificationExecutor(
            SpecSource.from_estelle_text(
                text.replace("to_send := 6 ", "to_send := 60 ")
            ).build(),
            two_machine_cluster(),
            mapping=GroupedMapping(),
            dispatch=dispatch_by_name("planner"),
            obs=obs,
        )
        planner, registry = executor.planner, obs.registry
        names = ("rounds", "evaluated", "reused")

        def counters():
            return [registry.get(f"repro_planner_{n}_total").value for n in names]

        def stats():
            return [getattr(planner.stats, n) for n in names]

        flushed_at = [0]
        flush = planner.flush_metrics

        def checked_flush():
            flush()
            assert counters() == stats()
            flushed_at.append(planner.stats.rounds)

        planner.flush_metrics = checked_flush
        executor.run()
        assert counters() == stats()
        gaps = [b - a for a, b in zip(flushed_at, flushed_at[1:])]
        assert gaps.count(_METRICS_FLUSH_INTERVAL) >= 2, flushed_at

    def test_rebuild_counted_and_epoch_event_emitted(self):
        obs, ring, _ = run_observed(MCAM_CORE, dispatch="planner")
        assert obs.registry.get("repro_planner_rebuilds_total").value >= 1
        epochs = ring.events("structure_epoch")
        # The initial build is epoch 0; topology changes bump it from there.
        assert epochs and epochs[0]["epoch"] >= 0
        assert epochs[0]["modules"] >= 1

    def test_code_cache_gauges_mirror_cache_info(self):
        obs, _, _ = run_observed(MCAM_CORE, dispatch="planner")
        info = plan_code_cache_info()
        assert {"entries", "limit", "hits", "misses"} <= set(info)
        registry = obs.registry
        assert registry.get("repro_planner_code_cache_entries").value == info["entries"]
        assert registry.get("repro_planner_code_cache_hits").value == info["hits"]
        assert registry.get("repro_planner_code_cache_misses").value == info["misses"]


class TestServeInstrumentation:
    def test_engine_defaults_to_live_observability(self):
        engine = SessionEngine()
        try:
            assert engine.obs.enabled
        finally:
            engine.shutdown()

    def test_session_lifecycle_metrics(self):
        engine = SessionEngine()
        try:
            source = SpecSource.from_estelle_file(MCAM_SESSIONS)
            sids = [engine.create_session(source) for _ in range(3)]
            registry = engine.obs.registry
            assert registry.get("repro_serve_spawn_seconds").count == 3
            assert registry.get("repro_serve_sessions_active").value == 3.0
            assert registry.get("repro_serve_sessions_created_total").value == 3.0
            engine.close_session(sids[0])
            assert registry.get("repro_serve_sessions_active").value == 2.0
            assert registry.get("repro_serve_sessions_closed_total").value == 1.0
            assert registry.get("repro_serve_sessions_peak").value == 3.0
        finally:
            engine.shutdown()

    def test_step_all_thread_pool_increments_shared_counters(self):
        """All sessions share the engine's registry; concurrent step_all
        sweeps must aggregate without losing updates."""
        engine = SessionEngine()
        try:
            source = SpecSource.from_estelle_file(MCAM_SESSIONS)
            for _ in range(6):
                engine.create_session(source)
            registry = engine.obs.registry
            sweeps = 3
            for _ in range(sweeps):
                healths = engine.step_all(rounds=2)
                assert len(healths) == 6
            total_rounds = sum(
                engine.health(sid)["rounds"] for sid in engine.session_ids()
            )
            assert registry.get("repro_executor_rounds_total").value == total_rounds
            assert registry.get("repro_serve_step_seconds").count == 6 * sweeps
        finally:
            engine.shutdown()

    def test_session_events_emitted(self):
        engine = SessionEngine()
        ring = engine.obs.events.attach(RingBufferSink())
        try:
            source = SpecSource.from_estelle_file(MCAM_SESSIONS)
            sid = engine.create_session(source)
            engine.step(sid, rounds=2)
            engine.close_session(sid)
            (created,) = ring.events("session_create")
            assert created["session_id"] == sid
            (closed,) = ring.events("session_close")
            assert closed["session_id"] == sid
            assert closed["rounds"] >= 1
        finally:
            engine.shutdown()

    def test_stats_carries_obs_and_cache_blocks(self):
        """The consolidated stats(): old keys intact, plus the obs block and
        the planner code cache — all reading the same state /metrics reads."""
        engine = SessionEngine()
        try:
            stats = engine.stats()
            assert {"active_sessions", "peak_sessions", "sessions_created"} <= set(
                stats
            )
            assert stats["obs"]["enabled"] is True
            assert {"entries", "limit", "hits", "misses"} <= set(
                stats["plan_code_cache"]
            )
            # /stats and /metrics cannot disagree: both read the live ints.
            assert (
                engine.obs.registry.get("repro_serve_sessions_created_total").value
                == stats["sessions_created"]
            )
        finally:
            engine.shutdown()

    def test_http_request_counter_by_route_template(self):
        api = ServeAPI()
        try:
            api.note_request("GET", "/sessions/{id}", 200)
            api.note_request("GET", "/sessions/{id}", 200)
            api.note_request("POST", "/sessions", 201)
            family = api.engine.obs.registry.get("repro_serve_http_requests_total")
            assert family.labels(method="GET", route="/sessions/{id}", status="200").value == 2.0
            assert family.labels(method="POST", route="/sessions", status="201").value == 1.0
            rendered = api.metrics()
            assert 'repro_serve_http_requests_total{method="GET"' in rendered
        finally:
            api.engine.shutdown()

    def test_route_templates_bound_label_cardinality(self):
        assert _route_template("/metrics") == "/metrics"
        assert _route_template("/sessions") == "/sessions"
        assert _route_template("/sessions/abc-123") == "/sessions/{id}"
        assert _route_template("/sessions/abc-123/step") == "/sessions/{id}/step"
        assert _route_template("/sessions/x/firings") == "/sessions/{id}/firings"
        assert _route_template("/favicon.ico") == "<unmatched>"


class TestSummaryRegression:
    def test_summary_reports_stop_reason_and_work_utilisation(self):
        metrics = ExecutionMetrics(
            elapsed_time=10.0, transition_time=6.0, scheduler_time=2.0
        )
        metrics.stop_reason = "quiescent"
        summary = metrics.summary()
        assert summary["stop_reason"] == "quiescent"
        assert summary["work_utilisation"] == pytest.approx(0.8)

    def test_summary_before_any_run_is_safe(self):
        summary = ExecutionMetrics().summary()
        assert summary["stop_reason"] == ""
        assert summary["work_utilisation"] == 0.0

    def test_live_run_summary_round_trips_through_the_executor(self):
        _, _, result = run_observed(MCAM_CORE)
        summary = result.metrics.summary()
        assert summary["stop_reason"] in STOP_REASONS
        assert summary["work_utilisation"] > 0.0


class TestDescribeRegression:
    def test_describe_includes_simulated_time_per_firing(self):
        _, _, result = run_observed(XMOVIE)
        text = result.trace.describe(max_rounds=5)
        firing_lines = [line for line in text.splitlines() if line.startswith("    ")]
        assert firing_lines
        assert all(" t=" in line for line in firing_lines)
