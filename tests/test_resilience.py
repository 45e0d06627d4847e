"""repro.resil (ISSUE 8): fault injection, checkpoint/restore, recovery.

Three layers under test, each against the repo's one oracle — canonical
trace bytes:

* executor checkpoint/restore: snapshot at round k, restore into a fresh
  executor, run on — prefix + suffix must equal the uninterrupted run;
* multiprocess supervised recovery: a :class:`FaultPlan` kills a worker
  at a scheduled round, the coordinator respawns it from its last shard
  checkpoint, and the full run's trace stays byte-identical to the
  fault-free in-process reference;
* engine durability and degradation: state-dir persistence with identical
  trace suffixes across an engine restart, per-session fault injection,
  wall-clock step budgets, and the HTTP front's 413/429 shedding.

Chaos matrix size is environment-tunable: ``CHAOS_MP_EXTRA=N`` adds N
seeded crash schedules on top of the fixed cases.
"""

import json
import os
import pickle
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.faults import (
    ChannelDelay,
    FailingSink,
    FaultPlan,
    InjectedFault,
    SessionFault,
    WorkerCrash,
)
from repro.obs import Observability
from repro.obs.events import JsonlSink
from repro.runtime import (
    GroupedMapping,
    InProcessBackend,
    MultiprocessBackend,
    SpecSource,
    SpecificationExecutor,
    dispatch_by_name,
)
from repro.runtime.checkpoint import CheckpointError
from repro.runtime.tracing import canonical_trace_bytes, trace_diff
from repro.serve import SessionEngine, StepTimeout
from repro.serve.api import make_http_server
from repro.sim import Cluster, Machine

EXAMPLES = Path(__file__).parent.parent / "examples" / "specs"
MCAM_SPEC = EXAMPLES / "mcam_sessions.estelle"
OSI_SPEC = EXAMPLES / "osi_transfer.estelle"
XMOVIE_SPEC = EXAMPLES / "xmovie_stream.estelle"

#: spontaneous two-state loop — never quiescent, for step-budget tests.
TICKER_SPEC = """
specification ticker;

module Loop systemprocess;
end;

body LoopBody for Loop;
  state a , b ;

  initialize to a
  begin
    ticks := 0
  end;

  trans from a to b
    provided true
    name go
    cost 1.0
    begin
      ticks := ticks + 1
    end;

  trans from b to a
    provided true
    name back
    cost 1.0
    begin
      ticks := ticks + 0
    end;
end;

modvar lp : LoopBody at "host-a" ;

end.
"""


def example_cluster() -> Cluster:
    cluster = Cluster()
    for name in ("ksr1", "client-ws-1", "client-ws-2", "sun-1"):
        cluster.add(Machine(name, 2))
    return cluster


def ticker_source() -> SpecSource:
    return SpecSource.from_estelle_text(TICKER_SPEC, filename="<ticker>")


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.empty
        assert plan.crash_rounds_for(1) == frozenset()
        assert plan.send_delays_for(1) == ()

    def test_views_by_unit(self):
        plan = FaultPlan(
            worker_crashes=(WorkerCrash(unit=2, round_index=5),),
            channel_delays=(
                ChannelDelay(source_unit=1, target_unit=2, round_index=3, seconds=0.5),
            ),
        )
        assert not plan.empty
        assert plan.crash_rounds_for(2) == frozenset({5})
        assert plan.crash_rounds_for(1) == frozenset()
        assert plan.send_delays_for(1) == ((2, 3, 0.5),)
        assert plan.send_delays_for(2) == ()

    def test_seeded_is_deterministic_and_bounded(self):
        a = FaultPlan.seeded(11, units=(1, 2, 3), max_round=9, crashes=2)
        b = FaultPlan.seeded(11, units=(1, 2, 3), max_round=9, crashes=2)
        assert a == b
        assert a.worker_crashes  # at least one crash scheduled
        for crash in a.worker_crashes:
            assert crash.unit in (1, 2, 3)
            assert 2 <= crash.round_index <= 9

    def test_seeded_degenerate_inputs(self):
        assert FaultPlan.seeded(1, units=(), max_round=9).empty
        assert FaultPlan.seeded(1, units=(1,), max_round=1).empty


# ---------------------------------------------------------------------------
# Executor snapshot/restore
# ---------------------------------------------------------------------------


class TestExecutorCheckpoint:
    @pytest.mark.parametrize("dispatch", ["table-driven", "planner"])
    def test_restore_resumes_with_identical_suffix(self, dispatch):
        source = SpecSource.from_estelle_file(MCAM_SPEC)

        reference = SpecificationExecutor(
            source.build(),
            example_cluster(),
            dispatch=dispatch_by_name(dispatch),
            trace=True,
        )
        reference.run(max_rounds=200)
        reference_rounds = reference.trace.firings_by_round()

        first = SpecificationExecutor(
            source.build(),
            example_cluster(),
            dispatch=dispatch_by_name(dispatch),
            trace=True,
        )
        first.run(max_rounds=5)
        snapshot = pickle.loads(pickle.dumps(first.snapshot()))
        prefix = first.trace.firings_by_round()

        resumed = SpecificationExecutor(
            source.build(),
            example_cluster(),
            dispatch=dispatch_by_name(dispatch),
            trace=True,
        )
        resumed.restore(snapshot)
        resumed.run(max_rounds=200)

        assert prefix + resumed.trace.firings_by_round() == reference_rounds
        assert resumed.clock.now == reference.clock.now

    def test_restore_rejects_foreign_specification(self):
        source = SpecSource.from_estelle_file(MCAM_SPEC)
        executor = SpecificationExecutor(
            source.build(), example_cluster(), trace=True
        )
        executor.run(max_rounds=3)
        snapshot = executor.snapshot()

        cluster = Cluster()
        cluster.add(Machine("host-a", 2))
        other = SpecificationExecutor(ticker_source().build(), cluster, trace=True)
        with pytest.raises(CheckpointError, match="specification"):
            other.restore(snapshot)


# ---------------------------------------------------------------------------
# Multiprocess crash recovery (chaos differential)
# ---------------------------------------------------------------------------


def _chaos_cases():
    cases = [
        (MCAM_SPEC, FaultPlan(worker_crashes=(WorkerCrash(unit=1, round_index=2),))),
        (MCAM_SPEC, FaultPlan(worker_crashes=(WorkerCrash(unit=3, round_index=4),))),
        (OSI_SPEC, FaultPlan(worker_crashes=(WorkerCrash(unit=4, round_index=2),))),
        # Crash at round 1: no checkpoint exists yet — recovery restarts the
        # shard from its freshly built state.
        (MCAM_SPEC, FaultPlan(worker_crashes=(WorkerCrash(unit=2, round_index=1),))),
    ]
    extra = int(os.environ.get("CHAOS_MP_EXTRA", "0"))
    for seed in range(extra):
        cases.append(
            (
                MCAM_SPEC,
                FaultPlan.seeded(seed, units=(1, 2, 3), max_round=10, crashes=2),
            )
        )
    return cases


class TestSupervisedRecovery:
    @pytest.mark.parametrize(
        "spec_path,plan",
        _chaos_cases(),
        ids=lambda value: getattr(value, "stem", None) or str(value)[:48],
    )
    def test_crashed_worker_recovers_trace_identical(self, spec_path, plan):
        source = SpecSource.from_estelle_file(spec_path)
        reference = InProcessBackend().execute(
            source, example_cluster(), mapping=GroupedMapping(), max_rounds=60
        )
        obs = Observability()
        recovered = MultiprocessBackend().execute(
            source,
            example_cluster(),
            mapping=GroupedMapping(),
            max_rounds=60,
            obs=obs,
            fault_plan=plan,
        )
        assert canonical_trace_bytes(recovered.trace) == canonical_trace_bytes(
            reference.trace
        ), (
            f"replay: {spec_path.name} plan={plan}: "
            + trace_diff(reference.trace, recovered.trace)
        )
        assert recovered.simulated_time == reference.simulated_time
        crashes_in_range = [
            crash
            for crash in plan.worker_crashes
            if crash.round_index <= reference.rounds + 1
        ]
        counter = obs.registry.get("repro_resil_recoveries_total")
        assert counter is not None and counter.value == len(crashes_in_range)

    @pytest.mark.parametrize("supervise", [None, False], ids=["supervised", "unsupervised"])
    @pytest.mark.parametrize(
        "spec_path", [MCAM_SPEC, XMOVIE_SPEC], ids=lambda path: path.stem
    )
    def test_channel_delay_does_not_change_the_trace(self, spec_path, supervise):
        """A late batch is waited for, never overtaken: delivery is paced by
        the round tag on the link, with no barrier to hide behind (a fault
        plan turns supervision on unless ``supervise`` says otherwise)."""
        source = SpecSource.from_estelle_file(spec_path)
        reference = InProcessBackend().execute(
            source, example_cluster(), mapping=GroupedMapping(), max_rounds=60
        )
        plan = FaultPlan(
            channel_delays=tuple(
                ChannelDelay(
                    source_unit=1, target_unit=2, round_index=round_index, seconds=0.1
                )
                for round_index in (2, 3, 5)
            )
        )
        delayed = MultiprocessBackend().execute(
            source,
            example_cluster(),
            mapping=GroupedMapping(),
            max_rounds=60,
            fault_plan=plan,
            supervise=supervise,
        )
        assert canonical_trace_bytes(delayed.trace) == canonical_trace_bytes(
            reference.trace
        )


# ---------------------------------------------------------------------------
# Engine durability (state_dir)
# ---------------------------------------------------------------------------


class TestEnginePersistence:
    @pytest.mark.parametrize("population", [1, 50])
    def test_restart_resumes_with_identical_trace_suffix(self, tmp_path, population):
        source = SpecSource.from_estelle_file(MCAM_SPEC)
        state_dir = str(tmp_path / "state")

        with SessionEngine() as reference_engine:
            ref_id = reference_engine.create_session(source)
            reference_engine.run_to_quiescence(ref_id)
            reference_rounds = reference_engine._session(
                ref_id
            ).executor.trace.firings_by_round()

        first = SessionEngine(state_dir=state_dir)
        ids = [first.create_session(source) for _ in range(population)]
        for sid in ids:
            first.step(sid, rounds=5)
        sid = ids[0]
        prefix = first._session(sid).executor.trace.firings_by_round()
        first.shutdown()  # persists the sessions

        second = SessionEngine(state_dir=state_dir)
        try:
            assert sorted(second.session_ids()) == sorted(ids)
            restored = second.obs.registry.get(
                "repro_resil_sessions_restored_total"
            )
            assert restored is not None and restored.value == population
            health = second.run_to_quiescence(sid)
            assert health["stop_reason"] == "quiescent"
            suffix = second._session(sid).executor.trace.firings_by_round()
            assert prefix + suffix == reference_rounds
            # Serial ids continue past the restored population.
            assert second.create_session(source) == f"s-{population + 1}"
        finally:
            second.shutdown()

    def test_stored_document_naming_a_dispatch_still_resumes(self, tmp_path):
        """Sessions plan one way now (ISSUE 15), but ``CHECKPOINT_VERSION``
        stayed 1: a document a table-driven session wrote before that —
        ``"dispatch"`` key and all — must load, the key ignored, and resume
        to the byte-identical suffix; a newly written one has no such key."""
        from repro.serve.engine import CHECKPOINT_VERSION, SESSION_PROCESSORS
        from repro.sim.machine import cluster_from_placements

        source = SpecSource.from_estelle_file(MCAM_SPEC)

        def table_driven_executor():
            specification = source.build()
            return SpecificationExecutor(
                specification,
                cluster_from_placements(specification, SESSION_PROCESSORS),
                dispatch=dispatch_by_name("table-driven"),
                trace=True,
            )

        reference = table_driven_executor()
        reference.run(max_rounds=10_000)
        writer = table_driven_executor()
        writer.run(max_rounds=5)
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        with open(state_dir / "old.ckpt", "wb") as stream:
            pickle.dump(
                {
                    "version": CHECKPOINT_VERSION,
                    "session_id": "s-7",
                    "source": source,
                    "dispatch": "table-driven",
                    "created_at": 0.0,
                    "snapshot": writer.snapshot(),
                },
                stream,
            )

        engine = SessionEngine(state_dir=str(state_dir))
        try:
            assert engine.session_ids() == ["s-7"]
            assert engine.run_to_quiescence("s-7")["stop_reason"] == "quiescent"
            suffix = engine._session("s-7").executor.trace.firings_by_round()
            assert writer.trace.firings_by_round() + suffix == (
                reference.trace.firings_by_round()
            )
            with open(engine.persist_session("s-7"), "rb") as stream:
                assert "dispatch" not in pickle.load(stream)
        finally:
            engine.shutdown()

    def test_stored_document_with_ip_counters_still_resumes(self, tmp_path):
        """``IPSnapshot`` no longer carries ``received_count``/``sent_count``
        (no reader was left), and the document version did not move: a
        ``.ckpt`` written before, whose IP snapshots still hold both
        attributes, must load and resume to the identical trace suffix."""
        source = SpecSource.from_estelle_file(MCAM_SPEC)
        with SessionEngine() as reference_engine:
            ref_id = reference_engine.create_session(source)
            reference_engine.run_to_quiescence(ref_id)
            reference = reference_engine._session(ref_id).executor.trace

        state_dir = tmp_path / "state"
        first = SessionEngine(state_dir=str(state_dir))
        sid = first.create_session(source)
        first.step(sid, rounds=9)  # two interactions queued at this cut
        prefix = first._session(sid).executor.trace.firings_by_round()
        path = first.persist_session(sid)
        first.shutdown()
        with open(path, "rb") as stream:
            document = pickle.load(stream)
        ip_snapshots = [
            ip for module in document["snapshot"].modules for ip in module.ips
        ]
        assert any(ip.queue for ip in ip_snapshots)
        for ip in ip_snapshots:
            object.__setattr__(ip, "received_count", len(ip.queue) + 3)
            object.__setattr__(ip, "sent_count", 2)
        with open(path, "wb") as stream:
            pickle.dump(document, stream)

        second = SessionEngine(state_dir=str(state_dir))
        try:
            assert second.session_ids() == [sid]
            assert second.run_to_quiescence(sid)["stop_reason"] == "quiescent"
            suffix = second._session(sid).executor.trace.firings_by_round()
            assert prefix + suffix == reference.firings_by_round()
        finally:
            second.shutdown()

    def test_closed_session_checkpoint_is_removed(self, tmp_path):
        state_dir = tmp_path / "state"
        engine = SessionEngine(state_dir=str(state_dir))
        try:
            sid = engine.create_session(ticker_source())
            engine.step(sid, rounds=4)
            engine.persist_session(sid)
            assert list(state_dir.glob("*.ckpt"))
            engine.close_session(sid)
            assert not list(state_dir.glob("*.ckpt"))
        finally:
            engine.shutdown()

    def test_persist_racing_a_close_does_not_resurrect_the_session(
        self, tmp_path, monkeypatch
    ):
        """A ``DELETE`` overlapping ``shutdown()``'s ``persist_all()``: the
        close used to finish (pop, unlink) between the snapshot and the
        rename, so the file written afterwards brought the closed session
        back on the next start.  The write and the unlink now share the
        session's lock."""
        state_dir = tmp_path / "state"
        engine = SessionEngine(state_dir=str(state_dir))
        try:
            sid = engine.create_session(ticker_source())
            engine.step(sid, rounds=4)
            closer = threading.Thread(target=engine.close_session, args=(sid,))
            real_dump = pickle.dump

            def dump_while_closing(document, stream, **options):
                closer.start()
                # Give the close every chance to run ahead of the write; it
                # can only get as far as waiting for the session's lock.
                closer.join(timeout=0.5)
                real_dump(document, stream, **options)

            with monkeypatch.context() as patch:
                patch.setattr(pickle, "dump", dump_while_closing)
                engine.persist_session(sid)
            closer.join(timeout=10)
            assert not closer.is_alive()
            assert engine.session_ids() == []
            assert not list(state_dir.glob("*.ckpt"))
        finally:
            engine.shutdown()
        restarted = SessionEngine(state_dir=str(state_dir))
        try:
            assert restarted.session_ids() == []
        finally:
            restarted.shutdown()

    def test_corrupt_checkpoint_is_skipped_not_fatal(self, tmp_path):
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / "garbage.ckpt").write_bytes(b"not a pickle")
        engine = SessionEngine(state_dir=str(state_dir))
        try:
            assert engine.session_ids() == []
            sid = engine.create_session(ticker_source())
            assert engine.step(sid, rounds=2)["rounds"] == 2
        finally:
            engine.shutdown()


# ---------------------------------------------------------------------------
# Engine degradation: session faults, step budgets, step_all isolation
# ---------------------------------------------------------------------------


class TestSessionFaults:
    def test_scheduled_step_fault_fires_once(self):
        plan = FaultPlan(
            session_faults=(
                SessionFault(session_id="s-1", op="step", call_index=2),
            )
        )
        engine = SessionEngine(fault_plan=plan)
        try:
            sid = engine.create_session(ticker_source())
            assert sid == "s-1"
            engine.step(sid, rounds=1)  # call 1: clean
            with pytest.raises(InjectedFault):
                engine.step(sid, rounds=1)  # call 2: scheduled fault
            health = engine.step(sid, rounds=1)  # call 3: clean again
            assert health["rounds"] == 2
            counter = engine.obs.registry.get("repro_resil_faults_injected_total")
            assert counter is not None
            assert counter.labels(kind="session").value == 1
        finally:
            engine.shutdown()

    def test_step_all_isolates_a_failing_session(self):
        plan = FaultPlan(
            session_faults=(
                SessionFault(session_id="s-2", op="step", call_index=1),
            )
        )
        engine = SessionEngine(fault_plan=plan)
        try:
            ids = [engine.create_session(ticker_source()) for _ in range(3)]
            results = engine.step_all(ids, rounds=2)
            assert set(results) == set(ids)
            assert "error" in results["s-2"]
            assert "InjectedFault" in results["s-2"]["error"]
            for sid in ("s-1", "s-3"):
                assert results[sid]["rounds"] == 2
            # The pool is not poisoned: the next sweep steps everything.
            again = engine.step_all(ids, rounds=2)
            assert all("error" not in health for health in again.values())
        finally:
            engine.shutdown()

    def test_failing_sink_is_detached_not_fatal(self):
        plan = FaultPlan(sink_failures=-1)  # always-failing sink
        engine = SessionEngine(fault_plan=plan)
        try:
            sid = engine.create_session(ticker_source())
            # Enough rounds to push the sink past MAX_SINK_FAILURES (8)
            # consecutive errors: one round_end event per round.
            engine.step(sid, rounds=12)
            engine.close_session(sid)
            stats = engine.obs.events.stats()
            assert stats["sink_errors"] > 0
            assert stats["sinks_detached"] == 1
        finally:
            engine.shutdown()


class TestStepTimeout:
    def test_budget_exhaustion_raises_at_a_round_boundary(self):
        engine = SessionEngine()
        try:
            sid = engine.create_session(ticker_source())
            with pytest.raises(StepTimeout) as excinfo:
                engine.step(sid, rounds=100, timeout_s=0.0)
            error = excinfo.value
            assert error.session_id == sid
            assert error.rounds_completed > 0
            # The session is intact: stepping again continues cleanly.
            health = engine.step(sid, rounds=1)
            assert health["rounds"] == error.rounds_completed + 1
            counter = engine.obs.registry.get("repro_serve_step_timeouts_total")
            assert counter is not None and counter.value == 1
        finally:
            engine.shutdown()

    def test_engine_wide_default_budget(self):
        engine = SessionEngine(step_timeout_s=0.0)
        try:
            sid = engine.create_session(ticker_source())
            with pytest.raises(StepTimeout):
                engine.step(sid, rounds=100)
            # A small request that finishes inside one slice never times out.
            assert engine.step(sid, rounds=1)["stop_reason"] == "budget"
        finally:
            engine.shutdown()


# ---------------------------------------------------------------------------
# Sink flush on shutdown (satellite 5)
# ---------------------------------------------------------------------------


class TestShutdownFlush:
    def test_jsonl_events_are_durable_after_shutdown(self, tmp_path):
        path = tmp_path / "events.jsonl"
        obs = Observability()
        sink = obs.events.attach(JsonlSink(str(path)))
        engine = SessionEngine(obs=obs)
        sid = engine.create_session(ticker_source())
        engine.close_session(sid)
        engine.shutdown()
        # The engine does not own this obs, so it flushes (not closes):
        # every event must already be on disk.
        kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
        assert "session_create" in kinds
        assert "session_close" in kinds
        obs.events.close()

    def test_owned_bus_is_closed_on_shutdown(self, tmp_path):
        path = tmp_path / "events.jsonl"
        engine = SessionEngine()
        engine.obs.events.attach(JsonlSink(str(path)))
        sid = engine.create_session(ticker_source())
        engine.close_session(sid)
        engine.shutdown()
        assert engine.obs.events.stats()["sinks"] == 0  # closed and detached
        kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
        assert "session_create" in kinds and "session_close" in kinds

    def test_bus_flush_tolerates_sinks_without_flush(self):
        obs = Observability()
        obs.events.attach(FailingSink(failures=0))
        obs.events.flush()  # no flush attribute — must not raise


# ---------------------------------------------------------------------------
# HTTP back-pressure (satellite 1 + ingress degradation)
# ---------------------------------------------------------------------------


def _http(server, method, path, payload=None, raw_body=None):
    body = raw_body
    if body is None and payload is not None:
        body = json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=body,
        method=method,
        headers={"Content-Type": "application/json"} if body else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


class TestHTTPBackPressure:
    def test_oversized_body_is_413(self):
        server = make_http_server(port=0, max_body_bytes=256)
        server.serve_in_background()
        try:
            status, body, _ = _http(
                server,
                "POST",
                "/sessions",
                raw_body=json.dumps({"spec_text": "x" * 1024}).encode(),
            )
            assert status == 413
            assert "exceeds" in body["error"]
        finally:
            server.shutdown()
            server.api.engine.shutdown()
            server.server_close()

    def test_admission_gate_sheds_with_retry_after(self):
        # max_inflight=0 deterministically sheds every POST.
        server = make_http_server(port=0, max_inflight=0)
        server.serve_in_background()
        try:
            status, body, headers = _http(
                server, "POST", "/sessions", payload={"spec_text": TICKER_SPEC}
            )
            assert status == 429
            assert headers.get("Retry-After") is not None
            assert "in-flight" in body["error"]
            # GETs are not work-creating and pass the gate untouched.
            status, _, _ = _http(server, "GET", "/healthz")
            assert status == 200
            shed = server.api.engine.obs.registry.get(
                "repro_serve_requests_shed_total"
            )
            assert shed is not None and shed.value == 1
        finally:
            server.shutdown()
            server.api.engine.shutdown()
            server.server_close()

    def test_step_timeout_maps_to_503(self):
        engine = SessionEngine(step_timeout_s=0.0)
        server = make_http_server(port=0, engine=engine)
        server.serve_in_background()
        try:
            status, body, _ = _http(
                server, "POST", "/sessions", payload={"spec_text": TICKER_SPEC}
            )
            assert status == 201
            sid = body["session_id"]
            status, body, headers = _http(
                server, "POST", f"/sessions/{sid}/step", payload={"rounds": 100}
            )
            assert status == 503
            assert headers.get("Retry-After") is not None
            assert body["rounds_completed"] > 0
        finally:
            server.shutdown()
            engine.shutdown()
            server.server_close()
