"""The session service (ISSUE 6): registry compile-once + engine lifecycle.

Covers the two new layers beneath the ingress API:

* :mod:`repro.serve.registry` — one front-end compile per distinct source
  (keyed by content, so a file path and the equivalent inline text share an
  entry), one selector per module class, honest factory accounting;
* :mod:`repro.serve.engine` — session create/inject/step/stream/close with
  per-session executors and clocks, fan-out stepping, limits, stats and
  clean shutdown.
"""

from pathlib import Path

import pytest

from repro.runtime import SpecSource
from repro.runtime.tracing import CANONICAL_FIELDS
from repro.serve import (
    ServeError,
    SessionEngine,
    SessionUnknown,
    SpecRegistry,
)
from repro.serve.engine import SESSION_PROCESSORS
from repro.serve.registry import source_key
from repro.sim.machine import cluster_from_placements

MCAM_SPEC = Path(__file__).parent.parent / "examples" / "specs" / "mcam_sessions.estelle"

ECHO_SPEC = """
specification echo;

channel Ctl ( user , server );
  by user : Ping ;
  by server : Pong ;
end;

body ServerBody for Server;
  state idle , pinged ;

  initialize to idle
  begin
    pings := 0
  end;

  trans from idle to pinged
    when ctl.Ping
    name on_ping
    cost 1.0
    begin
      pings := pings + 1
    end;
end;

modvar srv : ServerBody at "host-a" ;

end.
"""

ECHO_MODULE = """
module Server systemprocess;
  ip ctl : Ctl ( server );
end;
"""

# The module header has to precede the body; splice it in after the channel.
ECHO_SPEC = ECHO_SPEC.replace("body ServerBody", ECHO_MODULE + "\nbody ServerBody", 1)


def echo_source() -> SpecSource:
    return SpecSource.from_estelle_text(ECHO_SPEC, filename="<echo>")


def mcam_source() -> SpecSource:
    return SpecSource.from_estelle_file(MCAM_SPEC)


class TestSourceKey:
    def test_file_and_equivalent_text_share_a_key(self):
        text = MCAM_SPEC.read_text()
        assert source_key(mcam_source()) == source_key(
            SpecSource.from_estelle_text(text)
        )

    def test_distinct_sources_get_distinct_keys(self):
        assert source_key(mcam_source()) != source_key(echo_source())


class TestRegistryCompileOnce:
    def test_estelle_source_compiles_exactly_once(self):
        registry = SpecRegistry()
        entry = registry.get(mcam_source())
        specs = [entry.instantiate() for _ in range(10)]
        assert entry.compile_count == 1
        assert entry.instantiations == 10
        assert entry.shares_compilation
        # Fresh, mutually independent trees sharing the lowered classes.
        assert len({id(spec) for spec in specs}) == 10
        assert len({id(spec.find("mgr")) for spec in specs}) == 10
        assert len({type(spec.find("mgr")) for spec in specs}) == 1

    def test_same_content_through_path_and_text_is_one_entry(self):
        registry = SpecRegistry()
        entry_a = registry.get(mcam_source())
        entry_b = registry.get(SpecSource.from_estelle_text(MCAM_SPEC.read_text()))
        assert entry_a is entry_b
        assert len(registry) == 1
        assert registry.hits == 1 and registry.misses == 1

    def test_a_file_is_read_once_per_miss(self, tmp_path, monkeypatch):
        """The key and the template come from one read.  They used to come
        from two, so a file rewritten in between was filed under the first
        text and compiled from the second — and every later ``get()`` of the
        first text was served the wrong protocol."""
        path = tmp_path / "echo.estelle"
        path.write_text(ECHO_SPEC)
        rewritten = ECHO_SPEC.replace("specification echo;", "specification other;")
        reads = []
        real_read_text = Path.read_text

        def rewritten_after_every_read(self, *args, **kwargs):
            if self != path:
                return real_read_text(self, *args, **kwargs)
            reads.append(self)
            return ECHO_SPEC if len(reads) == 1 else rewritten

        from repro.runtime import executor as compile_point

        compiled = []
        real_compile = compile_point.compile_template

        def recording_compile(text, filename):
            compiled.append(text)
            return real_compile(text, filename)

        monkeypatch.setattr(Path, "read_text", rewritten_after_every_read)
        monkeypatch.setattr(compile_point, "compile_template", recording_compile)
        registry = SpecRegistry()
        entry = registry.get(SpecSource.from_estelle_file(path))
        assert len(reads) == 1
        assert compiled == [ECHO_SPEC] and entry.name == "echo"
        assert entry.key == source_key(SpecSource.from_estelle_text(ECHO_SPEC))
        assert registry.get(echo_source()) is entry and entry.compile_count == 1

    def test_factory_sources_honestly_recount(self):
        registry = SpecRegistry()
        entry = registry.get(
            SpecSource.from_factory("tests.helpers:build_ping_pong_spec", count=2)
        )
        assert not entry.shares_compilation
        entry.instantiate()
        entry.instantiate()
        assert entry.compile_count == 2

    def test_sessions_of_an_entry_share_one_selector_per_class(self):
        from repro.runtime import compile_module_class

        def selectors(engine):
            executor = engine._session(engine.create_session(mcam_source())).executor
            program = executor.planner.program
            return program.selectors, {type(module) for module in program.modules}

        with SessionEngine() as engine:
            (first, classes), (second, _) = selectors(engine), selectors(engine)
        assert first and first == second
        assert {compile_module_class(cls).select for cls in classes} == set(first)
        # The selectors live on the classes, not on the entry or the engine.
        with SessionEngine() as other:
            assert selectors(other)[0] == first

    def test_stats_shape(self):
        registry = SpecRegistry()
        registry.get(mcam_source()).instantiate()
        stats = registry.stats()
        assert stats["entries"] == 1
        (spec_stats,) = stats["specs"]
        assert spec_stats["name"] == "mcam_sessions"
        assert spec_stats["compile_count"] == 1
        assert spec_stats["instantiations"] == 1


class TestDefaultCluster:
    def test_one_machine_per_placement_location(self):
        spec = mcam_source().build()
        cluster = cluster_from_placements(spec, SESSION_PROCESSORS)
        names = sorted(machine.name for machine in cluster.machines())
        assert names == ["client-ws-1", "client-ws-2", "ksr1"]

    def test_placement_free_spec_gets_local_machine(self):
        from tests.helpers import build_ping_pong_spec

        cluster = cluster_from_placements(build_ping_pong_spec(count=1), SESSION_PROCESSORS)
        assert [machine.name for machine in cluster.machines()] == ["m1"]


class TestSessionLifecycle:
    def test_create_step_to_quiescence_close(self):
        with SessionEngine() as engine:
            sid = engine.create_session(mcam_source())
            health = engine.run_to_quiescence(sid)
            assert health["stop_reason"] == "quiescent"
            assert health["quiescent"]
            assert health["transitions_fired"] > 0
            assert health["simulated_time"] > 0
            final = engine.close_session(sid)
            assert final["session_id"] == sid
            with pytest.raises(SessionUnknown):
                engine.health(sid)

    def test_step_budget_reports_budget(self):
        with SessionEngine() as engine:
            sid = engine.create_session(mcam_source())
            assert engine.step(sid, rounds=1)["stop_reason"] == "budget"

    def test_step_deadline_reports_deadline(self):
        with SessionEngine() as engine:
            sid = engine.create_session(mcam_source())
            health = engine.step(sid, rounds=10_000, deadline=2.0)
            assert health["stop_reason"] == "deadline"
            assert health["simulated_time"] >= 2.0

    def test_sessions_have_private_clocks_and_state(self):
        with SessionEngine() as engine:
            one = engine.create_session(mcam_source())
            two = engine.create_session(mcam_source())
            engine.run_to_quiescence(one)
            assert engine.health(one)["simulated_time"] > 0
            assert engine.health(two)["simulated_time"] == 0
            assert engine.health(two)["transitions_fired"] == 0

    def test_unknown_session_raises(self):
        with SessionEngine() as engine:
            with pytest.raises(SessionUnknown):
                engine.step("nope")
            with pytest.raises(SessionUnknown):
                engine.close_session("nope")

    def test_explicit_ids_and_duplicates(self):
        with SessionEngine() as engine:
            assert engine.create_session(mcam_source(), session_id="call-7") == "call-7"
            with pytest.raises(ServeError):
                engine.create_session(mcam_source(), session_id="call-7")

    def test_session_limit(self):
        with SessionEngine(max_sessions=2) as engine:
            engine.create_session(mcam_source())
            engine.create_session(mcam_source())
            with pytest.raises(ServeError):
                engine.create_session(mcam_source())
            engine.close_session(engine.session_ids()[0])
            engine.create_session(mcam_source())  # freed slot reusable

    def test_create_after_shutdown_rejected(self):
        engine = SessionEngine()
        engine.shutdown()
        with pytest.raises(ServeError):
            engine.create_session(mcam_source())


class TestIngress:
    def test_inject_then_step_consumes_interaction(self):
        with SessionEngine() as engine:
            sid = engine.create_session(echo_source())
            queued = engine.inject(sid, "srv", "ctl", "Ping")
            assert queued["queued"] == 1
            health = engine.run_to_quiescence(sid)
            assert health["transitions_fired"] == 1
            events, cursor = engine.stream_firings(sid)
            assert cursor == 1
            assert events[0]["transition_name"] == "on_ping"
            assert events[0]["interaction_name"] == "Ping"

    def test_inject_validates_ip_name(self):
        with SessionEngine() as engine:
            sid = engine.create_session(echo_source())
            with pytest.raises(ServeError, match="no interaction point"):
                engine.inject(sid, "srv", "nope", "Ping")

    def test_inject_validates_interaction_direction(self):
        with SessionEngine() as engine:
            sid = engine.create_session(echo_source())
            # Pong is what the *server* sends; ingress plays the peer (user).
            with pytest.raises(ServeError, match="cannot receive"):
                engine.inject(sid, "srv", "ctl", "Pong")


class TestFiringStream:
    def test_cursor_resumes_where_it_left_off(self):
        with SessionEngine() as engine:
            sid = engine.create_session(mcam_source())
            engine.run_to_quiescence(sid)
            events, cursor = engine.stream_firings(sid)
            assert len(events) == cursor > 0
            again, cursor2 = engine.stream_firings(sid, since=cursor)
            assert again == [] and cursor2 == cursor
            head, _ = engine.stream_firings(sid, since=cursor - 2)
            assert head == events[-2:]

    def test_events_carry_all_canonical_fields(self):
        with SessionEngine() as engine:
            sid = engine.create_session(mcam_source())
            engine.step(sid, rounds=3)
            events, cursor = engine.stream_firings(sid)
            rows = engine._session(sid).executor.trace.all_firings()
            assert events and len(events) == len(rows) == cursor
            for event, row in zip(events, rows):
                assert tuple(event) == CANONICAL_FIELDS
                assert tuple(event.values()) == row
            assert engine.stream_firings(sid, since=cursor) == ([], cursor)

    def test_out_of_range_cursor_rejected(self):
        with SessionEngine() as engine:
            sid = engine.create_session(mcam_source())
            with pytest.raises(ServeError, match="out of range"):
                engine.stream_firings(sid, since=99)


class TestFanOutAndStats:
    def test_step_all_sweeps_every_session(self):
        with SessionEngine() as engine:
            ids = [engine.create_session(mcam_source()) for _ in range(6)]
            healths = engine.step_all(rounds=2)
            assert set(healths) == set(ids)
            assert all(h["rounds"] >= 1 for h in healths.values())

    def test_step_all_skips_sessions_closed_mid_sweep(self):
        with SessionEngine() as engine:
            keep = engine.create_session(mcam_source())
            gone = engine.create_session(mcam_source())
            engine.close_session(gone)
            healths = engine.step_all([keep, gone], rounds=1)
            assert set(healths) == {keep}

    def test_stats_track_peak_and_lifecycle_counters(self):
        engine = SessionEngine()
        ids = [engine.create_session(mcam_source()) for _ in range(3)]
        engine.close_session(ids[0])
        stats = engine.stats()
        assert stats["active_sessions"] == 2
        assert stats["peak_sessions"] == 3
        assert stats["sessions_created"] == 3
        assert stats["sessions_closed"] == 1
        assert stats["registry"]["specs"][0]["compile_count"] == 1
        final = engine.shutdown()
        assert final["active_sessions"] == 0
        assert final["sessions_closed"] == 3

    def test_engines_are_fully_isolated_instances(self):
        # No module-level globals: two engines, separate registries/counters.
        a, b = SessionEngine(), SessionEngine()
        try:
            a.create_session(mcam_source())
            assert b.stats()["sessions_created"] == 0
            assert len(b.registry) == 0
        finally:
            a.shutdown()
            b.shutdown()
